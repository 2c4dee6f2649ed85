package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/alloc"
	"repro/internal/alloc/layered"
	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/raerr"
	"repro/internal/regassign"
)

func TestBudgetTripWithoutDegradeIsTypedError(t *testing.T) {
	f := ir.MustParse(loopSrc)
	_, err := Run(f, Config{Registers: 2, Budget: budget.Limits{Steps: 1}})
	if err == nil {
		t.Fatal("tiny step budget without Degrade succeeded")
	}
	if !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *raerr.BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err = %T, want to carry *raerr.BudgetError", err)
	}
	if be.Stage != raerr.StageLiveness {
		t.Fatalf("trip stage = %q, want liveness (first metered stage)", be.Stage)
	}
	var fe *raerr.FuncError
	if !errors.As(err, &fe) || fe.Func != f.Name {
		t.Fatalf("err = %v, want FuncError for %s", err, f.Name)
	}
}

func TestDegradeSpillAllOnTinyBudget(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{Registers: 2, Budget: budget.Limits{Steps: 1}, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungSpillAll {
		t.Fatalf("Degraded = %+v, want spill-all rung", out.Degraded)
	}
	if out.Degraded.Stage != raerr.StageLiveness || out.Degraded.Reason == nil {
		t.Fatalf("Degraded = %+v, want liveness stage with a reason", out.Degraded)
	}
	if out.Result.Allocator != "spill-all" {
		t.Fatalf("Allocator = %s", out.Result.Allocator)
	}
	for _, al := range out.Result.Allocated {
		if al {
			t.Fatal("spill-all outcome kept a value in a register")
		}
	}
	if out.Rewritten == nil {
		t.Fatal("spill-all outcome has no rewrite")
	}
	for v, reg := range out.RegisterOf {
		if reg != regassign.NoReg {
			t.Fatalf("value %s has register %d in a spill-all outcome", f.NameOf(v), reg)
		}
	}
	if err := out.Rewritten.Validate(); err != nil {
		t.Fatalf("spill-all rewrite invalid: %v", err)
	}
	if out.BudgetSpent <= 0 {
		t.Fatal("BudgetSpent not recorded")
	}
}

func TestAdmissionGate(t *testing.T) {
	f := ir.MustParse(loopSrc)
	_, err := Run(f, Config{Registers: 2, Budget: budget.Limits{MaxValues: 1}})
	if err == nil || !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("admission without Degrade: err = %v, want ErrBudgetExceeded", err)
	}
	out, err := Run(f, Config{Registers: 2, Budget: budget.Limits{MaxValues: 1}, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungSpillAll || out.Degraded.Stage != raerr.StageAdmission {
		t.Fatalf("Degraded = %+v, want spill-all via admission", out.Degraded)
	}
}

// greedyAllocator burns the whole step budget inside Allocate, then returns
// the everything-spilled result — the shape of a custom allocator that does
// cooperative charging but cannot finish.
type greedyAllocator struct{}

func (greedyAllocator) Name() string { return "greedy-test" }
func (greedyAllocator) Allocate(p *alloc.Problem) *alloc.Result {
	p.Meter.Charge(1 << 40)
	return &alloc.Result{Allocated: make([]bool, p.N()), Allocator: "greedy-test"}
}

func TestDegradeLinearScanRungOnAllocateTrip(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{
		Registers: 2,
		Allocator: greedyAllocator{},
		Budget:    budget.Limits{Steps: 100_000},
		Degrade:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungLinearScan {
		t.Fatalf("Degraded = %+v, want linear-scan rung", out.Degraded)
	}
	if out.Degraded.Stage != raerr.StageAllocate {
		t.Fatalf("Degraded stage = %q, want allocate", out.Degraded.Stage)
	}
	if out.Result.Allocator != "DLS" {
		t.Fatalf("rung allocator = %s, want DLS", out.Result.Allocator)
	}
	if out.Rewritten == nil || out.RegisterOf == nil {
		t.Fatal("linear-scan rung skipped the rewrite")
	}
	if err := out.Problem.Validate(out.Result); err != nil {
		t.Fatalf("rung result invalid: %v", err)
	}
	// Without Degrade the same trip is a typed error.
	_, err = Run(f, Config{
		Registers: 2,
		Allocator: greedyAllocator{},
		Budget:    budget.Limits{Steps: 100_000},
	})
	if !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
}

func TestBudgetedRunMatchesUnbudgeted(t *testing.T) {
	base, err := Run(ir.MustParse(loopSrc), Config{Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	out, err := Run(ir.MustParse(loopSrc), Config{
		Registers: 2,
		Budget:    budget.Limits{Steps: 10_000_000, Deadline: time.Hour},
		Degrade:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded != nil {
		t.Fatalf("ample budget degraded: %+v", out.Degraded)
	}
	if out.BudgetSpent <= 0 {
		t.Fatal("BudgetSpent not recorded")
	}
	if len(base.SpilledValues) != len(out.SpilledValues) {
		t.Fatalf("budgeted run spilled %v, unbudgeted %v", out.SpilledValues, base.SpilledValues)
	}
	for i, v := range base.SpilledValues {
		if out.SpilledValues[i] != v {
			t.Fatalf("budgeted run spilled %v, unbudgeted %v", out.SpilledValues, base.SpilledValues)
		}
	}
}

func TestDegradeOnBlownDeadline(t *testing.T) {
	f := ir.MustParse(loopSrc)
	out, err := Run(f, Config{
		Registers: 2,
		Budget:    budget.Limits{Deadline: time.Nanosecond},
		Degrade:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// The trip point depends on where the amortized clock check lands, so
	// only the invariant matters: degraded, never failed, always valid.
	if out.Degraded == nil {
		t.Fatal("blown deadline did not degrade")
	}
	if out.Rewritten != nil {
		if err := out.Rewritten.Validate(); err != nil {
			t.Fatalf("degraded rewrite invalid: %v", err)
		}
	}
}

func TestConstrainedDegradeSpillAll(t *testing.T) {
	f := ir.MustParse(loopSrc)
	cons := arch.ARMv7.Constraints(4)
	_, err := Run(f, Config{Registers: 4, Constraints: cons, Budget: budget.Limits{Steps: 1}})
	if !errors.Is(err, raerr.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	out, err := Run(f, Config{
		Registers: 4, Constraints: cons,
		Budget: budget.Limits{Steps: 1}, Degrade: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Degraded == nil || out.Degraded.Rung != RungSpillAll {
		t.Fatalf("Degraded = %+v, want spill-all", out.Degraded)
	}
	for v, reg := range out.RegisterOf {
		if reg != regassign.NoReg {
			t.Fatalf("value %s kept register %d", f.NameOf(v), reg)
		}
	}
}

// Satellite regression: malformed problems routed to the layered family are
// typed errors, not panics.
func TestLayeredOnNonSSAIsTypedError(t *testing.T) {
	f := ir.MustParse(`
func ns {
b0:
  x = param 0
  y = param 1
  z = arith x, y
  x = arith z, z
  store x, z
  ret z
}`)
	// layered.Custom bypasses the registry's ChordalOnly gate (the name is
	// unregistered), so only the ProblemChecker gate stands between the
	// non-chordal instance and the allocator's internal panic.
	_, err := Run(f, Config{Registers: 2, Allocator: layered.Custom("custom-nl", layered.Option{})})
	if err == nil {
		t.Fatal("non-SSA function through a layered allocator succeeded")
	}
	if !errors.Is(err, raerr.ErrNotSSA) {
		t.Fatalf("err = %v, want ErrNotSSA", err)
	}
}

func TestStepAllocatorBadStepIsTypedError(t *testing.T) {
	f := ir.MustParse(loopSrc)
	_, err := Run(f, Config{Registers: 2, Allocator: &layered.StepAllocator{Step: 0}})
	if err == nil || !errors.Is(err, raerr.ErrInvalidConfig) {
		t.Fatalf("err = %v, want ErrInvalidConfig", err)
	}
}

// intervalProbe records the linear-scan intervals a configured allocator is
// handed, then burns the step budget like greedyAllocator.
type intervalProbe struct{ intervals, n *int }

func (intervalProbe) Name() string { return "interval-probe" }
func (a intervalProbe) Allocate(p *alloc.Problem) *alloc.Result {
	*a.intervals, *a.n = len(p.Intervals), p.N()
	if p.Intervals == nil {
		*a.intervals = -1
	}
	p.Meter.Charge(1 << 40)
	return &alloc.Result{Allocated: make([]bool, p.N()), Allocator: "interval-probe"}
}

// TestLinearScanRungBuildsIntervals: the default allocators never read
// linear-scan intervals, so a run builds none for them, and the
// linear-scan rung builds its own. A step limit swept over a whole run of
// the default allocator must land every trip in allocate or assign on the
// linear-scan rung, on a strict-SSA function (the clique path) and on one
// whose unreachable code sends it down the explicit-graph path. A non-SSA
// function's default (LH) charges no steps, so there a metered configured
// allocator trips instead; it must see intervals of one entry per vertex.
func TestLinearScanRungBuildsIntervals(t *testing.T) {
	const deadCodeSrc = loopSrc + `
func dead ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  d = arith c, a
  e = arith d, b
  ret e
b1:
  x = arith a, a
  ret x
}`
	m, err := ir.ParseModule(deadCodeSrc)
	if err != nil {
		t.Fatal(err)
	}
	checkRung := func(name string, out *Outcome) {
		t.Helper()
		if out.Degraded.Rung != RungLinearScan || out.Result.Allocator != "DLS" {
			t.Fatalf("%s: trip in %s landed on %s (%s), want the linear-scan rung",
				name, out.Degraded.Stage, out.Degraded.Rung, out.Result.Allocator)
		}
		if len(out.Problem.Intervals) != out.Problem.N() {
			t.Fatalf("%s: rung problem has %d intervals for %d vertices",
				name, len(out.Problem.Intervals), out.Problem.N())
		}
		if err := out.Problem.Validate(out.Result); err != nil {
			t.Fatalf("%s: rung result invalid: %v", name, err)
		}
	}
	for i, fn := range m.Funcs {
		name := fn.Name
		full, err := Run(m.Funcs[i], Config{Registers: 2, Budget: budget.Limits{Steps: 1 << 40}})
		if err != nil {
			t.Fatal(err)
		}
		if wantGraph := i == 1; (full.Build != nil) != wantGraph {
			t.Fatalf("%s: explicit graph %v, want %v", name, full.Build != nil, wantGraph)
		}
		if full.Problem.Intervals != nil {
			t.Fatalf("%s: the default allocator's problem carries intervals", name)
		}
		allocTrips := 0
		for steps := int64(1); steps < full.BudgetSpent; steps++ {
			f := ir.MustParse(fn.String())
			out, err := Run(f, Config{Registers: 2, Budget: budget.Limits{Steps: steps}, Degrade: true})
			if err != nil {
				t.Fatalf("%s steps=%d: %v", name, steps, err)
			}
			if out.Degraded == nil {
				t.Fatalf("%s steps=%d: below the full spend %d, yet not degraded", name, steps, full.BudgetSpent)
			}
			switch out.Degraded.Stage {
			case raerr.StageAllocate:
				allocTrips++
				fallthrough
			case raerr.StageAssign:
				checkRung(fmt.Sprintf("%s steps=%d", name, steps), out)
			}
		}
		if allocTrips == 0 {
			t.Fatalf("%s: no step limit tripped in allocate", name)
		}
	}

	var seen, n int
	f := ir.MustParse(`
func ns {
b0:
  x = param 0
  y = param 1
  z = arith x, y
  x = arith z, z
  store x, z
  ret z
}`)
	out, err := Run(f, Config{Registers: 1, Allocator: intervalProbe{&seen, &n},
		Budget: budget.Limits{Steps: 100_000}, Degrade: true})
	if err != nil {
		t.Fatal(err)
	}
	if seen != n || n == 0 {
		t.Fatalf("configured allocator saw %d intervals for %d vertices", seen, n)
	}
	if out.Degraded == nil || out.Degraded.Stage != raerr.StageAllocate {
		t.Fatalf("non-SSA: Degraded = %+v, want a trip in allocate", out.Degraded)
	}
	checkRung("non-SSA", out)
}
