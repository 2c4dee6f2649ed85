package main

import (
	"fmt"
	"slices"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/regassign"
	"repro/internal/verify"
	"repro/regalloc"
)

// checkOutcome re-derives the verifier's invariants for one output from
// fresh liveness, independently of the pipeline that produced it:
//
//  1. at every program point, at most R kept values of each register class
//     are live (R, or the class capacity on a constrained machine);
//  2. every kept value holds a register of its class, no two live kept
//     values share one, pre-colored values keep their pin and no kept value
//     holds a register a call it spans clobbers;
//  3. the spill-everywhere rewrite behaves like the original under the
//     reference interpreter on verify.DefaultInputs, and, on a constrained
//     machine, also under the clobber-modelling interpreter.
//
// cons is nil for unconstrained allocation with r registers.
func checkOutcome(f *ir.Func, o *regalloc.Outcome, r int, cons *arch.Constraints) error {
	info := liveness.Compute(f)
	allocated := make([]bool, f.NumValues)
	for vx, al := range o.Result.Allocated {
		if al {
			allocated[o.ValueOf[vx]] = true
		}
	}
	capOf := func(c ir.Class) int {
		if cons == nil {
			return r
		}
		return cons.Cap(c)
	}
	for _, p := range info.Points {
		var count [ir.NumClasses]int
		for _, v := range p.Live {
			if allocated[v] {
				count[f.ClassOf(v)]++
			}
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			if count[c] > capOf(c) {
				return fmt.Errorf("%s: %s pressure %d > %d at block %d point %d",
					f.Name, c, count[c], capOf(c), p.Block, p.Index)
			}
		}
	}

	if regOf := o.RegisterOf; regOf != nil {
		regIn := func(v int) (int, error) {
			reg := regOf[v]
			if cons == nil {
				if reg < 0 || reg >= r {
					return 0, fmt.Errorf("value %s got register %d, want [0,%d)", f.NameOf(v), reg, r)
				}
				return reg, nil
			}
			c := f.ClassOf(v)
			if reg < 0 || ir.RegClassOf(reg) != c || ir.RegIndexOf(reg) >= cons.Cap(c) {
				return 0, fmt.Errorf("%s value %s got %s", c, f.NameOf(v), ir.RegName(reg))
			}
			if pin, ok := f.PreColorOf(v); ok && reg != pin {
				return 0, fmt.Errorf("pre-colored value %s holds %s, not %s", f.NameOf(v), ir.RegName(reg), ir.RegName(pin))
			}
			return reg, nil
		}
		for v, al := range allocated {
			if al {
				if _, err := regIn(v); err != nil {
					return fmt.Errorf("%s: %w", f.Name, err)
				}
			}
		}
		holder := map[int]int{}
		for _, p := range info.Points {
			clear(holder)
			for _, v := range p.Live {
				if !allocated[v] {
					continue
				}
				if prev, ok := holder[regOf[v]]; ok {
					return fmt.Errorf("%s: values %s and %s share register %d at block %d point %d",
						f.Name, f.NameOf(prev), f.NameOf(v), regOf[v], p.Block, p.Index)
				}
				holder[regOf[v]] = v
			}
		}
		if cons != nil {
			for at, live := range regassign.LiveThroughCalls(info) {
				clob := f.Blocks[at[0]].Instrs[at[1]].Clobbers
				for _, v := range live {
					if allocated[v] && slices.Contains(clob, regOf[v]) {
						return fmt.Errorf("%s: value %s holds caller-saved %s across a call",
							f.Name, f.NameOf(v), ir.RegName(regOf[v]))
					}
				}
			}
		}
	}

	rewritten := o.Rewritten
	if rewritten == nil {
		// Non-SSA functions stop after allocation; the spill-everywhere
		// rewrite is still a function of the spill set alone.
		spilled := make([]bool, f.NumValues)
		for _, v := range o.SpilledValues {
			spilled[v] = true
		}
		rewritten = regassign.InsertSpillCode(f, spilled)
		if err := rewritten.Validate(); err != nil {
			return fmt.Errorf("%s: rewrite invalid: %w", f.Name, err)
		}
	}
	for _, in := range verify.DefaultInputs {
		want, err := interp.Run(f, in, 0)
		if err != nil {
			return fmt.Errorf("%s: original failed on %v: %w", f.Name, in, err)
		}
		got, err := interp.Run(rewritten, in, 0)
		if err != nil {
			return fmt.Errorf("%s: rewrite failed on %v: %w", f.Name, in, err)
		}
		if d := want.Diff(got); d != "" {
			return fmt.Errorf("%s: rewrite changed behaviour on %v: %s", f.Name, in, d)
		}
		if cons != nil && o.RegisterOf != nil {
			got, err := interp.RunWithClobbers(rewritten, in, 0, o.RegisterOf)
			if err != nil {
				return fmt.Errorf("%s: rewrite failed under clobbers on %v: %w", f.Name, in, err)
			}
			if d := want.Diff(got); d != "" {
				return fmt.Errorf("%s: clobbers changed behaviour on %v: %s", f.Name, in, d)
			}
		}
	}
	return nil
}

// output is what the benchmark keeps of one function's first outcome.
type output struct {
	spilled   []int
	regOf     []int
	spillCost float64
	// weight is the cost of spilling every value; moves the residual move
	// cost.
	weight, moves float64
}

func keep(f *ir.Func, o *regalloc.Outcome) output {
	return output{
		spilled:   o.SpilledValues,
		regOf:     o.RegisterOf,
		spillCost: o.SpillCost,
		weight:    o.Problem.TotalWeight(),
		moves:     residualMoveCost(f, o),
	}
}

// matches reports whether a spill set and assignment equal the kept ones
// exactly.
func (w output) matches(spilled, regOf []int) bool {
	return slices.Equal(w.spilled, spilled) && slices.Equal(w.regOf, regOf)
}

// same reports whether a later outcome equals the kept one exactly.
func (w output) same(o *regalloc.Outcome) bool {
	return w.matches(o.SpilledValues, o.RegisterOf) && w.spillCost == o.SpillCost
}

// spillMean averages, over functions, each function's spill cost as a
// share of the cost of spilling all of its values; a function with no
// values to spill has no share and is left out. Every function counts
// alike. A ratio of sums over the functions lets the few with the heaviest
// loop weights decide the figure: on module-machine that ratio spread by 8%
// of its median over ten seeds, the mean of shares by 2.5%.
type spillMean struct {
	sum float64
	n   int
}

func (m *spillMean) add(spillCost, weight float64) {
	if weight > 0 {
		m.sum += spillCost / weight
		m.n++
	}
}

// value is NaN when no function had values to spill.
func (m *spillMean) value() float64 { return m.sum / float64(m.n) }

// residualMoveCost is the dynamic cost of the φ/copy moves whose endpoints
// ended up in different registers (or memory). Outcomes without a register
// assignment (non-SSA functions) have none to measure.
func residualMoveCost(f *ir.Func, o *regalloc.Outcome) float64 {
	if o.Coalesce != nil {
		return o.Coalesce.ResidualCost
	}
	if o.RegisterOf == nil {
		return 0
	}
	_, residual := coalesce.ResidualCost(coalesce.MovesFromFunc(f, regalloc.DefaultCostModel), o.RegisterOf)
	return residual
}
