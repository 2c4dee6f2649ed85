// Package core is the high-level entry point of the layered register
// allocation library: it wires the full decoupled pipeline together —
// loop analysis, liveness, interference analysis, spill cost estimation,
// spill-everywhere allocation with a pluggable allocator, tree-scan register
// assignment, and spill-code insertion.
//
// Typical use:
//
//	f := ir.MustParse(src)
//	out, err := core.Run(f, core.Config{Registers: 8})
//	// out.Result: which values stay in registers
//	// out.RegisterOf: concrete register per value (SSA functions)
//	// out.Rewritten: the function with spill/reload code inserted
//
// One driver runs every function. Strict-SSA functions take the IFG-free
// fast path: the clique structure the layered allocators need (the live
// sets at definition points, dominance elimination order) is derived
// straight from liveness by internal/cliques, and no interference graph is
// ever materialized unless an edge-based allocator (GC, Optimal, LH) asks
// for one. Allocation is per register class: an unconstrained run is the
// machine with one class of R registers, no pins and no clobbers; a
// machine (Config.Constraints) adds classes, pre-colored values and call
// clobbers through a constraint plan (constrained.go). Non-SSA functions,
// and SSA functions with non-inert unreachable code, build the explicit
// graph via internal/ifg instead; both interference representations give
// identical allocations (pinned by TestFastPathMatchesIFGPath).
//
// Lower-level control (custom cost models, direct graph problems) is
// available from the internal packages this one composes: alloc, cliques,
// ifg, liveness, spillcost, regassign.
package core

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/alloc/chaitin"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/linearscan"
	"repro/internal/alloc/optimal"
	"repro/internal/arch"
	"repro/internal/budget"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/raerr"
	"repro/internal/regassign"
	"repro/internal/spillcost"
)

// Config controls a pipeline run.
type Config struct {
	// Registers is the register count R (required, ≥ 1).
	Registers int
	// Allocator selects the allocation algorithm. Nil picks the paper's
	// best general-purpose chordal allocator (BFPL) for SSA functions and
	// the layered heuristic (LH) for non-SSA functions.
	Allocator alloc.Allocator
	// CostModel overrides the spill-cost estimate (zero value = default).
	CostModel spillcost.Model
	// SkipRewrite disables spill-code insertion and register assignment
	// (allocation decisions only).
	SkipRewrite bool
	// TrustedCostModel skips the per-function CostModel validation. Batch
	// drivers that validate the model once per module set this; leave it
	// false everywhere else.
	TrustedCostModel bool
	// Constraints, when non-nil, switches the pipeline to machine-constrained
	// allocation: values are allocated per register class against the
	// machine's class capacities, pre-colored values keep their ABI register,
	// and values live across clobbering calls avoid (or spill around) the
	// caller-saved registers. Requires strict SSA; see constrained.go.
	Constraints *arch.Constraints
	// Budget, when Active, bounds the run's resources: a wall-clock
	// deadline, a work-step budget charged cooperatively at analysis
	// granularity inside the hot loops, and a max-values/max-blocks
	// admission gate checked before any analysis runs. Enforcement is
	// cooperative — the metered stages (liveness, clique derivation,
	// layered/linear-scan allocation, assignment) stop at the next charge
	// point; an allocator that ignores Problem.Meter is only caught by the
	// wall-clock checks at stage boundaries.
	Budget budget.Limits
	// Coalescing enables coalescing-biased register assignment on the
	// IFG-free fast path: φ/copy-related values are grouped into affinity
	// classes (union-find; Conservative applies the Briggs criterion against
	// clique-membership degrees) and the tree-scan prefers an affine
	// partner's register when it is free — never at the cost of an extra
	// spill, and never changing which values are allocated. The zero value
	// (coalesce.Off) reproduces the unbiased pipeline byte-for-byte.
	// No-op on the explicit-graph path and on degraded rungs.
	Coalescing coalesce.Policy
	// Degrade converts a budget trip into a degraded-but-correct Outcome
	// instead of an error: the run falls down the ladder
	// layered → linear-scan → spill-all (each rung cheaper and itself
	// budget-checked; the spill-all floor is O(V) and never fails), and the
	// Outcome records the rung and reason in Degraded. With Degrade false a
	// trip surfaces as a *raerr.FuncError wrapping *raerr.BudgetError.
	Degrade bool
}

// Rung labels of the degradation ladder, recorded in Degradation.Rung.
const (
	// RungLinearScan: the configured allocator ran out of budget during
	// allocation or assignment; the result was recomputed by the DLS linear
	// scan under a fresh (small) step allowance.
	RungLinearScan = "linear-scan"
	// RungSpillAll: the floor — every occurring value is spilled. Reached
	// when the budget trips before the problem structure exists (admission,
	// liveness, cliques), when the linear-scan rung itself fails, and on
	// any trip of a machine-constrained run.
	RungSpillAll = "spill-all"
)

// Degradation records how a budget-governed run fell down the ladder.
type Degradation struct {
	// Rung is the ladder rung that produced the outcome (RungLinearScan or
	// RungSpillAll).
	Rung string
	// Stage is the pipeline stage whose budget trip forced the fall (one of
	// the raerr.Stage* constants).
	Stage string
	// Reason is the budget violation that triggered the degradation.
	Reason *raerr.BudgetError
}

// Outcome bundles everything a client may want from one allocation run.
type Outcome struct {
	F *ir.Func
	// Build is the explicit interference-graph build; nil on the IFG-free
	// fast path (use Problem.Graph() to materialize one on demand).
	Build *ifg.Build
	// Cliques is the fast path's structure; nil on the legacy graph path.
	Cliques *cliques.Structure
	Problem *alloc.Problem
	Result  *alloc.Result
	// VertexOf/ValueOf translate between value IDs and problem vertices
	// (identical on both paths).
	VertexOf []int
	ValueOf  []int
	// SpilledValues lists the spilled value IDs, sorted.
	SpilledValues []int
	// SpillCost is the total cost of the spilled values.
	SpillCost float64
	// MaxLive is the peak register pressure before spilling.
	MaxLive int
	// RegisterOf maps value ID → register number (regassign.NoReg for
	// spilled values); only set for SSA functions when SkipRewrite is off.
	RegisterOf []int
	// Rewritten is the function with spill-everywhere code inserted; only
	// set for SSA functions when SkipRewrite is off.
	Rewritten *ir.Func
	// Coalesce, when non-nil, reports the effect of coalescing-biased
	// assignment on the function's φ/copy moves (total, eliminated and
	// residual dynamic move cost); set only when Config.Coalescing is on and
	// biased assignment ran (fast path, rewrite on, not degraded).
	Coalesce *coalesce.Stats
	// Degraded, when non-nil, records that the run exceeded its budget and
	// fell down the degradation ladder; the outcome is correct but of lower
	// spill quality than the configured allocator would have produced.
	// Degraded outcomes must not be cached (the trip point depends on
	// wall-clock time).
	Degraded *Degradation
	// BudgetSpent is the work-step total charged against the budget
	// (0 when the run carried no budget).
	BudgetSpent int64
}

// Runner executes the pipeline repeatedly, reusing the analysis scratch
// memory (liveness bitsets, clique-structure transients, assignment and
// rewrite scratch, constraint-plan slices) across functions instead of
// reallocating it per call — the batch pipeline gives each worker one
// Runner. Outcomes never reference scratch memory, so they stay valid
// across subsequent Run calls; a Runner is not safe for concurrent use.
type Runner struct {
	live *liveness.Scratch
	cs   *cliques.Scratch
	ra   *regassign.Scratch
	// Cached default allocators: layered allocators reuse their own
	// internal scratch across calls, so the defaults are resolved once per
	// Runner rather than once per function.
	defaultChordal alloc.Allocator
	defaultGeneral alloc.Allocator
	// Reusable value-indexed flag slices: allocated and spilled values, and
	// the per-class include mask of a machine run.
	allocatedVals []bool
	spilledVals   []bool
	include       []bool
	// Reusable spill-cost vector (BuildProblem copies what it keeps, so
	// the buffer never escapes into an Outcome).
	costs []float64
	// Affinity-construction scratch for coalescing-biased assignment.
	bias coalesce.BiasScratch
	// Constraint-plan slices of machine runs.
	plan plan
}

// NewRunner returns a Runner with empty scratch.
func NewRunner() *Runner {
	return &Runner{
		live:           liveness.NewScratch(),
		cs:             cliques.NewScratch(),
		ra:             regassign.NewScratch(),
		defaultChordal: layered.BFPL(),
		defaultGeneral: layered.NewLH(),
	}
}

// Run executes the decoupled register-allocation pipeline on f, reusing the
// runner's scratch.
func (r *Runner) Run(f *ir.Func, cfg Config) (*Outcome, error) {
	return run(f, cfg, r, false)
}

// Run executes the decoupled register-allocation pipeline on f with fresh
// scratch.
func Run(f *ir.Func, cfg Config) (*Outcome, error) {
	return run(f, cfg, NewRunner(), false)
}

// driver is the state of one run: its inputs and what each stage leaves
// for the next.
type driver struct {
	f      *ir.Func
	cfg    Config
	runner *Runner
	m      *budget.Meter
	dom    *ir.Dominance
	info   *liveness.Info
	costs  []float64
	// Interference: the clique structure, or the explicit graph.
	cs    *cliques.Structure
	build *ifg.Build
	// file is the register file: one class of R registers for an
	// unconstrained run, the machine's classes otherwise; plan is nil on
	// an unconstrained run.
	file regassign.File
	plan *plan
}

// run is the one driver. A function goes through validate → admission →
// loops → liveness → costs → cliques → constraint plan → allocate per class
// → assign → verify → rewrite. An unconstrained run is the one-class
// machine: a single class of R registers, no pins and no clobbers, so it
// has no plan and its one class allocates on the full interference
// structure. Only unconstrained runs take the explicit-graph path (non-SSA
// functions, SSA functions cliques.Applicable rejects, or explicitGraph —
// the hook the fast-path differential test uses) and the linear-scan
// degradation rung.
func run(f *ir.Func, cfg Config, runner *Runner, explicitGraph bool) (*Outcome, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	d := driver{f: f, cfg: cfg, runner: runner, file: regassign.Flat(cfg.Registers)}
	cons := cfg.Constraints
	if cons != nil {
		d.file.Classed = true
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			d.file.Caps[c] = cons.Cap(c)
		}
	}
	var err error
	d.dom, err = f.ValidateAnalyzed()
	if err != nil {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "validate",
			Err: fmt.Errorf("invalid input function: %w", err)}
	}
	if cons != nil {
		if err := admitMachine(f, d.dom, cons); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain", Err: err}
		}
	}
	d.m = budget.NewMeter(cfg.Budget)
	if be := cfg.Budget.Admit(f.NumValues, len(f.Blocks)); be != nil {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAdmission, Err: be}
		}
		return d.spillAll(be)
	}
	f.ComputeLoops(d.dom)
	d.m.SetStage(raerr.StageLiveness)
	if d.info, err = runner.live.ComputeBudget(f, d.m); err != nil {
		d.info = nil // the floor reports no pressure without liveness
		return d.trip(raerr.StageLiveness, err)
	}
	runner.costs = spillcost.CostsInto(runner.costs, f, cfg.CostModel)
	d.costs = runner.costs

	// Interference analysis: clique structure straight from liveness for
	// strict SSA (the fast path; admitMachine already checked a machine
	// run's function), explicit graph otherwise.
	d.m.SetStage(raerr.StageCliques)
	if !explicitGraph && (cons != nil || cliques.Applicable(f, d.dom)) {
		if d.cs, err = cliques.DeriveBudget(d.info, d.dom, runner.cs, d.m); err != nil {
			return d.trip(raerr.StageCliques, err)
		}
	}
	switch {
	case d.cs != nil:
	case cons != nil:
		return nil, &raerr.FuncError{Func: f.Name, Stage: "constrain",
			Err: fmt.Errorf("%w: clique-structure derivation failed", raerr.ErrNotSSA)}
	default:
		// The explicit-graph build has no internal metering; the stage
		// boundary's forced clock check keeps a deadline honest here.
		if !d.m.CheckNow() {
			return d.trip(raerr.StageCliques, d.m.Err())
		}
		d.build = ifg.FromLiveness(d.info)
	}

	if cons != nil {
		d.planConstraints()
	}

	d.m.SetStage(raerr.StageAllocate)
	p, res, ferr := d.allocateClasses()
	if ferr != nil {
		return nil, ferr
	}
	// A metered allocator stopped at a charge boundary (its partial result
	// is valid but incomplete); an un-metered one is caught by the clock.
	if d.m.Exceeded() || !d.m.CheckNow() {
		if !cfg.Degrade {
			return nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAllocate, Err: d.m.Err()}
		}
		return d.linearScanRung(p)
	}
	out, ferr := d.finish(p, res, d.m, nil)
	if ferr != nil {
		if d.m.Exceeded() && cfg.Degrade {
			return d.linearScanRung(p)
		}
		return nil, ferr
	}
	out.BudgetSpent = d.m.Spent()
	return out, nil
}

// problem builds the allocation problem over the run's whole interference
// structure with r registers.
func (d *driver) problem(r int, cons *arch.Constraints) *alloc.Problem {
	if d.cs != nil {
		return alloc.BuildProblem(alloc.Spec{Cliques: d.cs, Costs: d.costs, R: r, Constraints: cons})
	}
	return alloc.BuildProblem(alloc.Spec{Build: d.build, Costs: d.costs, R: r, Dom: d.dom})
}

// intervals returns the linear-scan live intervals of p, a problem over
// the run's interference structure or over one class's subset of it. Only
// two readers need them, so only they pay for them: a configured allocator
// (the linear scans require them, and an allocator registered through
// regalloc.Register may read the public Problem's), set up in allocate,
// and the linear-scan rung.
func (d *driver) intervals(p *alloc.Problem) [][2]int {
	var vertexOf []int
	if p.Cliques != nil {
		vertexOf = p.Cliques.VertexOf
	} else {
		vertexOf = d.build.VertexOf
	}
	return linearscan.IntervalsFromLiveness(d.info, vertexOf, p.N())
}

// allocateClasses allocates every register class against its capacity.
// The one class of an unconstrained run allocates on the whole
// interference structure, and that problem and result are the outcome's. A
// machine's classes each allocate on the chordal subproblem their unforced
// values induce, solved by the same allocator; the results merge into the
// runner's allocated-value flags, and the returned problem is nil (finish
// builds the merged one). A budget trip returns early with no error; the
// caller sees it on the meter.
func (d *driver) allocateClasses() (*alloc.Problem, *alloc.Result, error) {
	if d.plan == nil {
		p := d.problem(d.cfg.Registers, nil)
		res, err := d.allocate(d.allocator(p.Chordal), p, ir.ClassGPR)
		return p, res, err
	}
	f, m, cs, r := d.f, d.m, d.cs, d.runner
	nv := f.NumValues
	a := d.allocator(true)
	r.allocatedVals = cleared(r.allocatedVals, nv)
	r.include = cleared(r.include, nv)
	merged := &alloc.Result{Allocator: a.Name()}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		if d.file.Caps[c] == 0 {
			continue // compat check: no value has this class
		}
		// One charge per class pass covers the include-mask sweep and the
		// subset derivation; the allocator itself charges per layer.
		if !m.Charge(nv) {
			return nil, merged, nil
		}
		any := false
		for v := range r.include {
			inc := cs.VertexOf[v] >= 0 && !d.plan.forced[v] && f.ClassOf(v) == c
			r.include[v] = inc
			any = any || inc
		}
		if !any {
			continue
		}
		sub := cliques.DeriveSubset(d.info, d.dom, r.include, r.cs)
		if sub == nil {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "constrain",
				Err: fmt.Errorf("%w: per-class clique derivation failed for %s", raerr.ErrNotSSA, c)}
		}
		p := alloc.BuildProblem(alloc.Spec{Cliques: sub, Costs: d.costs, R: d.file.Caps[c]})
		res, ferr := d.allocate(a, p, c)
		if ferr != nil {
			return nil, nil, ferr
		}
		for vx, al := range res.Allocated {
			if al {
				r.allocatedVals[sub.ValueOf[vx]] = true
			}
		}
	}
	return nil, merged, nil
}

// checkConfig validates the run configuration before any function work.
func checkConfig(cfg Config) error {
	if cfg.Registers < 1 {
		return fmt.Errorf("%w: Registers must be ≥ 1, got %d", raerr.ErrInvalidConfig, cfg.Registers)
	}
	if !cfg.TrustedCostModel {
		if err := cfg.CostModel.Validate(); err != nil {
			return fmt.Errorf("%w: invalid cost model: %w", raerr.ErrInvalidConfig, err)
		}
	}
	if !cfg.Coalescing.Valid() {
		return fmt.Errorf("%w: unknown coalescing policy %d", raerr.ErrInvalidConfig, cfg.Coalescing)
	}
	if cons := cfg.Constraints; cons != nil {
		if err := cons.Validate(); err != nil {
			return fmt.Errorf("%w: %w", raerr.ErrInvalidConfig, err)
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			if cons.Cap(c) > 64 {
				return fmt.Errorf("%w: class %s capacity %d exceeds the tree-scan's 64-register limit for machines",
					raerr.ErrInvalidConfig, c, cons.Cap(c))
			}
		}
	}
	return nil
}

// trip handles a budget trip at a stage before allocation: an error, or
// with Degrade the spill-all floor.
func (d *driver) trip(stage string, err error) (*Outcome, error) {
	if !d.cfg.Degrade {
		return nil, &raerr.FuncError{Func: d.f.Name, Stage: stage, Err: err}
	}
	return d.spillAll(d.m.BudgetErr())
}

// allocator resolves the configured allocator, or the default: BFPL on
// chordal problems, LH otherwise.
func (d *driver) allocator(chordal bool) alloc.Allocator {
	if d.cfg.Allocator != nil {
		return d.cfg.Allocator
	}
	if chordal {
		return d.runner.defaultChordal
	}
	return d.runner.defaultGeneral
}

// allocate runs a on p, the problem of register class c, under the run
// meter and checks the result.
func (d *driver) allocate(a alloc.Allocator, p *alloc.Problem, c ir.Class) (*alloc.Result, error) {
	f := d.f
	if !p.Chordal && alloc.ChordalOnly(a.Name()) {
		return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
			Err: fmt.Errorf("%w: allocator %s requires a chordal (strict-SSA) instance",
				raerr.ErrNotSSA, a.Name())}
	}
	if d.cfg.Allocator != nil {
		p.Intervals = d.intervals(p)
	}
	// Structural preconditions (chordality, intervals, option sanity) are
	// checked up front so a malformed problem surfaces as a typed error
	// instead of a panic from inside the algorithm.
	if c, ok := a.(alloc.ProblemChecker); ok {
		if err := c.CheckProblem(p); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate", Err: err}
		}
	}
	p.Meter = d.m
	res := a.Allocate(p)
	p.Meter = nil
	// A structurally malformed result (custom allocators) is a contract
	// violation, not a pressure failure — keep the taxonomy honest.
	if res == nil || len(res.Allocated) != p.N() {
		got := -1
		if res != nil {
			got = len(res.Allocated)
		}
		return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
			Err: fmt.Errorf("allocator %s returned a malformed result: %d of %d vertices covered",
				a.Name(), got, p.N())}
	}
	if err := p.Validate(res); err != nil {
		what := "allocation"
		if d.plan != nil {
			what = c.String() + " allocation"
		}
		return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
			Err: fmt.Errorf("%w: allocator %s returned an invalid %s: %w",
				raerr.ErrPressureUnsatisfiable, a.Name(), what, err)}
	}
	return res, nil
}

// finish assigns registers (unless the run skips the rewrite), assembles
// the Outcome of allocation res on problem p and inserts the spill code,
// charging meter (the run meter or a rung's). A machine run passes no
// problem and an empty res, filled here from the allocated-value flags
// after the assigner's force-spills. On failure the returned error is a
// ready-to-surface *raerr.FuncError; a budget trip is detectable on the
// meter itself.
func (d *driver) finish(p *alloc.Problem, res *alloc.Result, meter *budget.Meter, degraded *Degradation) (*Outcome, error) {
	f, cfg := d.f, d.cfg
	if d.plan != nil {
		// The outcome's problem spans every class; its allocation is the
		// per-class results merged, minus the assigner's force-spills.
		p = d.problem(cfg.Registers, cfg.Constraints)
	}
	rewrite := !cfg.SkipRewrite && f.SSA && p.Chordal
	if rewrite && d.plan == nil {
		d.runner.allocatedVals = cleared(d.runner.allocatedVals, f.NumValues)
		valueOf := d.valueOf()
		for vx, al := range res.Allocated {
			if al {
				d.runner.allocatedVals[valueOf[vx]] = true
			}
		}
	}
	allocatedVals := d.runner.allocatedVals
	var regOf []int
	var coal *coalesce.Stats
	if rewrite {
		meter.SetStage(raerr.StageAssign)
		var ferr error
		if regOf, coal, ferr = d.assign(allocatedVals, meter, degraded == nil); ferr != nil {
			return nil, ferr
		}
	}
	if d.plan != nil {
		res.Allocated = make([]bool, d.cs.N)
		for vx := range res.Allocated {
			res.Allocated[vx] = allocatedVals[d.cs.ValueOf[vx]]
		}
		if err := p.Validate(res); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "allocate",
				Err: fmt.Errorf("%w: merged constrained allocation invalid: %w",
					raerr.ErrPressureUnsatisfiable, err)}
		}
	}
	out := outcomeFrom(f, d.build, d.cs, p, res)
	out.Degraded = degraded
	if !rewrite {
		return out, nil
	}
	out.RegisterOf = regOf
	out.Coalesce = coal
	d.runner.spilledVals = cleared(d.runner.spilledVals, f.NumValues)
	spilledVals := d.runner.spilledVals
	for _, v := range out.SpilledValues {
		spilledVals[v] = true
	}
	out.Rewritten = regassign.InsertSpillCode(f, spilledVals)
	if len(out.SpilledValues) > 0 {
		// With no spills the rewrite is a plain clone of the function
		// validated above; re-validating it would just recompute
		// dominance for nothing.
		if err := out.Rewritten.Validate(); err != nil {
			return nil, &raerr.FuncError{Func: f.Name, Stage: "rewrite",
				Err: fmt.Errorf("spill-code rewrite broke the function: %w", err)}
		}
	}
	return out, nil
}

// valueOf is the vertex → value map of the run's interference structure.
func (d *driver) valueOf() []int {
	if d.cs != nil {
		return d.cs.ValueOf
	}
	return d.build.ValueOf
}

// assign runs the tree-scan on the allocated values, verifies the result,
// and reports the coalescing statistics when biased assignment ran. With
// bias false (degraded rungs) the scan is unbiased: a budget-tripped run
// should not buy move quality with extra analysis. Bias never changes the
// allocated set, so the spill decisions are untouched either way.
//
// A machine run may force-spill: pins and bans can leave a value with no
// admissible register even at legal pressure, so the value the scan got
// stuck on is spilled (always sound under spill-everywhere) and the scan
// retried, each attempt charging the value count. The one class of an
// unconstrained run never gets stuck at legal pressure; its scan charges
// per block instead.
func (d *driver) assign(allocatedVals []bool, meter *budget.Meter, bias bool) ([]int, *coalesce.Stats, error) {
	f, cfg := d.f, d.cfg
	biased := bias && cfg.Coalescing != coalesce.Off && d.cs != nil
	var rb *regassign.Bias
	var moves []coalesce.VMove
	var aff *coalesce.Affinity
	if biased {
		// φ/copy moves and affinity classes come straight from the function
		// and the clique structure — no IFG. A machine builds them per
		// register class against the class capacity (endpoints of different
		// classes can never share a register).
		moves = coalesce.MovesFromFunc(f, cfg.CostModel)
		if len(moves) > 0 {
			sc := &d.runner.bias
			if d.plan != nil {
				aff = coalesce.BuildAffinityConstrained(d.cs, f, moves, cfg.Coalescing, d.file.Caps, sc)
			} else {
				aff = coalesce.BuildAffinity(d.cs, moves, cfg.Coalescing, cfg.Registers, sc)
			}
			if aff != nil {
				rb = regassign.NewBias(aff.ClassOf, aff.NumClasses)
			}
		}
	}
	scanMeter := meter
	if d.plan != nil {
		scanMeter = nil
	}
	nv := f.NumValues
	var regOf []int
	for tries := 0; ; tries++ {
		if d.plan != nil && !meter.Charge(nv) {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAssign, Err: meter.Err()}
		}
		r, failVal, err := regassign.TreeScan(f, d.dom, d.info, allocatedVals, d.file, d.runner.ra, scanMeter, rb)
		if err == nil {
			regOf = r
			break
		}
		if meter.Exceeded() {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: raerr.StageAssign, Err: err}
		}
		if d.plan == nil {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
				Err: fmt.Errorf("%w: assignment after allocation failed: %w",
					raerr.ErrPressureUnsatisfiable, err)}
		}
		if rb != nil {
			// Bias must never cost a spill: pin collisions can make a
			// hint-following scan fail where the lowest-admissible one
			// succeeds, so the first failed biased attempt retries
			// unbiased — before any force-spill — keeping the spill set
			// identical to the unbiased pipeline's.
			rb = nil
			continue
		}
		if failVal < 0 || failVal >= nv || !allocatedVals[failVal] || tries >= nv {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
				Err: fmt.Errorf("%w: constrained assignment failed: %w",
					raerr.ErrPressureUnsatisfiable, err)}
		}
		allocatedVals[failVal] = false
	}
	if err := regassign.VerifyAssignment(d.info, allocatedVals, regOf); err != nil {
		return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "assign",
			Err: fmt.Errorf("assignment verification failed: %w", err)}
	}
	if d.plan != nil {
		if err := d.plan.verify(f, allocatedVals, regOf, d.file.Caps); err != nil {
			return nil, nil, &raerr.FuncError{Func: f.Name, Stage: "assign", Err: err}
		}
	}
	var stats *coalesce.Stats
	if biased {
		stats = coalesce.StatsFor(cfg.Coalescing, moves, regOf, aff)
	}
	return regOf, stats, nil
}

// outcomeFrom assembles the Outcome of allocation res on problem p:
// vertex maps, spilled-value list, spill cost and pressure.
func outcomeFrom(f *ir.Func, build *ifg.Build, cs *cliques.Structure, p *alloc.Problem, res *alloc.Result) *Outcome {
	out := &Outcome{
		F:         f,
		Build:     build,
		Cliques:   cs,
		Problem:   p,
		Result:    res,
		SpillCost: res.SpillCost(p),
	}
	if cs != nil {
		out.VertexOf, out.ValueOf = cs.VertexOf, cs.ValueOf
		out.MaxLive = cs.MaxLive
	} else {
		out.VertexOf, out.ValueOf = build.VertexOf, build.ValueOf
		out.MaxLive = build.MaxLive
	}
	spilledCount := 0
	for _, al := range res.Allocated {
		if !al {
			spilledCount++
		}
	}
	if spilledCount > 0 {
		// ValueOf ascends with the vertex ID, so this list is born sorted.
		out.SpilledValues = make([]int, 0, spilledCount)
		for vx, al := range res.Allocated {
			if !al {
				out.SpilledValues = append(out.SpilledValues, out.ValueOf[vx])
			}
		}
	}
	return out
}

// linearScanRung is the middle rung of the degradation ladder: the
// configured allocator ran out of budget during allocation or assignment,
// so the allocation is redone by the DLS linear scan under a fresh, small
// step allowance (the scan is O(n log n); the allowance only matters when
// the shared wall-clock deadline is already near). Only unconstrained runs
// get it — the interval scan is blind to pins and clobbers, so a machine
// run falls straight to the floor. Any failure inside the rung — an
// invalid result, an assignment trip — falls through to the spill-all
// floor.
func (d *driver) linearScanRung(p *alloc.Problem) (*Outcome, error) {
	m := d.m
	trip := m.BudgetErr()
	if d.plan != nil {
		return d.spillAll(trip)
	}
	if p.Intervals == nil {
		p.Intervals = d.intervals(p)
	}
	rm := m.Rung(32*int64(p.N()) + 1024)
	rm.SetStage(raerr.StageAllocate)
	p.Meter = rm
	res := linearscan.DLS().Allocate(p)
	p.Meter = nil
	if err := p.Validate(res); err != nil {
		m.AddSpent(rm.Spent())
		return d.spillAll(trip)
	}
	out, ferr := d.finish(p, res, rm, &Degradation{Rung: RungLinearScan, Stage: trip.Stage, Reason: trip})
	m.AddSpent(rm.Spent())
	if ferr != nil {
		return d.spillAll(trip)
	}
	out.BudgetSpent = m.Spent()
	return out, nil
}

// spillAll is the floor of the degradation ladder: every value occurring in
// reachable code is spilled. It needs no liveness, no interference
// structure and no assignment — O(V) work — so it succeeds under any
// budget; the trip that forced the fall is recorded in Degraded. MaxLive is
// reported as 0 when the trip came before liveness existed.
func (d *driver) spillAll(trip *raerr.BudgetError) (*Outcome, error) {
	f, cfg, dom := d.f, d.cfg, d.dom
	nv := f.NumValues
	occurs := make([]bool, nv)
	mark := func(v int) {
		if v >= 0 && v < nv {
			occurs[v] = true
		}
	}
	for _, b := range f.Blocks {
		if dom.Order[b.ID] < 0 {
			continue // unreachable code contributes no problem values
		}
		for _, ins := range b.Instrs {
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				mark(ins.Def)
			}
			for _, u := range ins.Uses {
				mark(u)
			}
		}
	}
	// Dense vertex numbering ascending by value ID — the same ordering the
	// analysis paths use, so vertex↔value maps stay interchangeable.
	vertexOf := make([]int, nv)
	for i := range vertexOf {
		vertexOf[i] = -1
	}
	valueOf := make([]int, 0, nv)
	for v := 0; v < nv; v++ {
		if occurs[v] {
			vertexOf[v] = len(valueOf)
			valueOf = append(valueOf, v)
		}
	}
	f.ComputeLoops(dom)
	costs := spillcost.Costs(f, cfg.CostModel)
	w := make([]float64, len(valueOf))
	for vx, val := range valueOf {
		w[vx] = costs[val]
	}
	// A literal Problem: no live sets means Validate is trivially satisfied,
	// which is exact — with nothing allocated, no pressure constraint can
	// bind.
	p := &alloc.Problem{R: cfg.Registers, Weight: w, Name: f.Name}
	res := &alloc.Result{Allocated: make([]bool, len(valueOf)), Allocator: "spill-all"}
	out := &Outcome{
		F:             f,
		Problem:       p,
		Result:        res,
		VertexOf:      vertexOf,
		ValueOf:       valueOf,
		SpilledValues: append([]int(nil), valueOf...),
		SpillCost:     res.SpillCost(p),
	}
	if d.info != nil {
		out.MaxLive = d.info.MaxLive
	}
	if trip != nil {
		out.Degraded = &Degradation{Rung: RungSpillAll, Stage: trip.Stage, Reason: trip}
	}
	if !cfg.SkipRewrite && f.SSA {
		regOf := make([]int, nv)
		for i := range regOf {
			regOf[i] = regassign.NoReg
		}
		out.RegisterOf = regOf
		out.Rewritten = regassign.InsertSpillCode(f, occurs)
		if len(valueOf) > 0 {
			if err := out.Rewritten.Validate(); err != nil {
				return nil, &raerr.FuncError{Func: f.Name, Stage: "rewrite",
					Err: fmt.Errorf("spill-all rewrite broke the function: %w", err)}
			}
		}
	}
	out.BudgetSpent = d.m.Spent()
	return out, nil
}

// The paper's allocators, registered once at init into the shared registry
// (internal/alloc); the public regalloc.Register adds external ones to the
// same table. NL/BL/FPL/BFPL are chordal-only: they require a strict-SSA
// (chordal) instance and the pipeline rejects them on anything else with a
// typed raerr.ErrNotSSA.
func init() {
	alloc.MustRegisterAllocator("NL", true, func() alloc.Allocator { return layered.NL() })
	alloc.MustRegisterAllocator("BL", true, func() alloc.Allocator { return layered.BL() })
	alloc.MustRegisterAllocator("FPL", true, func() alloc.Allocator { return layered.FPL() })
	alloc.MustRegisterAllocator("BFPL", true, func() alloc.Allocator { return layered.BFPL() })
	alloc.MustRegisterAllocator("LH", false, func() alloc.Allocator { return layered.NewLH() })
	alloc.MustRegisterAllocator("GC", false, func() alloc.Allocator { return chaitin.New() })
	alloc.MustRegisterAllocator("DLS", false, func() alloc.Allocator { return linearscan.DLS() })
	alloc.MustRegisterAllocator("BLS", false, func() alloc.Allocator { return linearscan.BLS() })
	alloc.MustRegisterAllocator("Optimal", false, func() alloc.Allocator { return optimal.New() })
}

// AllocatorByName resolves a registered allocator name (case-insensitive) to
// a fresh instance: the paper's NL, BL, FPL, BFPL, LH, GC, DLS, BLS and
// Optimal, plus anything added through the registry. Unknown names fail with
// raerr.ErrUnknownAllocator.
func AllocatorByName(name string) (alloc.Allocator, error) {
	return alloc.NewByName(name)
}

// AllocatorNames lists the registered allocator names, sorted.
func AllocatorNames() []string {
	return alloc.RegisteredNames()
}
