package main

import (
	"fmt"

	"repro/internal/alloc"
	"repro/internal/alloc/layered"
	"repro/internal/alloc/linearscan"
	"repro/internal/arch"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/core"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/regassign"
	"repro/internal/spillcost"
	"repro/regalloc"
)

// The layers the traced run splits a function's allocation into, named
// after the package and the exported calls the replay times.
var layers = []string{
	"ir.validate",       // ir.(*Func).ValidateAnalyzed
	"ir.loops",          // ir.(*Func).ComputeLoops
	"liveness",          // liveness.(*Scratch).Compute
	"spillcost",         // spillcost.CostsInto
	"cliques",           // cliques.Applicable + cliques.Derive (strict SSA)
	"ifg",               // ifg.FromLiveness (everything else)
	"alloc.problem",     // alloc.BuildProblem + intervals
	"alloc.allocate",    // Allocator.Allocate (BFPL or LH)
	"alloc.check",       // ProblemChecker.CheckProblem + Problem.Validate
	"regassign.assign",  // regassign.AssignWith + VerifyAssignment
	"regassign.rewrite", // regassign.InsertSpillCode + Validate
	"coalesce.bias",     // coalesce.MovesFromFunc + BuildAffinityConstrained
}

// rootSpan is the span around one function's replay; its self time is the
// time no layer span covers.
const rootSpan = "func"

// replayer re-runs the steps of core's unconstrained pipeline (core.run)
// one exported call at a time, in the same order and with the same scratch
// reuse, so the tracer can time each layer from outside.
type replayer struct {
	r        int
	model    spillcost.Model
	tr       *tracer
	live     *liveness.Scratch
	cs       *cliques.Scratch
	ra       *regassign.Scratch
	costs    []float64
	chordal  alloc.Allocator
	general  alloc.Allocator
	allocVal []bool
	spillVal []bool
}

func newReplayer(r int, tr *tracer) *replayer {
	return &replayer{
		r:       r,
		model:   regalloc.DefaultCostModel,
		tr:      tr,
		live:    liveness.NewScratch(),
		cs:      cliques.NewScratch(),
		ra:      regassign.NewScratch(),
		chordal: layered.BFPL(),
		general: layered.NewLH(),
	}
}

// replayed is what a replay produced for one function.
type replayed struct {
	spilled []int
	regOf   []int
}

// run replays core's unconstrained pipeline on f.
func (rp *replayer) run(f *ir.Func) (*replayed, error) {
	t := rp.tr
	t.nextOp()
	t.begin(rootSpan)
	defer t.end()

	t.begin("ir.validate")
	dom, err := f.ValidateAnalyzed()
	t.end()
	if err != nil {
		return nil, fmt.Errorf("%s: validate: %w", f.Name, err)
	}
	t.begin("ir.loops")
	f.ComputeLoops(dom)
	t.end()
	t.begin("liveness")
	info := rp.live.Compute(f)
	t.end()
	t.begin("spillcost")
	rp.costs = spillcost.CostsInto(rp.costs, f, rp.model)
	t.end()

	var p *alloc.Problem
	var valueOf []int
	t.begin("cliques")
	var cs *cliques.Structure
	if cliques.Applicable(f, dom) {
		cs = cliques.Derive(info, dom, rp.cs)
	}
	t.end()
	if cs != nil {
		t.begin("alloc.problem")
		p = alloc.BuildProblem(alloc.Spec{Cliques: cs, Costs: rp.costs, R: rp.r})
		p.Intervals = linearscan.IntervalsFromLiveness(info, cs.VertexOf, cs.N)
		t.end()
		valueOf = cs.ValueOf
	} else {
		t.begin("ifg")
		build := ifg.FromLiveness(info)
		t.end()
		t.begin("alloc.problem")
		p = alloc.BuildProblem(alloc.Spec{Build: build, Costs: rp.costs, R: rp.r, Dom: dom})
		p.Intervals = linearscan.BuildIntervals(info, build)
		t.end()
		valueOf = build.ValueOf
	}

	a := rp.general
	if p.Chordal {
		a = rp.chordal
	}
	if c, ok := a.(alloc.ProblemChecker); ok {
		t.begin("alloc.check")
		err := c.CheckProblem(p)
		t.end()
		if err != nil {
			return nil, fmt.Errorf("%s: check problem: %w", f.Name, err)
		}
	}
	t.begin("alloc.allocate")
	res := a.Allocate(p)
	t.end()
	t.begin("alloc.check")
	err = p.Validate(res)
	t.end()
	if err != nil {
		return nil, fmt.Errorf("%s: invalid allocation: %w", f.Name, err)
	}

	out := &replayed{}
	for vx, al := range res.Allocated {
		if !al {
			out.spilled = append(out.spilled, valueOf[vx])
		}
	}
	if !f.SSA || !p.Chordal {
		return out, nil
	}

	t.begin("regassign.assign")
	rp.allocVal = clearedFlags(rp.allocVal, f.NumValues)
	for vx, al := range res.Allocated {
		if al {
			rp.allocVal[valueOf[vx]] = true
		}
	}
	regOf, err := regassign.AssignWith(f, dom, info, rp.allocVal, rp.r, rp.ra)
	if err == nil {
		err = regassign.VerifyAssignment(info, rp.allocVal, regOf)
	}
	t.end()
	if err != nil {
		return nil, fmt.Errorf("%s: assign: %w", f.Name, err)
	}
	out.regOf = regOf

	t.begin("regassign.rewrite")
	err = rp.rewrite(f, out.spilled)
	t.end()
	return out, err
}

// rewrite inserts the spill code and validates the result, as core.run
// does (a spill-free rewrite is a plain clone core.run does not
// re-validate).
func (rp *replayer) rewrite(f *ir.Func, spilled []int) error {
	rp.spillVal = clearedFlags(rp.spillVal, f.NumValues)
	for _, v := range spilled {
		rp.spillVal[v] = true
	}
	rw := regassign.InsertSpillCode(f, rp.spillVal)
	if len(spilled) > 0 {
		if err := rw.Validate(); err != nil {
			return fmt.Errorf("%s: rewrite: %w", f.Name, err)
		}
	}
	return nil
}

// constrainedReplayer times the machine-constrained pipeline. Its pin,
// forbid-mask and per-class steps are not exported, so it replays the
// exported stages it shares with the unconstrained path, then times
// the whole core.Runner.Run call as the core.constrained span; that layer's
// own cost is the call's minus the replayed stages' (see constrainedSelf).
type constrainedReplayer struct {
	*replayer
	runner *core.Runner
	cfg    core.Config
	caps   [ir.NumClasses]int
	bias   coalesce.BiasScratch
}

// constrainedStages are the layers the constrained replay times outside the
// core.Runner.Run call.
var constrainedStages = []string{"ir.validate", "ir.loops", "liveness", "spillcost", "cliques", "coalesce.bias", "regassign.rewrite"}

func newConstrainedReplayer(r int, cons *arch.Constraints, policy coalesce.Policy, tr *tracer) *constrainedReplayer {
	rp := &constrainedReplayer{
		replayer: newReplayer(r, tr),
		runner:   core.NewRunner(),
		cfg: core.Config{
			Registers:        r,
			CostModel:        regalloc.DefaultCostModel,
			Constraints:      cons,
			Coalescing:       policy,
			TrustedCostModel: true,
		},
	}
	for c := ir.Class(0); c < ir.NumClasses; c++ {
		rp.caps[c] = cons.Cap(c)
	}
	return rp
}

func (rp *constrainedReplayer) run(f *ir.Func) (*replayed, error) {
	t := rp.tr
	t.nextOp()
	t.begin(rootSpan)
	defer t.end()

	t.begin("ir.validate")
	dom, err := f.ValidateAnalyzed()
	t.end()
	if err != nil {
		return nil, fmt.Errorf("%s: validate: %w", f.Name, err)
	}
	t.begin("ir.loops")
	f.ComputeLoops(dom)
	t.end()
	t.begin("liveness")
	info := rp.live.Compute(f)
	t.end()
	t.begin("spillcost")
	rp.costs = spillcost.CostsInto(rp.costs, f, rp.model)
	t.end()
	t.begin("cliques")
	cs := cliques.Derive(info, dom, rp.cs)
	t.end()
	if cs == nil {
		return nil, fmt.Errorf("%s: no clique structure", f.Name)
	}
	t.begin("coalesce.bias")
	if moves := coalesce.MovesFromFunc(f, rp.model); len(moves) > 0 {
		coalesce.BuildAffinityConstrained(cs, f, moves, rp.cfg.Coalescing, rp.caps, &rp.bias)
	}
	t.end()

	t.begin("core.constrained")
	o, err := rp.runner.Run(f, rp.cfg)
	t.end()
	if err != nil {
		return nil, err
	}
	t.begin("regassign.rewrite")
	err = rp.rewrite(f, o.SpilledValues)
	t.end()
	if err != nil {
		return nil, err
	}
	return &replayed{spilled: o.SpilledValues, regOf: o.RegisterOf}, nil
}

// constrainedSelf is the constrained pipeline's own cost: the core.constrained
// spans minus the stages replayed beside them, which the pipeline also runs.
func constrainedSelf(t *tracer) layerStat {
	d := t.stat("core.constrained")
	for _, name := range constrainedStages {
		st := t.stat(name)
		d.selfNS -= st.selfNS
		d.allocs -= st.allocs
		d.bytes -= st.bytes
	}
	return d
}

func clearedFlags(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	clear(s)
	return s
}
