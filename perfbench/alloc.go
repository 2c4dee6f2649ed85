package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"repro/internal/arch"
	"repro/internal/coalesce"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/regalloc"
	"repro/regalloc/workload"
)

// setupReps is how often a run sets its workload up from scratch; setup_s
// is the median.
const setupReps = 5

// moduleBatches is how many 800-function modules a module workload cycles
// through: one module's cost varies by about a tenth from seed to seed, and
// cycling through several keeps the run's figures close across seeds.
const moduleBatches = 8

// allocSpec describes one closed-loop allocation workload: one client calls
// the engine, and each op starts when the previous one ends. Op i works on
// batch i mod len(batches).
type allocSpec struct {
	name string
	// gen builds the workload's batches from the seed.
	gen func(seed int64) [][]*ir.Func
	// module: an op is Engine.AllocateModule over a batch; otherwise an op
	// is Engine.AllocateFunc on a batch's single function.
	module bool
	r      int
	jobs   int
	// cons and policy configure machine-constrained allocation; nil and
	// coalesce.Off for the unconstrained workloads.
	cons   *arch.Constraints
	policy coalesce.Policy
	// probeInBlocks: probe in blocks of probeBlockLen before every
	// opsPerBlock ops and after the last, each block followed by one
	// unmeasured op, instead of once after every op. The engine keeps a
	// worker's scratch in a sync.Pool, whose per-P private slot the other P
	// cannot take from. A pause between two ops lets the scheduler move the
	// benchmark's goroutine to the other P, and the next op then builds its
	// scratch afresh; on giant that is 100–370 MB, so a probe after every
	// op made its op time and bytes per op jump between modes.
	probeInBlocks bool
}

// module-batch models batch compile traffic: modules of 800 generated
// functions, about half strict SSA (the IFG-free clique path, BFPL) and half
// not (the interference-graph path, LH — the only workload that runs ifg
// and LH). Analysis, allocation and the spill rewriter do all the work; the
// outcome cache and the server do none.
func runModuleBatch(cfg runConfig) (*report, error) {
	return runAlloc(allocSpec{
		name: "module-batch",
		gen: func(seed int64) [][]*ir.Func {
			batches := make([][]*ir.Func, moduleBatches)
			for k := range batches {
				batches[k] = workload.GenerateModule(seed*moduleBatches+int64(k), 800).Funcs
			}
			return batches
		},
		module: true,
		r:      4,
		jobs:   2,
	}, cfg)
}

// giant stresses how the analyses scale: one strict-SSA function of 10^5
// values, where liveness and clique derivation dominate and the rewriter,
// the worker pool and the cache hardly matter.
func runGiant(cfg runConfig) (*report, error) {
	return runAlloc(allocSpec{
		name:          "giant",
		gen:           func(seed int64) [][]*ir.Func { return [][]*ir.Func{{genGiant(seed, 100_000)}} },
		r:             8,
		jobs:          1,
		probeInBlocks: true,
	}, cfg)
}

func genGiant(seed int64, values int) *ir.Func {
	return workload.GenGiant("giant", seed, values, values/200+1)
}

// module-machine exercises the machine-constrained pipeline: modules of 800
// functions annotated for armv7 (register classes, ABI pins, call clobbers)
// at R=8 with aggressive coalescing bias — per-class allocation, the
// constrained assigner and coalesce's affinity classes, none of which run
// in module-batch.
func runModuleMachine(cfg runConfig) (*report, error) {
	const r = 8
	m, err := arch.ByName("armv7")
	if err != nil {
		return nil, err
	}
	cons := m.Constraints(r)
	return runAlloc(allocSpec{
		name: "module-machine",
		gen: func(seed int64) [][]*ir.Func {
			batches := make([][]*ir.Func, moduleBatches)
			for k := range batches {
				base := (seed*moduleBatches + int64(k)) * 1_000_003
				batches[k] = make([]*ir.Func, 800)
				for i := range batches[k] {
					batches[k][i] = irgen.ConstrainedFromSeed(base+int64(i), cons)
				}
			}
			return batches
		},
		module: true,
		r:      r,
		jobs:   2,
		cons:   cons,
		policy: coalesce.Aggressive,
	}, cfg)
}

func (s allocSpec) engine(jobs int) (*regalloc.Engine, error) {
	opts := []regalloc.Option{regalloc.WithRegisters(s.r), regalloc.WithJobs(jobs)}
	if s.cons != nil {
		opts = append(opts, regalloc.WithConstraints(s.cons))
	}
	if s.policy != coalesce.Off {
		opts = append(opts, regalloc.WithCoalescing(s.policy))
	}
	return regalloc.New(opts...)
}

// op runs one op on a batch and returns each function's outcome or error.
func (s allocSpec) op(eng *regalloc.Engine, funcs []*ir.Func) ([]*regalloc.Outcome, []error) {
	outs := make([]*regalloc.Outcome, len(funcs))
	errs := make([]error, len(funcs))
	if !s.module {
		outs[0], errs[0] = eng.AllocateFunc(context.Background(), funcs[0])
		return outs, errs
	}
	res, err := eng.AllocateModule(context.Background(), &ir.Module{Funcs: funcs})
	for i := range funcs {
		if res == nil {
			errs[i] = err
			continue
		}
		outs[i], errs[i] = res[i].Outcome, res[i].Err
	}
	return outs, errs
}

// allocRun is a set-up allocation workload: its batches, its engine and
// what it keeps of each batch's first outputs. It keeps only that much, so
// the measured loop runs on a heap about the size a caller's would be.
type allocRun struct {
	spec    allocSpec
	batches [][]*ir.Func
	funcs   int
	eng     *regalloc.Engine
	ref     [][]output
	probe   *speedProbe
}

// setup builds the workload setupReps times — generate the batches, build
// the engine, run the first (cold) op — and returns the median set-up CPU
// time, each scaled by the probes just before and after it (probe.go).
// The last set-up is kept: after the clock stops, every other batch runs
// once too, each output is checked independently, and the outputs are
// reduced to what later ops are compared with.
func setup(s allocSpec, seed int64, rep *report) (*allocRun, float64, error) {
	var times []float64
	var run *allocRun
	var first []*regalloc.Outcome
	probe := newSpeedProbe()
	for i := 0; i < setupReps; i++ {
		run, first = nil, nil
		runtime.GC()
		probes := probe.block(setupProbes)
		c0 := processCPU()
		batches := s.gen(seed)
		eng, err := s.engine(s.jobs)
		if err != nil {
			return nil, 0, err
		}
		var errs []error
		first, errs = s.op(eng, batches[0])
		cpu := processCPU() - c0
		probes = append(probes, probe.block(setupProbes)...)
		times = append(times, cpu*probeNominalS/median(probes))
		if err := errors.Join(errs...); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		run = &allocRun{spec: s, batches: batches, eng: eng, probe: probe}
	}
	for k, b := range run.batches {
		outs, errs := first, []error(nil)
		if k > 0 {
			outs, errs = s.op(run.eng, b)
		}
		if err := errors.Join(errs...); err != nil {
			return nil, 0, fmt.Errorf("%s: %w", s.name, err)
		}
		ref := make([]output, len(b))
		for i, f := range b {
			if err := checkOutcome(f, outs[i], s.r, s.cons); err != nil {
				rep.fail(1, "%v", err)
			}
			ref[i] = keep(f, outs[i])
		}
		run.ref = append(run.ref, ref)
		run.funcs += len(b)
	}
	return run, median(times), nil
}

// sum adds up a quantity over every reference output.
func (a *allocRun) sum(fn func(output) float64) float64 {
	t := 0.0
	for _, ref := range a.ref {
		for _, o := range ref {
			t += fn(o)
		}
	}
	return t
}

// loopResult is what a closed loop measured, by batch: each op's wall
// time, CPU time and scaled CPU time in seconds and its exact heap
// allocations; and the probes, one after each op, in the order they ran.
type loopResult struct {
	lat    [][]float64
	cpu    [][]float64
	scaled [][]float64
	alloc  [][]heapCounts
	probes []float64
}

// closedLoop cycles through the batches until d has passed (at least one
// cycle). Every op's allocations are counted and its outputs compared with
// the reference outside the timed region, and a speed probe follows it
// (or, with probeInBlocks, probe blocks run between groups of ops).
func (a *allocRun) closedLoop(eng *regalloc.Engine, d time.Duration, rep *report) loopResult {
	n := len(a.batches)
	res := loopResult{lat: make([][]float64, n), cpu: make([][]float64, n), scaled: make([][]float64, n), alloc: make([][]heapCounts, n)}
	var order []int // the batch of each op, in the order they ran
	deadline := time.Now().Add(d)
	for cycle := 0; cycle == 0 || time.Now().Before(deadline); cycle++ {
		for k, b := range a.batches {
			if a.spec.probeInBlocks && len(order)%opsPerBlock == 0 {
				res.probes = append(res.probes, a.probe.block(probeBlockLen)...)
				// Regains the engine's pooled worker; not measured.
				outs, errs := a.spec.op(eng, b)
				a.check(k, outs, errs, rep)
			}
			h0 := readHeap()
			c0 := processCPU()
			t0 := time.Now()
			outs, errs := a.spec.op(eng, b)
			res.lat[k] = append(res.lat[k], time.Since(t0).Seconds())
			res.cpu[k] = append(res.cpu[k], processCPU()-c0)
			res.alloc[k] = append(res.alloc[k], readHeap().sub(h0))
			if !a.spec.probeInBlocks {
				res.probes = append(res.probes, a.probe.run())
			}
			order = append(order, k)
			a.check(k, outs, errs, rep)
		}
	}
	if a.spec.probeInBlocks {
		res.probes = append(res.probes, a.probe.block(probeBlockLen)...)
	}
	for j, k := range order {
		f := scaleFactor(res.probes, j)
		if a.spec.probeInBlocks {
			// the blocks before and after the op's group
			m := j / opsPerBlock * probeBlockLen
			f = probeNominalS / median(res.probes[m:m+2*probeBlockLen])
		}
		i := len(res.scaled[k])
		res.scaled[k] = append(res.scaled[k], res.cpu[k][i]*f)
	}
	return res
}

// check compares an op's outputs on batch k with the reference.
func (a *allocRun) check(k int, outs []*regalloc.Outcome, errs []error, rep *report) {
	b := a.batches[k]
	rep.attempted += len(b)
	for i := range outs {
		switch {
		case errs[i] != nil:
			rep.fail(1, "%s: %v", b[i].Name, errs[i])
		case !a.ref[k][i].same(outs[i]):
			rep.fail(1, "%s: output differs from the first op's", b[i].Name)
		}
	}
}

// With probeInBlocks, a block of probeBlockLen probes runs before every
// opsPerBlock measured ops.
const (
	probeBlockLen = 5
	opsPerBlock   = 3
)

// merge appends o's ops to l's, batch by batch.
func (l loopResult) merge(o loopResult) loopResult {
	if l.lat == nil {
		return o
	}
	for k := range l.lat {
		l.lat[k] = append(l.lat[k], o.lat[k]...)
		l.cpu[k] = append(l.cpu[k], o.cpu[k]...)
		l.scaled[k] = append(l.scaled[k], o.scaled[k]...)
		l.alloc[k] = append(l.alloc[k], o.alloc[k]...)
	}
	l.probes = append(l.probes, o.probes...)
	return l
}

// counts is the allocation count of one cycle: each batch at its median
// op. It reports each batch whose ops did not all allocate the same.
func (a *allocRun) counts(l loopResult, rep *report) (objects, bytes float64) {
	for k, ops := range l.alloc {
		var o, b []float64
		for _, h := range ops {
			o = append(o, float64(h.objects))
			b = append(b, float64(h.bytes))
		}
		objects += median(o)
		bytes += median(b)
		if slices.Min(o) != slices.Max(o) || slices.Min(b) != slices.Max(b) {
			rep.notef("count drift in batch %d over %d ops: objects %.0f..%.0f, bytes %.0f..%.0f",
				k, len(ops), slices.Min(o), slices.Max(o), slices.Min(b), slices.Max(b))
		}
	}
	return objects, bytes
}

// rate is the throughput of a closed loop per second of op time (times
// holds l.scaled, l.cpu or l.lat): every function once, each batch at its
// median op.
func (a *allocRun) rate(times [][]float64) float64 {
	total := 0.0
	for _, t := range times {
		total += median(t)
	}
	return float64(a.funcs) / total
}

// replayer returns the traced replay of the workload's pipeline.
func (a *allocRun) replayer(t *tracer) func(*ir.Func) (*replayed, error) {
	if a.spec.cons != nil {
		return newConstrainedReplayer(a.spec.r, a.spec.cons, a.spec.policy, t).run
	}
	return newReplayer(a.spec.r, t).run
}

func runAlloc(s allocSpec, cfg runConfig) (*report, error) {
	rep := newReport()
	a, setupS, err := setup(s, cfg.seed, rep)
	if err != nil {
		return nil, err
	}
	if cfg.traced {
		return rep, a.traced(cfg, rep)
	}

	loop := a.closedLoop(a.eng, cfg.duration, rep)
	rss := maxRSSMB()
	objects, bytes := a.counts(loop, rep)
	var scaled, cpu, wall []float64
	for k := range loop.scaled {
		scaled = append(scaled, loop.scaled[k]...)
		cpu = append(cpu, loop.cpu[k]...)
		wall = append(wall, loop.lat[k]...)
	}
	tl, pct := tail(scaled)
	n := float64(a.funcs)
	rep.notef("%d ops over %d batches of %d functions; tail = p%.2f (%.0f ops beyond it)",
		len(scaled), len(a.batches), len(a.batches[0]), pct, float64(len(scaled))*(1-pct/100))
	rep.notef("allocations per cycle of %d functions: %.0f objects, %.0f bytes", a.funcs, objects, bytes)
	wt, _ := tail(wall)
	rep.notef("not gated: unscaled CPU %.0f funcs/s, op p50 %.3f ms; wall clock %.0f funcs/s, op p50 %.3f ms, tail %.3f ms; probe median %.3f ms",
		a.rate(loop.cpu), median(cpu)*1e3, a.rate(loop.lat), median(wall)*1e3, wt*1e3, median(loop.probes)*1e3)
	rep.metrics["setup_s"] = setupS
	rep.metrics["funcs_per_cpu_s"] = a.rate(loop.scaled)
	rep.metrics["op_cpu_p50_ms"] = median(scaled) * 1e3
	rep.metrics["op_cpu_tail_ms"] = tl * 1e3
	rep.metrics["allocs_per_func"] = objects / n
	rep.metrics["bytes_per_func"] = bytes / n
	rep.metrics["max_rss_mb"] = rss
	var spill spillMean
	for _, ref := range a.ref {
		for _, o := range ref {
			spill.add(o.spillCost, o.weight)
		}
	}
	rep.metrics["spill_cost"] = spill.value()
	return rep, nil
}

// traced is the per-layer run: untraced rates at jobs=1 and at the
// workload's own job count, then the traced replay at jobs=1 (timing pass,
// then an exact allocation-counting pass), each function's replay checked
// against the engine's output.
func (a *allocRun) traced(cfg runConfig, rep *report) error {
	quarter := cfg.duration / 4
	eng1, err := a.spec.engine(1)
	if err != nil {
		return err
	}
	// Alternate the two untraced job counts so drift in the machine's
	// speed hits both alike.
	var loop1, loopJ loopResult
	w := watchRuntime()
	for i := 0; i < 2; i++ {
		loop1 = loop1.merge(a.closedLoop(eng1, quarter/2, rep))
		loopJ = loopJ.merge(a.closedLoop(a.eng, quarter/2, rep))
	}
	gcFrac, heapPeak := w.finish()
	rate1, rateJ := a.rate(loop1.lat), a.rate(loopJ.lat)

	// The replay with its spans, and without them, in turn.
	timing := newTracer(modeTiming)
	replay, plain := a.replayer(timing), a.replayer(newTracer(modeOff))
	var tracedS, plainS []float64
	replayed := 0
	deadline := time.Now().Add(2 * quarter)
	for pass := 0; pass == 0 || time.Now().Before(deadline); pass++ {
		t0 := time.Now()
		for _, b := range a.batches {
			for _, f := range b {
				if _, err := plain(f); err != nil {
					return err
				}
			}
		}
		plainS = append(plainS, time.Since(t0).Seconds())
		t0 = time.Now()
		for k, b := range a.batches {
			for i, f := range b {
				out, err := replay(f)
				rep.attempted++
				replayed++
				switch {
				case err != nil:
					rep.fail(1, "replay: %v", err)
				case pass == 0 && !a.ref[k][i].matches(out.spilled, out.regOf):
					rep.fail(1, "%s: replay differs from the engine's output", f.Name)
				}
			}
		}
		tracedS = append(tracedS, time.Since(t0).Seconds())
	}
	if err := timing.write(cfg.traceOut, a.spec.name, cfg.seed); err != nil {
		return err
	}
	// Count allocations on a second pass, once the scratch has grown to
	// the workload's needs, so the counts repeat exactly.
	counting := newTracer(modeCounting)
	count := a.replayer(counting)
	for pass := 0; pass < 2; pass++ {
		counting.reset()
		for _, b := range a.batches {
			for _, f := range b {
				if _, err := count(f); err != nil {
					return err
				}
			}
		}
	}

	perFunc := float64(replayed)
	n := float64(a.funcs)
	m := rep.metrics
	for _, l := range layers {
		st, ct := timing.stat(l), counting.stat(l)
		m[l+".self_ns_per_func"] = float64(st.selfNS) / perFunc
		m[l+".allocs_per_func"] = float64(ct.allocs) / n
		m[l+".bytes_per_func"] = float64(ct.bytes) / n
	}
	root := timing.stat(rootSpan)
	if a.spec.cons != nil {
		own, ownAllocs := constrainedSelf(timing), constrainedSelf(counting)
		m["core.constrained.self_ns_per_func"] = float64(own.selfNS) / perFunc
		m["core.constrained.allocs_per_func"] = float64(ownAllocs.allocs) / n
	}
	m["trace.unattributed_frac"] = float64(root.selfNS) / float64(root.totalNS)
	m["trace.overhead_frac"] = 1 - median(plainS)/median(tracedS)
	if a.spec.jobs > 1 {
		m["pipeline.speedup_jobs2"] = rateJ / rate1
	}
	m["runtime.gc_cpu_frac"] = gcFrac
	m["runtime.heap_peak_mb"] = heapPeak
	m["move_cost_residual"] = a.sum(func(o output) float64 { return o.moves }) / n
	var layerNS int64
	for name, st := range timing.stats {
		if name != rootSpan {
			layerNS += st.selfNS
		}
	}
	rep.notef("traced replay: %d functions, %.0f ns/func = spans' self time %.0f + unattributed %.0f; untraced replay %.0f ns/func; engine at jobs=1 %.0f ns/func",
		replayed, float64(root.totalNS)/perFunc, float64(layerNS)/perFunc, float64(root.selfNS)/perFunc, median(plainS)/n*1e9, 1e9/rate1)
	if a.spec.name == "giant" {
		giantScaling(cfg, timing, replayed, quarter, m)
	}
	m["error_frac"] = float64(rep.failed) / math.Max(1, float64(rep.attempted))
	return nil
}

// giantScaling records the giant scaling curve: liveness time per value at
// 10^3, 10^4 and 10^5 values, and how much liveness and clique derivation
// time grow per tenfold size between 10^3 and 10^5. The 10^5 point comes
// from the main replay; the smaller sizes are replayed here for about d.
func giantScaling(cfg runConfig, timing *tracer, replayed int, d time.Duration, m map[string]float64) {
	perFunc := func(t *tracer, layer string, n int) float64 { return float64(t.stat(layer).selfNS) / float64(n) }
	live := map[int]float64{100_000: perFunc(timing, "liveness", replayed)}
	cl := map[int]float64{100_000: perFunc(timing, "cliques", replayed)}
	for _, size := range []int{1_000, 10_000} {
		f := genGiant(cfg.seed, size)
		t := newTracer(modeTiming)
		rp := newReplayer(8, t)
		n := 0
		deadline := time.Now().Add(d / 2)
		for n < 5 || time.Now().Before(deadline) {
			rp.run(f)
			n++
		}
		live[size], cl[size] = perFunc(t, "liveness", n), perFunc(t, "cliques", n)
	}
	m["liveness.ns_per_value.1e3"] = live[1_000] / 1e3
	m["liveness.ns_per_value.1e4"] = live[10_000] / 1e4
	m["liveness.ns_per_value.1e5"] = live[100_000] / 1e5
	m["liveness.growth_per_decade"] = math.Sqrt(live[100_000] / live[1_000])
	m["cliques.growth_per_decade"] = math.Sqrt(cl[100_000] / cl[1_000])
}
