package liveness_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/liveness"
	"repro/internal/raerr"
)

// denseCompute is a reference for liveness.ComputeBudget: the same
// dataflow fixpoint and budget charges, and a per-point walk that keeps
// only the dense live bitset, taking every snapshot by scanning it whole.
// It returns nil when the meter trips.
func denseCompute(f *ir.Func, m *budget.Meter) *liveness.Info {
	arena := new(bitset.Arena)
	n := len(f.Blocks)
	nv := f.NumValues
	info := &liveness.Info{F: f, LiveIn: make([][]int, n), LiveOut: make([][]int, n)}
	use, def, phiDef := bitset.NewSlab(n, nv), bitset.NewSlab(n, nv), bitset.NewSlab(n, nv)
	phiUse := make([]map[int]bitset.Set, n) // block -> pred slot -> operands
	for _, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				phiDef[b.ID].Add(ins.Def)
				def[b.ID].Add(ins.Def)
				if b.Instrs[0].Op != ir.OpPhi {
					continue // a phi not leading its block has no slots
				}
				for k, u := range ins.Uses {
					if k >= len(b.Preds) {
						continue
					}
					if phiUse[b.ID] == nil {
						phiUse[b.ID] = map[int]bitset.Set{}
					}
					if phiUse[b.ID][k] == nil {
						phiUse[b.ID][k] = bitset.New(nv)
					}
					phiUse[b.ID][k].Add(u)
				}
				continue
			}
			for _, u := range ins.Uses {
				if !def[b.ID].Has(u) {
					use[b.ID].Add(u)
				}
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				def[b.ID].Add(ins.Def)
			}
		}
	}
	liveIn, liveOut := bitset.NewSlab(n, nv), bitset.NewSlab(n, nv)
	tmp := bitset.New(nv)
	for changed := true; changed; {
		if !m.Charge(n) {
			return nil
		}
		changed = false
		for i := n - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out := liveOut[b.ID]
			for _, s := range b.Succs {
				tmp.CopyFrom(liveIn[s])
				tmp.AndNot(phiDef[s])
				changed = out.OrChanged(tmp) || changed
				for k, p := range f.Blocks[s].Preds {
					if ops := phiUse[s][k]; p == b.ID && ops != nil {
						changed = out.OrChanged(ops) || changed
					}
				}
			}
			in := liveIn[b.ID]
			changed = in.OrChanged(use[b.ID]) || changed
			changed = in.OrChanged(phiDef[b.ID]) || changed
			tmp.CopyFrom(out)
			tmp.AndNot(def[b.ID])
			changed = in.OrChanged(tmp) || changed
		}
	}
	for i := 0; i < n; i++ {
		info.LiveIn[i] = liveIn[i].AppendTo(nil)
		info.LiveOut[i] = liveOut[i].AppendTo(nil)
	}

	live := arena.Set(nv)
	snapshot := func() []int { return live.AppendTo(make([]int, 0, live.Count())) }
	info.DefPointOf = make([]int, nv)
	for i := range info.DefPointOf {
		info.DefPointOf[i] = -1
	}
	for _, b := range f.Blocks {
		if !m.Charge(len(b.Instrs) + 1) {
			return nil
		}
		live.CopyFrom(liveOut[b.ID])
		end := liveness.Point{Block: b.ID, Index: len(b.Instrs), Live: snapshot()}
		var pts []liveness.Point // this block's points, in reverse layout order
		defAt := map[int]int{}   // value -> position in pts; -1 = block end
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			ins := &b.Instrs[i]
			if ins.Op == ir.OpPhi {
				continue
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue {
				if !live.Has(ins.Def) {
					live.Add(ins.Def)
					pts = append(pts, liveness.Point{Block: b.ID, Index: i, Live: snapshot()})
				}
				defAt[ins.Def] = len(pts) - 1
				live.Remove(ins.Def)
			}
			for _, u := range ins.Uses {
				live.Add(u)
			}
			pts = append(pts, liveness.Point{Block: b.ID, Index: i, Live: snapshot()})
		}
		slices.Reverse(pts)
		var phiDefs []int
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				phiDefs = append(phiDefs, ins.Def)
			}
		}
		if len(phiDefs) > 0 {
			first := &end
			if len(pts) > 0 {
				first = &pts[0]
			}
			merged := append(append([]int(nil), first.Live...), phiDefs...)
			sort.Ints(merged)
			first.Live = slices.Compact(merged)
		}
		base := len(info.Points)
		for v, bwd := range defAt {
			if bwd < 0 {
				info.DefPointOf[v] = base + len(pts)
			} else {
				info.DefPointOf[v] = base + len(pts) - 1 - bwd
			}
		}
		for _, pd := range phiDefs {
			info.DefPointOf[pd] = base
		}
		info.Points = append(append(info.Points, pts...), end)
	}
	for _, p := range info.Points {
		info.MaxLive = max(info.MaxLive, len(p.Live))
	}
	return info
}

// sameInfo reports the first difference between two analyses, or "".
func sameInfo(got, want *liveness.Info) string {
	if got.MaxLive != want.MaxLive {
		return fmt.Sprintf("MaxLive %d, want %d", got.MaxLive, want.MaxLive)
	}
	if len(got.Points) != len(want.Points) {
		return fmt.Sprintf("%d points, want %d", len(got.Points), len(want.Points))
	}
	for i, p := range got.Points {
		q := want.Points[i]
		if p.Block != q.Block || p.Index != q.Index || !slices.Equal(p.Live, q.Live) {
			return fmt.Sprintf("point %d = %+v, want %+v", i, p, q)
		}
	}
	if !slices.Equal(got.DefPointOf, want.DefPointOf) {
		return fmt.Sprintf("DefPointOf %v, want %v", got.DefPointOf, want.DefPointOf)
	}
	for b := range want.LiveIn {
		if !slices.Equal(got.LiveIn[b], want.LiveIn[b]) || !slices.Equal(got.LiveOut[b], want.LiveOut[b]) {
			return fmt.Sprintf("block %d live-in/out %v/%v, want %v/%v",
				b, got.LiveIn[b], got.LiveOut[b], want.LiveIn[b], want.LiveOut[b])
		}
	}
	return ""
}

// handCases are the shapes generated code rarely reaches: a dead def,
// duplicate operands, a block holding only phis, an empty block and an
// unreachable block with code.
func handCases(t *testing.T) []*ir.Func {
	t.Helper()
	f := ir.MustParse(`
func hand ssa {
b0:
  a = param 0
  dead = arith a, a
  c = unary a
  condbr c, b1, b2
b1:
  br b3
b2:
  br b3
b3:
  m = phi [b1: a], [b2: c]
  n = phi [b1: c], [b2: a]
  br b4
b4:
  br b5
b5:
  d = arith m, n
  e = arith d, a
  ret e
b6:
  x = arith a, c
  y = arith x, x
  ret y
}`)
	f.Blocks[3].Instrs = f.Blocks[3].Instrs[:2] // phis only
	f.Blocks[4].Instrs = nil                    // empty
	g := ir.MustParse(`
func dead ssa {
b0:
  a = param 0
  b = arith a, a
  ret a
}`)
	return []*ir.Func{f, g}
}

func corpus(t *testing.T) []*ir.Func {
	t.Helper()
	files, _ := filepath.Glob("../ir/testdata/*.ir")
	mods, _ := filepath.Glob("../ir/testdata/modules/*.ir")
	if len(files) == 0 || len(mods) == 0 {
		t.Fatal("no corpus files")
	}
	var out []*ir.Func
	for _, file := range append(files, mods...) {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ir.ParseModule(string(src))
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		out = append(out, m.Funcs...)
	}
	return out
}

// TestPointsMatchDenseReference: the per-point walk that snapshots a
// sorted live list yields exactly what scanning the dense bitset yields —
// points, def instants, MaxLive and block live-in/out — on generated,
// constrained, corpus, giant and hand-built functions. A step limit swept
// over every trip point must stop both at the same charge, with the same
// typed error and the same spend. One Scratch serves every run, so a trip
// must also leave it fit for the next.
func TestPointsMatchDenseReference(t *testing.T) {
	s := liveness.NewScratch()
	check := func(name string, f *ir.Func) {
		t.Helper()
		want := denseCompute(f, nil)
		if d := sameInfo(liveness.Compute(f), want); d != "" {
			t.Fatalf("%s: Compute: %s", name, d)
		}
		if d := sameInfo(s.Compute(f), want); d != "" {
			t.Fatalf("%s: Scratch.Compute: %s", name, d)
		}
	}
	var swept []*ir.Func
	for seed := int64(0); seed < 500; seed++ {
		f := irgen.FromSeed(seed)
		check(fmt.Sprintf("seed %d", seed), f)
		swept = append(swept, f)
	}
	cons := arch.ARMv7.Constraints(8)
	for seed := int64(0); seed < 100; seed++ {
		check(fmt.Sprintf("armv7 seed %d", seed), irgen.ConstrainedFromSeed(seed, cons))
	}
	for _, n := range []int{1_000, 10_000} {
		check(fmt.Sprintf("giant %d", n), bench.GenGiant("giant", 1, n, n/200+1))
	}
	for _, f := range append(corpus(t), handCases(t)...) {
		check(f.Name, f)
		swept = append(swept, f)
	}

	for _, f := range swept {
		full := budget.NewMeter(budget.Limits{Steps: 1 << 40})
		denseCompute(f, full)
		for limit := int64(1); limit <= full.Spent(); limit++ {
			mGot := budget.NewMeter(budget.Limits{Steps: limit})
			mWant := budget.NewMeter(budget.Limits{Steps: limit})
			got, err := s.ComputeBudget(f, mGot)
			want := denseCompute(f, mWant)
			if mGot.Spent() != mWant.Spent() {
				t.Fatalf("%s limit %d: spent %d, want %d", f.Name, limit, mGot.Spent(), mWant.Spent())
			}
			if (got == nil) != (want == nil) {
				t.Fatalf("%s limit %d: tripped %v, want %v", f.Name, limit, got == nil, want == nil)
			}
			if want != nil {
				if err != nil {
					t.Fatalf("%s limit %d: error %v on a full result", f.Name, limit, err)
				}
				if d := sameInfo(got, want); d != "" {
					t.Fatalf("%s limit %d: %s", f.Name, limit, d)
				}
				continue
			}
			var be *raerr.BudgetError
			if !errors.As(err, &be) || be.Spent != mWant.BudgetErr().Spent || be.Limit != limit {
				t.Fatalf("%s limit %d: error %v, want %v", f.Name, limit, err, mWant.Err())
			}
		}
	}
}
