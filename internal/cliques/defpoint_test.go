package cliques_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/bitset"
	"repro/internal/budget"
	"repro/internal/cliques"
	"repro/internal/ir"
	"repro/internal/irgen"
	"repro/internal/liveness"
)

// project translates a live set of value IDs to the structure's vertices,
// dropping values it has none for (values outside a subset).
func project(live []int, cs *cliques.Structure) []int {
	var out []int
	for _, v := range live {
		if vx := cs.VertexOf[v]; vx >= 0 {
			out = append(out, vx)
		}
	}
	return out
}

// subsetOf reports whether the ascending list a is contained in the
// ascending list b.
func subsetOf(a, b []int) bool {
	j := 0
	for _, v := range a {
		for j < len(b) && b[j] < v {
			j++
		}
		if j == len(b) || b[j] != v {
			return false
		}
	}
	return true
}

// checkDefPointSets checks one derived structure against the liveness it
// came from: every point's projected live set lies inside the def-point set
// of its last-defined member, each set is the projected live set of a
// distinct def point, numbered in point order, the sets are pairwise
// distinct, and MaxLive is the largest projected point set.
func checkDefPointSets(info *liveness.Info, cs *cliques.Structure) string {
	// pos[v] is v's PEO position: the later v is defined, the smaller.
	pos := make([]int, cs.N)
	for i, v := range cs.PEO {
		pos[v] = i
	}
	maxLive := 0
	for pi, p := range info.Points {
		live := project(p.Live, cs)
		maxLive = max(maxLive, len(live))
		if len(live) == 0 {
			continue
		}
		last := live[0]
		for _, v := range live {
			if pos[v] < pos[last] {
				last = v
			}
		}
		if set := cs.Sets[cs.DefSetOf[last]]; !subsetOf(live, set) {
			return fmt.Sprintf("point %d live %v not inside the def-point set %v of its last-defined vertex %d",
				pi, live, set, last)
		}
	}
	if cs.MaxLive != maxLive {
		return fmt.Sprintf("MaxLive %d, largest projected point set %d", cs.MaxLive, maxLive)
	}
	setAt := map[int]int32{} // def point -> set index
	for vx, val := range cs.ValueOf {
		dp := info.DefPointOf[val]
		ci := cs.DefSetOf[vx]
		if prev, ok := setAt[dp]; ok && prev != ci {
			return fmt.Sprintf("def point %d maps to sets %d and %d", dp, prev, ci)
		}
		setAt[dp] = ci
		if want := project(info.Points[dp].Live, cs); !slices.Equal(cs.Sets[ci], want) {
			return fmt.Sprintf("vertex %d: def-point set %v, want projected point %d live %v", vx, cs.Sets[ci], dp, want)
		}
	}
	if len(setAt) != len(cs.Sets) {
		return fmt.Sprintf("%d sets for %d distinct def points", len(cs.Sets), len(setAt))
	}
	dps := make([]int, 0, len(setAt))
	for dp := range setAt {
		dps = append(dps, dp)
	}
	slices.Sort(dps)
	for i, dp := range dps {
		if setAt[dp] != int32(i) {
			return fmt.Sprintf("def point %d has set %d, want %d (point order)", dp, setAt[dp], i)
		}
	}
	seen := make(map[string]int, len(cs.Sets))
	for ci, set := range cs.Sets {
		key := fmt.Sprint(set)
		if prev, ok := seen[key]; ok {
			return fmt.Sprintf("sets %d and %d are both %v", prev, ci, set)
		}
		seen[key] = ci
	}
	return ""
}

// referenceCharges are the derivation's four phase charges as computed by
// interning every program-point live set, translated to vertices: the
// charge model DeriveBudget pins.
func referenceCharges(info *liveness.Info, cs *cliques.Structure) []int {
	it := bitset.NewInterner(len(info.Points))
	total := 0
	for _, p := range info.Points {
		vs := project(p.Live, cs)
		if len(vs) == 0 {
			continue
		}
		if _, added := it.Intern(vs); added {
			total += len(vs)
		}
	}
	np := len(info.Points)
	return []int{info.F.NumValues + np, np, cs.N, cs.N + total}
}

// checkBudgetSweep runs DeriveBudget at every step limit from 1 to the full
// spend (or, with boundaries, only around each phase boundary) and compares
// the trip phase and the spend with a meter charged the reference charges.
func checkBudgetSweep(info *liveness.Info, dom *ir.Dominance, cs *cliques.Structure, scratch *cliques.Scratch, boundaries bool) string {
	charges := referenceCharges(info, cs)
	full := 0
	for _, c := range charges {
		full += c
	}
	var limits []int
	if boundaries {
		sum := 0
		for _, c := range charges {
			sum += c
			limits = append(limits, sum-1, sum, sum+1)
		}
	} else {
		for l := 1; l <= full+1; l++ {
			limits = append(limits, l)
		}
	}
	for _, limit := range limits {
		if limit < 1 {
			continue
		}
		want := budget.NewMeter(budget.Limits{Steps: int64(limit)})
		wantPhase := len(charges)
		for i, c := range charges {
			if !want.Charge(c) {
				wantPhase = i
				break
			}
		}
		m := budget.NewMeter(budget.Limits{Steps: int64(limit)})
		got, err := cliques.DeriveBudget(info, dom, scratch, m)
		if (err != nil) != (wantPhase < len(charges)) || (got != nil) != (wantPhase == len(charges)) {
			return fmt.Sprintf("limit %d: structure %v, err %v; reference trips in phase %d of %d",
				limit, got != nil, err, wantPhase, len(charges))
		}
		if m.Spent() != want.Spent() {
			return fmt.Sprintf("limit %d: spent %d, reference %d (phase %d)", limit, m.Spent(), want.Spent(), wantPhase)
		}
		if got != nil && !slices.EqualFunc(got.Sets, cs.Sets, slices.Equal) {
			return fmt.Sprintf("limit %d: metered sets differ from unmetered", limit)
		}
	}
	return ""
}

// defPointCorpus parses every function of the checked-in IR corpora.
func defPointCorpus(t *testing.T) []*ir.Func {
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

// TestDefPointSetsCoverPoints: the def-point sets alone carry every
// program point's live set, on generated functions, per-class subsets of
// machine-annotated ones, giant functions, the IR corpora and a hand case
// with a dead def and two phis sharing a def point. Under a meter, every
// trip point and the spend match the charges of interning every point set
// (on giant functions, the limits around each phase boundary).
func TestDefPointSetsCoverPoints(t *testing.T) {
	scratch := cliques.NewScratch()
	derived := 0
	check := func(name string, f *ir.Func, sweep, boundaries bool) {
		t.Helper()
		if err := f.Validate(); err != nil {
			t.Fatalf("%s: invalid input: %v", name, err)
		}
		dom := f.ComputeDominance()
		if !cliques.Applicable(f, dom) {
			return
		}
		info := liveness.Compute(f)
		cs := cliques.Derive(info, dom, scratch)
		if cs == nil {
			t.Fatalf("%s: Derive failed on an applicable function", name)
		}
		derived++
		if msg := checkDefPointSets(info, cs); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
		if cs.MaxLive != info.MaxLive {
			t.Fatalf("%s: MaxLive %d, liveness %d", name, cs.MaxLive, info.MaxLive)
		}
		if sweep {
			if msg := checkBudgetSweep(info, dom, cs, scratch, boundaries); msg != "" {
				t.Fatalf("%s: %s", name, msg)
			}
		}
	}
	checkSubsets := func(name string, f *ir.Func) {
		t.Helper()
		dom := f.ComputeDominance()
		if !cliques.Applicable(f, dom) {
			return
		}
		info := liveness.Compute(f)
		full := cliques.Derive(info, dom, scratch)
		if full == nil {
			t.Fatalf("%s: Derive failed on an applicable function", name)
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			include := make([]bool, f.NumValues)
			any := false
			for v := range include {
				include[v] = full.VertexOf[v] >= 0 && f.ClassOf(v) == c
				any = any || include[v]
			}
			if !any {
				continue
			}
			sub := cliques.DeriveSubset(info, dom, include, scratch)
			if sub == nil {
				t.Fatalf("%s class %s: DeriveSubset failed", name, c)
			}
			derived++
			if msg := checkDefPointSets(info, sub); msg != "" {
				t.Fatalf("%s class %s: %s", name, c, msg)
			}
		}
	}

	for seed := int64(0); seed < 500; seed++ {
		check(fmt.Sprintf("seed %d", seed), irgen.FromSeed(seed), true, false)
	}
	for _, m := range []arch.Machine{arch.ARMv7, arch.ST231, arch.JVM98} {
		cons := m.Constraints(4)
		for seed := int64(0); seed < 100; seed++ {
			checkSubsets(fmt.Sprintf("%s seed %d", m.Name, seed), irgen.ConstrainedFromSeed(seed, cons))
		}
	}
	for _, n := range []int{1000, 10000} {
		check(fmt.Sprintf("giant %d", n), bench.GenGiant("giant", 1, n, n/200+1), true, true)
	}
	for i, f := range defPointCorpus(t) {
		check(fmt.Sprintf("corpus %d %s", i, f.Name), f, true, false)
		checkSubsets(fmt.Sprintf("corpus %d %s", i, f.Name), f)
	}
	hand := ir.MustParse(`
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
  d = arith m, n
  e = arith d, a
  ret e
}`)
	check("hand", hand, true, false)
	if derived < 500 {
		t.Fatalf("only %d structures derived", derived)
	}
	t.Logf("%d structures checked", derived)
}
