package ir_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/irgen"
)

// dominatesByWalk is the reference for Dominates: climb b's idom chain and
// look for a. Unreachable blocks dominate nothing and nothing dominates
// them.
func dominatesByWalk(d *ir.Dominance, a, b int) bool {
	if d.Order[a] < 0 || d.Order[b] < 0 {
		return false
	}
	for x := b; x >= 0; x = d.Idom[x] {
		if x == a {
			return true
		}
	}
	return false
}

// TestDominatesMatchesIdomWalk: the preorder-interval Dominates agrees with
// the idom-chain walk on every block pair of generated CFGs and of hand-built
// ones covering unreachable blocks (with and without successors), an
// irreducible loop, a self-loop, a condbr with equal targets and a single
// block. ComputeDominance must also stay at four allocations: the integer
// slab, the Children headers, the prefix counts (kept as the interval
// numbering) and the Dominance itself.
func TestDominatesMatchesIdomWalk(t *testing.T) {
	funcs := []*ir.Func{
		ir.MustParse(`
func unreach {
b0:
  a = param 0
  condbr a, b1, b2
b1:
  br b3
b2:
  br b3
b3:
  ret a
b4:
  br b3
b5:
  ret
b6:
  br b4
}`),
		ir.MustParse(`
func irreducible {
b0:
  a = param 0
  condbr a, b1, b2
b1:
  condbr a, b2, b3
b2:
  condbr a, b1, b3
b3:
  ret a
}`),
		ir.MustParse(`
func selfloop {
b0:
  a = param 0
  br b1
b1:
  condbr a, b1, b2
b2:
  ret a
}`),
		ir.MustParse(`
func sametarget {
b0:
  a = param 0
  condbr a, b1, b1
b1:
  ret a
}`),
		ir.MustParse(`
func single {
b0:
  ret
}`),
	}
	for seed := int64(0); seed < 300; seed++ {
		funcs = append(funcs, irgen.FromSeed(seed))
	}
	for _, f := range funcs {
		d := f.ComputeDominance()
		for a := range f.Blocks {
			for b := range f.Blocks {
				if got, want := d.Dominates(a, b), dominatesByWalk(d, a, b); got != want {
					t.Fatalf("%s: Dominates(b%d, b%d) = %v, idom walk says %v", f.Name, a, b, got, want)
				}
			}
		}
	}
	f := irgen.FromSeed(11)
	if got := testing.AllocsPerRun(50, func() { f.ComputeDominance() }); got != 4 {
		t.Errorf("%d allocations per ComputeDominance of a %d-block function, want 4", int(got), len(f.Blocks))
	}
}
