package regassign

import (
	"fmt"
	"maps"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/arch"
	"repro/internal/ir"
	"repro/internal/irgen"
)

// referenceInsertSpillCode is the straightforward spill rewrite: one name
// string built per reload, and each phi-operand reload spliced into its
// predecessor on its own. InsertSpillCode must produce exactly its output.
func referenceInsertSpillCode(f *ir.Func, spilled []bool) *ir.Func {
	g := f.Clone()
	isSpilled := func(v int) bool { return v < len(spilled) && spilled[v] }
	if g.ValueName == nil {
		g.ValueName = make(map[int]string)
	}
	newReload := func(u int) ir.Instr {
		nv := g.NewValue()
		g.ValueName[nv] = g.NameOf(u) + ".r"
		g.SetClass(nv, g.ClassOf(u))
		return ir.Instr{Op: ir.OpReload, Def: nv, Imm: int64(u)}
	}
	for _, b := range g.Blocks {
		var out, phiSpills []ir.Instr
		phisDone := false
		for _, ins := range b.Instrs {
			if !phisDone && ins.Op != ir.OpPhi {
				phisDone = true
				out = append(out, phiSpills...)
				phiSpills = nil
			}
			if ins.Op != ir.OpPhi {
				for k, u := range ins.Uses {
					if isSpilled(u) {
						r := newReload(u)
						out = append(out, r)
						ins.Uses[k] = r.Def
					}
				}
			}
			out = append(out, ins)
			if ins.Op.HasDef() && ins.Def != ir.NoValue && isSpilled(ins.Def) {
				sp := ir.Instr{Op: ir.OpSpill, Def: ir.NoValue, Uses: []int{ins.Def}}
				if ins.Op == ir.OpPhi {
					phiSpills = append(phiSpills, sp)
				} else {
					out = append(out, sp)
				}
			}
		}
		b.Instrs = append(out, phiSpills...)
	}
	for _, b := range g.Blocks {
		for ii := range b.Instrs {
			ins := &b.Instrs[ii]
			if ins.Op != ir.OpPhi {
				continue
			}
			for k, u := range ins.Uses {
				if !isSpilled(u) || k >= len(b.Preds) {
					continue
				}
				pred := g.Blocks[b.Preds[k]]
				r := newReload(u)
				ti := len(pred.Instrs) - 1
				pred.Instrs = append(pred.Instrs[:ti], append([]ir.Instr{r}, pred.Instrs[ti:]...)...)
				ins.Uses[k] = r.Def
			}
		}
	}
	return g
}

// sameRewrite reports the first difference between two rewrites, or "".
func sameRewrite(got, want *ir.Func) string {
	if got.NumValues != want.NumValues {
		return fmt.Sprintf("%d values, want %d", got.NumValues, want.NumValues)
	}
	if gs, ws := got.String(), want.String(); gs != ws {
		return fmt.Sprintf("body\n%s\nwant\n%s", gs, ws)
	}
	if !maps.Equal(got.ValueName, want.ValueName) {
		return "value names differ"
	}
	if !maps.Equal(got.ValueClass, want.ValueClass) {
		return "value classes differ"
	}
	for bi, b := range got.Blocks {
		if len(b.Instrs) != cap(b.Instrs) {
			return fmt.Sprintf("block %d: window of %d instructions has capacity %d", bi, len(b.Instrs), cap(b.Instrs))
		}
	}
	return ""
}

// TestInsertSpillCodeMatchesReference: the pre-sized rewrite equals the
// straightforward one — bodies, value numbering, names and classes — on
// generated functions (SSA and not, with unreachable blocks) and on
// machine-annotated ones with FP values, under random spill sets, the empty
// set and the full set.
func TestInsertSpillCodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cons := arch.ARMv7.Constraints(4)
	for seed := int64(0); seed < 300; seed++ {
		for _, f := range []*ir.Func{irgen.FromSeed(seed), irgen.ConstrainedFromSeed(seed, cons)} {
			for trial := 0; trial < 4; trial++ {
				spilled := make([]bool, f.NumValues)
				for v := range spilled {
					switch trial {
					case 0:
					case 1:
						spilled[v] = true
					default:
						spilled[v] = rng.Intn(3) == 0
					}
				}
				got := InsertSpillCode(f, spilled)
				want := referenceInsertSpillCode(f, spilled)
				if msg := sameRewrite(got, want); msg != "" {
					t.Fatalf("seed %d %s trial %d: %s", seed, f.Name, trial, msg)
				}
			}
		}
	}
}

// reloadFunc is a strict-SSA function where spilling its parameter a costs
// exactly 2k reloads: k at uses in a loop body, and k at phi operands
// spliced into the entry block, the loop's predecessor.
func reloadFunc(k int) *ir.Func {
	var b strings.Builder
	b.WriteString("func reloads ssa {\nb0:\n  a = param 0\n  br b1\nb1:\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  p%d = phi [b0: a], [b1: p%d]\n", i, i)
	}
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "  u%d = unary a\n", i)
	}
	fmt.Fprintf(&b, "  condbr u%d, b1, b2\nb2:\n  ret p0\n}\n", k-1)
	return ir.MustParse(b.String())
}

// mapAllocs is what building a map of n value names costs on its own: a Go
// map stores at most 896 entries per table, and each table is two
// allocations.
func mapAllocs(n int) float64 {
	return testing.AllocsPerRun(20, func() {
		m := make(map[int]string, n)
		for i := 0; i < n; i++ {
			m[i] = ""
		}
	})
}

// TestInsertSpillCodeAllocsFlat pins that the rewrite's allocations do not
// grow with the number of reloads: 10 and 1,000 reloads cost the same, with
// parsed value names and without any. The one thing that does grow is the
// rewritten function's name map, which must hold a name per reload and
// whose table count a Go map ties to its size; the map is born at its final
// size, so its cost is exactly that of building such a map, and that is
// taken off both counts.
func TestInsertSpillCodeAllocsFlat(t *testing.T) {
	for _, named := range []bool{true, false} {
		allocs := func(k int) float64 {
			f := reloadFunc(k)
			if !named {
				f.ValueName = nil
			}
			spilled := make([]bool, f.NumValues)
			spilled[0] = true // a
			g := InsertSpillCode(f, spilled)
			if g.NumValues != f.NumValues+2*k {
				t.Fatalf("k=%d: %d reloads, want %d", k, g.NumValues-f.NumValues, 2*k)
			}
			return testing.AllocsPerRun(20, func() { InsertSpillCode(f, spilled) }) - mapAllocs(len(g.ValueName))
		}
		if few, many := allocs(5), allocs(500); few != many {
			t.Errorf("named=%v: beyond the name map, 10 reloads cost %v allocations, 1,000 cost %v", named, few, many)
		}
	}
}
