package coalesce_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/bench"
	"repro/internal/cliques"
	"repro/internal/coalesce"
	"repro/internal/ifg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/spillcost"
)

// prep parses src, annotates loop depths and derives its clique structure.
func prep(t *testing.T, src string) (*ir.Func, *cliques.Structure) {
	t.Helper()
	f := ir.MustParse(src)
	dom := f.ComputeDominance()
	f.ComputeLoops(dom)
	cs := cliques.Derive(liveness.Compute(f), dom, nil)
	if cs == nil {
		t.Fatal("cliques.Derive failed on a strict-SSA function")
	}
	return f, cs
}

const diamondSrc = `
func d ssa {
b0:
  x = param 0
  c = unary x
  condbr c, b1, b2
b1:
  y = arith x, x
  br b3
b2:
  z = arith x, c
  br b3
b3:
  m = phi [b1: y], [b2: z]
  ret m
}`

func valueNamed(t *testing.T, f *ir.Func, name string) int {
	t.Helper()
	for v := 0; v < f.NumValues; v++ {
		if f.NameOf(v) == name {
			return v
		}
	}
	t.Fatalf("no value named %q", name)
	return -1
}

func TestMovesExtraction(t *testing.T) {
	f, _ := prep(t, diamondSrc)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	// Two φ operands: m←y on the b1 edge, m←z on the b2 edge.
	if len(moves) != 2 {
		t.Fatalf("moves = %v, want 2", moves)
	}
	for _, m := range moves {
		if m.Cost != 1 {
			t.Fatalf("flat-CFG move cost = %g, want 1", m.Cost)
		}
	}
}

func TestAggressiveCoalescesDiamondPhi(t *testing.T) {
	f, cs := prep(t, diamondSrc)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	aff := coalesce.BuildAffinity(cs, moves, coalesce.Aggressive, 2, nil)
	// y and z never interfere with m: both moves join one class.
	if aff == nil || aff.Merged != 2 || aff.NumClasses != 1 {
		t.Fatalf("affinity = %+v, want 2 merges into 1 class", aff)
	}
	m, y, z := valueNamed(t, f, "m"), valueNamed(t, f, "y"), valueNamed(t, f, "z")
	if aff.ClassOf[m] < 0 || aff.ClassOf[m] != aff.ClassOf[y] || aff.ClassOf[m] != aff.ClassOf[z] {
		t.Fatalf("m, y, z in classes %d, %d, %d", aff.ClassOf[m], aff.ClassOf[y], aff.ClassOf[z])
	}
}

func TestInterferingMoveNotCoalesced(t *testing.T) {
	// src stays live after the copy: dst and src interfere.
	f, cs := prep(t, `
func c ssa {
b0:
  a = param 0
  d = copy a
  e = arith d, a
  ret e
}`)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	if len(moves) != 1 {
		t.Fatalf("moves = %v", moves)
	}
	if aff := coalesce.BuildAffinity(cs, moves, coalesce.Aggressive, 4, nil); aff != nil {
		t.Fatalf("interfering copy was coalesced: %+v", aff)
	}
}

func TestLoopPhiMoveCostUsesEdgeFrequency(t *testing.T) {
	f, _ := prep(t, `
func l ssa {
b0:
  n = param 0
  br b1
b1:
  i = phi [b0: n], [b2: j]
  c = unary i
  condbr c, b2, b3
b2:
  j = arith i, i
  br b1
b3:
  ret i
}`)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	if len(moves) != 2 {
		t.Fatalf("moves = %v", moves)
	}
	// i←n charged at b0 (1), i←j at b2 (10).
	var costs []float64
	for _, m := range moves {
		costs = append(costs, m.Cost)
	}
	if !(costs[0] == 1 && costs[1] == 10) && !(costs[0] == 10 && costs[1] == 1) {
		t.Fatalf("move costs = %v, want {1, 10}", costs)
	}
}

func genFunc(seed int64) *ir.Func {
	f := bench.GenSSA("t", seed, bench.Shape{
		Params: 3, Segments: 3, MaxDepth: 3, StraightLen: 5,
		LoopProb: 0.45, BranchProb: 0.3, Carried: 3, LongLived: 8,
	})
	f.ComputeLoops(f.ComputeDominance())
	return f
}

// classCost is the move cost whose endpoints share an affinity class — the
// cost a biased assignment can remove.
func classCost(aff *coalesce.Affinity, moves []coalesce.VMove) float64 {
	if aff == nil {
		return 0
	}
	total := 0.0
	for _, m := range moves {
		if c := aff.ClassOf[m.Dst]; c >= 0 && c == aff.ClassOf[m.Src] {
			total += m.Cost
		}
	}
	return total
}

// TestPropertyAggressiveDominatesConservative: the aggressive policy puts
// at least as much move cost inside its classes on typical inputs. This is
// a heuristic tendency, not a theorem — an early aggressive merge can block
// a later, more valuable one — so the check runs over fixed seeds.
func TestPropertyAggressiveDominatesConservative(t *testing.T) {
	prop := func(seed int64) bool {
		f := genFunc(seed)
		cs := cliques.Derive(liveness.Compute(f), f.ComputeDominance(), nil)
		moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
		r := cs.MaxLive
		agg := coalesce.BuildAffinity(cs, moves, coalesce.Aggressive, r, nil)
		con := coalesce.BuildAffinity(cs, moves, coalesce.Conservative, r, nil)
		return classCost(agg, moves) >= classCost(con, moves)-1e-9
	}
	rng := rand.New(rand.NewSource(11))
	if err := quick.Check(prop, &quick.Config{MaxCount: 40, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestAggressiveDominanceCounterexample pins a seed where greedy aggressive
// merging can block a more valuable later merge that conservative leaves
// open. Whichever policy ends ahead there, both must form only classes of
// pairwise non-interfering values.
func TestAggressiveDominanceCounterexample(t *testing.T) {
	f := genFunc(-4890557239861182494)
	cs := cliques.Derive(liveness.Compute(f), f.ComputeDominance(), nil)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	b := ifg.FromFunc(f)
	for _, pol := range []coalesce.Policy{coalesce.Aggressive, coalesce.Conservative} {
		aff := coalesce.BuildAffinity(cs, moves, pol, cs.MaxLive, nil)
		if aff == nil {
			continue
		}
		for u := 0; u < f.NumValues; u++ {
			for v := u + 1; v < f.NumValues; v++ {
				if c := aff.ClassOf[u]; c >= 0 && c == aff.ClassOf[v] && b.Graph.HasEdge(b.VertexOf[u], b.VertexOf[v]) {
					t.Fatalf("%s merged interfering values %s and %s", pol, f.NameOf(u), f.NameOf(v))
				}
			}
		}
	}
}

// TestPropertyMergedClassesStable: affinity classes never contain an
// interfering pair, checked against the explicit interference graph.
func TestPropertyMergedClassesStable(t *testing.T) {
	prop := func(seed int64) bool {
		f := genFunc(seed)
		cs := cliques.Derive(liveness.Compute(f), f.ComputeDominance(), nil)
		aff := coalesce.BuildAffinity(cs, coalesce.MovesFromFunc(f, spillcost.DefaultModel), coalesce.Aggressive, 4, nil)
		if aff == nil {
			return true
		}
		b := ifg.FromFunc(f)
		classes := make(map[int32][]int)
		for v, c := range aff.ClassOf {
			if c >= 0 {
				classes[c] = append(classes[c], b.VertexOf[v])
			}
		}
		for _, members := range classes {
			for i := 0; i < len(members); i++ {
				for j := i + 1; j < len(members); j++ {
					if b.Graph.HasEdge(members[i], members[j]) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestNoMoves(t *testing.T) {
	f, cs := prep(t, `
func s ssa {
b0:
  a = param 0
  ret a
}`)
	moves := coalesce.MovesFromFunc(f, spillcost.DefaultModel)
	if len(moves) != 0 {
		t.Fatalf("moves = %v", moves)
	}
	if aff := coalesce.BuildAffinity(cs, moves, coalesce.Aggressive, 2, nil); aff != nil {
		t.Fatalf("phantom coalescing: %+v", aff)
	}
}
