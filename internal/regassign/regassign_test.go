package regassign

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/liveness"
)

func allTrue(n int) []bool {
	out := make([]bool, n)
	for i := range out {
		out[i] = true
	}
	return out
}

func TestAssignStraightLine(t *testing.T) {
	f := ir.MustParse(`
func s ssa {
b0:
  a = param 0
  b = arith a, a
  c = arith b, a
  ret c
}`)
	info := liveness.Compute(f)
	regOf, err := Assign(f, info, allTrue(f.NumValues), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssignment(info, allTrue(f.NumValues), regOf); err != nil {
		t.Fatal(err)
	}
}

func TestAssignFailsWhenPressureTooHigh(t *testing.T) {
	f := ir.MustParse(`
func high ssa {
b0:
  a = param 0
  b = param 1
  c = param 2
  d = arith a, b
  e = arith d, c
  r = arith e, a
  ret r
}`)
	info := liveness.Compute(f)
	if _, err := Assign(f, info, allTrue(f.NumValues), 2); err == nil {
		t.Fatal("assignment with MaxLive=3 and R=2 should fail")
	}
	if regOf, err := Assign(f, info, allTrue(f.NumValues), 3); err != nil {
		t.Fatal(err)
	} else if err := VerifyAssignment(info, allTrue(f.NumValues), regOf); err != nil {
		t.Fatal(err)
	}
}

func TestAssignAcrossLoop(t *testing.T) {
	f := ir.MustParse(`
func loop ssa {
b0:
  n = param 0
  k = param 1
  br b1
b1:
  i = phi [b0: n], [b2: j]
  c = unary i
  condbr c, b2, b3
b2:
  j = arith i, k
  br b1
b3:
  r = arith i, k
  ret r
}`)
	info := liveness.Compute(f)
	regOf, err := Assign(f, info, allTrue(f.NumValues), 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssignment(info, allTrue(f.NumValues), regOf); err != nil {
		t.Fatal(err)
	}
}

func TestAssignSkipsSpilled(t *testing.T) {
	f := ir.MustParse(`
func s ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  d = arith c, b
  ret d
}`)
	info := liveness.Compute(f)
	allocated := allTrue(f.NumValues)
	// Spill b: assignment must succeed with 2 registers... it would anyway;
	// use 1 register where keeping b would fail.
	var bID int = -1
	for id, n := range f.ValueName {
		if n == "b" {
			bID = id
		}
	}
	allocated[bID] = false
	// Pressure among allocated: a,c,d never simultaneously... a live until
	// c's def; c until d. With b spilled, two allocated values overlap at
	// most pairwise? a and c overlap (a unused after c? a used at c's def
	// only) — choose 2 registers to be safe, then check b got no register.
	regOf, err := Assign(f, info, allocated, 2)
	if err != nil {
		t.Fatal(err)
	}
	if regOf[bID] != NoReg {
		t.Fatal("spilled value received a register")
	}
	if err := VerifyAssignment(info, allocated, regOf); err != nil {
		t.Fatal(err)
	}
}

func TestAssignRequiresSSA(t *testing.T) {
	f := ir.MustParse(`
func ns {
b0:
  x = param 0
  x = arith x, x
  ret x
}`)
	info := liveness.Compute(f)
	if _, err := Assign(f, info, allTrue(f.NumValues), 4); err == nil {
		t.Fatal("tree-scan on non-SSA accepted")
	}
}

func TestVerifyAssignmentCatchesClash(t *testing.T) {
	f := ir.MustParse(`
func s ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  ret c
}`)
	info := liveness.Compute(f)
	bad := make([]int, f.NumValues)
	// a and b are simultaneously live with the same register.
	if err := VerifyAssignment(info, allTrue(f.NumValues), bad); err == nil {
		t.Fatal("clashing assignment accepted")
	}
}

func TestInsertSpillCodeStraightLine(t *testing.T) {
	f := ir.MustParse(`
func s ssa {
b0:
  a = param 0
  b = arith a, a
  c = arith b, a
  ret c
}`)
	spilled := make([]bool, f.NumValues)
	for id, n := range f.ValueName {
		if n == "a" {
			spilled[id] = true
		}
	}
	g := InsertSpillCode(f, spilled)
	if err := g.Validate(); err != nil {
		t.Fatalf("rewritten function invalid: %v", err)
	}
	text := g.String()
	if !strings.Contains(text, "spill a") {
		t.Fatalf("no spill inserted:\n%s", text)
	}
	if strings.Count(text, "reload") != 3 {
		t.Fatalf("want 3 reloads (a has 3 uses):\n%s", text)
	}
	// The original is untouched.
	if strings.Contains(f.String(), "reload") {
		t.Fatal("original function mutated")
	}
}

func TestInsertSpillCodePhiOperand(t *testing.T) {
	f := ir.MustParse(`
func p ssa {
b0:
  a = param 0
  c = unary a
  condbr c, b1, b2
b1:
  y = arith a, a
  br b3
b2:
  z = arith a, c
  br b3
b3:
  m = phi [b1: y], [b2: z]
  ret m
}`)
	spilled := make([]bool, f.NumValues)
	for id, n := range f.ValueName {
		if n == "y" {
			spilled[id] = true
		}
	}
	g := InsertSpillCode(f, spilled)
	if err := g.Validate(); err != nil {
		t.Fatalf("rewritten function invalid: %v\n%s", err, g)
	}
	// The reload must sit in b1 (the predecessor), before its branch.
	b1 := g.Blocks[1]
	foundReload := false
	for _, ins := range b1.Instrs[:len(b1.Instrs)-1] {
		if ins.Op == ir.OpReload {
			foundReload = true
		}
	}
	if !foundReload {
		t.Fatalf("phi operand reload not in predecessor:\n%s", g)
	}
}

func TestInsertSpillCodeSpilledPhiDef(t *testing.T) {
	f := ir.MustParse(`
func p ssa {
b0:
  a = param 0
  c = unary a
  condbr c, b1, b2
b1:
  y = arith a, a
  br b3
b2:
  z = arith a, c
  br b3
b3:
  m = phi [b1: y], [b2: z]
  r = arith m, m
  ret r
}`)
	spilled := make([]bool, f.NumValues)
	for id, n := range f.ValueName {
		if n == "m" {
			spilled[id] = true
		}
	}
	g := InsertSpillCode(f, spilled)
	if err := g.Validate(); err != nil {
		t.Fatalf("rewritten function invalid: %v\n%s", err, g)
	}
	text := g.String()
	if !strings.Contains(text, "spill m") {
		t.Fatalf("phi def not spilled:\n%s", text)
	}
	if !strings.Contains(text, "m.r") {
		t.Fatalf("use of spilled phi def not reloaded:\n%s", text)
	}
}

func TestSpillEverywhereReducesPressure(t *testing.T) {
	f := ir.MustParse(`
func high ssa {
b0:
  a = param 0
  b = param 1
  c = param 2
  d = arith a, b
  e = arith d, c
  r = arith e, a
  ret r
}`)
	before := liveness.Compute(f)
	if before.MaxLive != 3 {
		t.Fatalf("MaxLive before = %d", before.MaxLive)
	}
	spilled := make([]bool, f.NumValues)
	for id, n := range f.ValueName {
		if n == "a" || n == "c" {
			spilled[id] = true
		}
	}
	g := InsertSpillCode(f, spilled)
	after := liveness.Compute(g)
	if after.MaxLive > before.MaxLive {
		t.Fatalf("spilling raised MaxLive: %d → %d", before.MaxLive, after.MaxLive)
	}
}

// TestLiveOutUseAtInstrZeroKeepsRegister is a regression test: a value that
// is live out of a block and used by the block's *first* instruction must
// keep its register across that use (a missing last-use entry must not be
// confused with a death at instruction index 0).
func TestLiveOutUseAtInstrZeroKeepsRegister(t *testing.T) {
	f := ir.MustParse(`
func z ssa {
b0:
  a = param 0
  c = unary a
  condbr c, b1, b2
b1:
  x = unary a
  y = arith x, a
  store y, a
  br b2
b2:
  r = arith a, a
  ret r
}`)
	info := liveness.Compute(f)
	allocated := allTrue(f.NumValues)
	regOf, err := Assign(f, info, allocated, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssignment(info, allocated, regOf); err != nil {
		t.Fatal(err)
	}
	// a is used at b1's first instruction and live out: x and y must not
	// reuse a's register.
	names := map[string]int{}
	for id, n := range f.ValueName {
		names[n] = id
	}
	if regOf[names["x"]] == regOf[names["a"]] {
		t.Fatal("x stole a's register while a was live")
	}
}

// wideFunc has n parameters live at once, folded by a chain of additions.
func wideFunc(n int) *ir.Func {
	var b strings.Builder
	b.WriteString("func wide ssa {\nb0:\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "  v%d = param %d\n", i, i)
	}
	b.WriteString("  s1 = arith v0, v1\n")
	for i := 2; i < n; i++ {
		fmt.Fprintf(&b, "  s%d = arith s%d, v%d\n", i, i-1, i)
	}
	fmt.Fprintf(&b, "  ret s%d\n}\n", n-1)
	return ir.MustParse(b.String())
}

// TestTreeScanFlatBeyond64: the one-class file has no register limit — 90
// values live at once get registers 0–89 with R = 100 — while a classed
// file keeps the 64-per-class cap of its uint64 forbid masks.
func TestTreeScanFlatBeyond64(t *testing.T) {
	f := wideFunc(90)
	info := liveness.Compute(f)
	dom := f.ComputeDominance()
	regOf, _, err := TreeScan(f, dom, info, allTrue(f.NumValues), Flat(100), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyAssignment(info, allTrue(f.NumValues), regOf); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < 90; v++ {
		if regOf[v] != v {
			t.Fatalf("parameter %d got register %d, want %d", v, regOf[v], v)
		}
	}
	if _, _, err := TreeScan(f, dom, info, allTrue(f.NumValues), Flat(89), nil, nil, nil); err == nil {
		t.Fatal("89 registers held 90 live values")
	}
	classed := Flat(100)
	classed.Classed = true
	if _, _, err := TreeScan(f, dom, info, allTrue(f.NumValues), classed, nil, nil, nil); err == nil {
		t.Fatal("classed file accepted 100 registers in one class")
	}
}

// TestTreeScanPinsAndForbid: a pin is honored, a forbid mask steers the
// lowest-admissible choice, and a pin taken by a live value names the
// stuck value.
func TestTreeScanPinsAndForbid(t *testing.T) {
	f := ir.MustParse(`
func p ssa {
b0:
  a = param 0
  b = param 1
  c = arith a, b
  ret c
}`)
	info := liveness.Compute(f)
	dom := f.ComputeDominance()
	a, b, c := 0, 1, 2
	file := File{Caps: [ir.NumClasses]int{ir.ClassGPR: 4}, Classed: true,
		Pins: []int{NoReg, 3, NoReg}, Forbid: []uint64{0b0001, 0, 0}}
	regOf, _, err := TreeScan(f, dom, info, allTrue(f.NumValues), file, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if regOf[a] != 1 || regOf[b] != 3 || regOf[c] != 0 {
		t.Fatalf("registers a=%d b=%d c=%d, want 1, 3, 0", regOf[a], regOf[b], regOf[c])
	}
	file.Pins = []int{3, 3, NoReg}
	if _, stuck, err := TreeScan(f, dom, info, allTrue(f.NumValues), file, nil, nil, nil); err == nil || stuck != b {
		t.Fatalf("colliding pins: stuck=%d err=%v, want value %d stuck", stuck, err, b)
	}
}
