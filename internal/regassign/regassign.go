// Package regassign implements the assignment half of decoupled register
// allocation: once the allocation phase has decided which variables stay in
// registers (and the register pressure is everywhere at most R), a linear
// greedy scan over the dominance tree — the "tree-scan" — picks a concrete
// register for every allocated SSA value. The package also provides
// spill-everywhere code insertion: spilled variables get a store after their
// definition and a reload before every use.
package regassign

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/budget"
	"repro/internal/ir"
	"repro/internal/liveness"
)

// NoReg marks values that were not assigned a register (spilled values).
const NoReg = -1

// File is the register file a tree-scan assigns from. The one-class file of
// an unconstrained run is Flat(r); a machine sets Classed and its per-class
// capacities, plus pins and forbid masks when the function has any.
type File struct {
	// Caps is the register count of each class.
	Caps [ir.NumClasses]int
	// Classed gives every value a register of its own class (ir.Func.ClassOf)
	// as a RegRef. Unset, every value takes a plain GPR index in
	// [0, Caps[ClassGPR]) and class annotations are ignored.
	Classed bool
	// Pins[v] is the fixed register (RegRef) of a pre-colored value, NoReg
	// otherwise; nil when no value is pinned.
	Pins []int
	// Forbid[v] is the mask of within-class indexes v may not take (bit i =
	// index i banned); nil when nothing is banned.
	Forbid []uint64
}

// Flat returns the one-class register file of r registers.
func Flat(r int) File {
	return File{Caps: [ir.NumClasses]int{ir.ClassGPR: r}}
}

// Scratch recycles the tree-scan's working memory (live-out stamps,
// last-use indices, the per-class register files) across functions. A
// Scratch is not safe for concurrent use; batch workers hold one each.
type Scratch struct {
	liveOutAt []int32 // stamp: liveOutAt[v] == epoch ⇔ v live out of the current block
	lastUse   []int32 // last use index, valid when lastUseAt[v] == epoch
	lastUseAt []int32
	inUse     [ir.NumClasses][]uint64 // bit i of class c set ⇔ index i held
	epoch     int32
}

// NewScratch returns an empty reusable scratch.
func NewScratch() *Scratch { return &Scratch{} }

func (s *Scratch) resize(nv int, caps *[ir.NumClasses]int) {
	if cap(s.liveOutAt) < nv {
		s.liveOutAt = make([]int32, nv)
		s.lastUse = make([]int32, nv)
		s.lastUseAt = make([]int32, nv)
		s.epoch = 0
	}
	s.liveOutAt = s.liveOutAt[:nv]
	s.lastUse = s.lastUse[:nv]
	s.lastUseAt = s.lastUseAt[:nv]
	for c, n := range caps {
		words := (n + 63) / 64
		if cap(s.inUse[c]) < words {
			s.inUse[c] = make([]uint64, words)
		}
		s.inUse[c] = s.inUse[c][:words]
	}
}

// Assign colours every allocated value of a strict-SSA function with a
// register in [0, r), walking the dominance tree in preorder and giving each
// definition the lowest register not held by an allocated value live at the
// definition point. allocated is indexed by value ID. It fails if some
// definition finds no free register, which cannot happen when the allocated
// register pressure is at most r everywhere (chordal/SSA guarantee).
func Assign(f *ir.Func, info *liveness.Info, allocated []bool, r int) ([]int, error) {
	return AssignWith(f, f.ComputeDominance(), info, allocated, r, nil)
}

// AssignWith is Assign with the dominance tree supplied by the caller (the
// pipeline already has one) and an optional reusable scratch.
func AssignWith(f *ir.Func, dom *ir.Dominance, info *liveness.Info, allocated []bool, r int, scratch *Scratch) ([]int, error) {
	regOf, _, err := TreeScan(f, dom, info, allocated, Flat(r), scratch, nil, nil)
	return regOf, err
}

// TreeScan is the tree-scan assigner. It walks the dominance tree in
// preorder and gives each allocated definition a register of its class that
// no allocated value live at the definition point holds: a pre-colored
// value its pin, otherwise the lowest index outside its forbid mask.
//
// A bias (nil for none) steers the choice toward an affinity class's hint
// register when that register is admissible and free; it never changes
// which values receive registers, only which registers they receive.
//
// Each block charges its instruction count to meter (nil never trips)
// before it is scanned; a trip aborts with the meter's typed error. On a
// flat file pressure ≤ R guarantees success. Pins and bans can make the
// greedy choice infeasible even at legal pressure, so on failure the second
// result names the value that found no register: force-spilling it and
// retrying is always sound under spill-everywhere.
//
// A classed file holds at most 64 registers per class (forbid masks are
// uint64); a flat one has no limit.
func TreeScan(f *ir.Func, dom *ir.Dominance, info *liveness.Info, allocated []bool,
	file File, scratch *Scratch, meter *budget.Meter, bias *Bias) ([]int, int, error) {
	if !f.SSA {
		return nil, -1, fmt.Errorf("regassign: tree-scan requires strict SSA")
	}
	if file.Classed {
		for _, c := range file.Caps {
			if c > 64 {
				return nil, -1, fmt.Errorf("regassign: constrained assignment supports at most 64 registers per class, got %d", c)
			}
		}
	}
	if scratch == nil {
		scratch = NewScratch()
	}
	scratch.resize(f.NumValues, &file.Caps)
	ts := &treeScan{f: f, dom: dom, info: info, allocated: allocated, file: file,
		s: scratch, meter: meter, bias: bias, failVal: -1}
	ts.regOf = make([]int, f.NumValues)
	for i := range ts.regOf {
		ts.regOf[i] = NoReg
	}
	ts.walk(0)
	if ts.fail != nil {
		return nil, ts.failVal, ts.fail
	}
	return ts.regOf, -1, nil
}

// treeScan is the state of one TreeScan call.
type treeScan struct {
	f         *ir.Func
	dom       *ir.Dominance
	info      *liveness.Info
	allocated []bool
	file      File
	s         *Scratch
	meter     *budget.Meter
	bias      *Bias
	regOf     []int
	failVal   int
	fail      error
}

// classOf is v's register class: its annotation on a classed file, GPR on
// a flat one.
func (ts *treeScan) classOf(v int) ir.Class {
	if !ts.file.Classed {
		return ir.ClassGPR
	}
	return ts.f.ClassOf(v)
}

// split decodes a register into class and within-class index.
func (ts *treeScan) split(reg int) (ir.Class, int) {
	if !ts.file.Classed {
		return ir.ClassGPR, reg
	}
	return ir.RegClassOf(reg), ir.RegIndexOf(reg)
}

func (ts *treeScan) held(c ir.Class, idx int) bool {
	return ts.s.inUse[c][idx>>6]&(1<<uint(idx&63)) != 0
}

func (ts *treeScan) hold(v, reg int) {
	ts.regOf[v] = reg
	c, idx := ts.split(reg)
	ts.s.inUse[c][idx>>6] |= 1 << uint(idx&63)
}

func (ts *treeScan) release(v int) {
	if reg := ts.regOf[v]; reg != NoReg {
		c, idx := ts.split(reg)
		ts.s.inUse[c][idx>>6] &^= 1 << uint(idx&63)
	}
}

func (ts *treeScan) banned(v int) uint64 {
	if ts.file.Forbid == nil {
		return 0
	}
	return ts.file.Forbid[v]
}

// assign gives v its register, or records the failure.
func (ts *treeScan) assign(v int, b *ir.Block) {
	if ts.regOf[v] != NoReg {
		return // already coloured (phi defs are live-in too)
	}
	c := ts.classOf(v)
	capC := ts.file.Caps[c]
	cls := ts.bias.classOf(v)
	if ts.file.Pins != nil {
		if pin := ts.file.Pins[v]; pin != NoReg {
			if pc, idx := ts.split(pin); pc != c || idx >= capC || ts.held(c, idx) {
				ts.failVal, ts.fail = v, fmt.Errorf("regassign: pre-color %s of %s unavailable in %s",
					ir.RegName(pin), ts.f.NameOf(v), b.Name)
				return
			}
			ts.hold(v, pin)
			ts.bias.record(cls, pin)
			return
		}
	}
	ban := ts.banned(v)
	if cls >= 0 {
		if h := ts.bias.hintOf(cls); h != NoReg {
			if hc, idx := ts.split(int(h)); hc == c && idx < capC && !ts.held(c, idx) && ban&(1<<uint(idx)) == 0 {
				ts.hold(v, int(h))
				return
			}
		}
	}
	for w, word := range ts.s.inUse[c] {
		free := ^word
		if w == 0 {
			free &^= ban
		}
		if free == 0 {
			continue
		}
		if idx := w<<6 + bits.TrailingZeros64(free); idx < capC {
			reg := ir.MakeReg(c, idx)
			ts.hold(v, reg)
			ts.bias.record(cls, reg)
			return
		}
		break
	}
	ts.failVal = v
	if ts.file.Classed {
		ts.fail = fmt.Errorf("regassign: no admissible %s register for %s in %s", c, ts.f.NameOf(v), b.Name)
	} else {
		ts.fail = fmt.Errorf("regassign: no free register for %s in %s (pressure exceeds %d)",
			ts.f.NameOf(v), b.Name, capC)
	}
}

// walk scans block bid, then its dominator-tree children.
func (ts *treeScan) walk(bid int) {
	if ts.fail != nil {
		return
	}
	f, s := ts.f, ts.s
	b := f.Blocks[bid]
	if !ts.meter.Charge(len(b.Instrs) + 1) {
		ts.fail = ts.meter.Err()
		return
	}
	// A long-lived scratch (JSONL service workers) increments the epoch
	// once per block forever; on wrap, clear the stamps so a stale entry
	// from one full cycle ago cannot alias the current epoch.
	if s.epoch == math.MaxInt32 {
		clear(s.liveOutAt[:cap(s.liveOutAt)])
		clear(s.lastUseAt[:cap(s.lastUseAt)])
		s.epoch = 0
	}
	s.epoch++
	epoch := s.epoch
	for c := range s.inUse {
		clear(s.inUse[c])
	}
	// Registers already held at block entry: allocated live-in values.
	// Their defining blocks dominate this one, so they are coloured.
	for _, v := range ts.info.LiveIn[bid] {
		if ts.allocated[v] && ts.regOf[v] != NoReg {
			ts.hold(v, ts.regOf[v])
		}
	}
	for _, v := range ts.info.LiveOut[bid] {
		s.liveOutAt[v] = epoch
	}
	liveOut := func(v int) bool { return s.liveOutAt[v] == epoch }
	// Death points: last use index of each value not live-out.
	for i, ins := range b.Instrs {
		if ins.Op == ir.OpPhi {
			continue // phi uses live in predecessors
		}
		for _, u := range ins.Uses {
			if !liveOut(u) {
				s.lastUse[u] = int32(i)
				s.lastUseAt[u] = epoch
			}
		}
	}
	// diesAt reports whether v's last use in this block is instruction i;
	// i = -1 asks whether v is unused here.
	diesAt := func(v, i int) bool {
		if s.lastUseAt[v] != epoch {
			return i < 0
		}
		return int(s.lastUse[v]) == i
	}
	// Phi defs occupy registers from block entry.
	for _, ins := range b.Instrs {
		if ins.Op != ir.OpPhi {
			break
		}
		if ts.allocated[ins.Def] {
			if ts.assign(ins.Def, b); ts.fail != nil {
				return
			}
		}
	}
	// A phi def with no use in the block and not live-out dies at block
	// entry: it occupies a register only at the boundary instant (which
	// the liveness points account for) and must be freed before the
	// first non-phi instruction, or a dead phi def would pin a register
	// for the whole block and spuriously exhaust the register file.
	for _, ins := range b.Instrs {
		if ins.Op != ir.OpPhi {
			break
		}
		if d := ins.Def; ts.allocated[d] && !liveOut(d) && diesAt(d, -1) {
			ts.release(d)
		}
	}
	for i, ins := range b.Instrs {
		if ins.Op == ir.OpPhi {
			// Assigned above; death inside the block is freed by the
			// last-use processing below like any other value.
			continue
		}
		// Free the registers of allocated values dying at i — after
		// their use, before the def (use and def may share a register
		// only when the use dies here; freeing first models that).
		for _, u := range ins.Uses {
			if ts.allocated[u] && diesAt(u, i) {
				ts.release(u)
			}
		}
		if d := ins.Def; ins.Op.HasDef() && d != ir.NoValue && ts.allocated[d] {
			// A def dead on arrival (never used, not live-out) still
			// needs a register at the definition instant.
			if ts.assign(d, b); ts.fail != nil {
				return
			}
			if !liveOut(d) && diesAt(d, -1) {
				ts.release(d)
			}
		}
	}
	for _, c := range ts.dom.Children[bid] {
		ts.walk(c)
	}
}

// VerifyAssignment checks that no two simultaneously live allocated values
// share a register, using the per-point live sets.
func VerifyAssignment(info *liveness.Info, allocated []bool, regOf []int) error {
	maxReg := -1
	for _, reg := range regOf {
		if reg > maxReg {
			maxReg = reg
		}
	}
	seen := make([]int, maxReg+1)
	for i := range seen {
		seen[i] = -1
	}
	for _, p := range info.Points {
		for _, v := range p.Live {
			if !allocated[v] || regOf[v] == NoReg {
				continue
			}
			if prev := seen[regOf[v]]; prev >= 0 {
				return fmt.Errorf("regassign: values %s and %s share r%d at block %d point %d",
					info.F.NameOf(prev), info.F.NameOf(v), regOf[v], p.Block, p.Index)
			}
			seen[regOf[v]] = v
		}
		for _, v := range p.Live {
			if regOf[v] >= 0 {
				seen[regOf[v]] = -1
			}
		}
	}
	return nil
}
