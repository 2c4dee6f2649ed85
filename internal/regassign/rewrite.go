package regassign

import (
	"strconv"
	"strings"

	"repro/internal/ir"
)

// InsertSpillCode rewrites f (in place is avoided: a deep copy is returned)
// applying spill-everywhere code generation for the spilled values: a spill
// (store) is inserted right after each spilled definition, and every use is
// rewritten to a freshly reloaded value. Phi operands reload at the end of
// the predecessor block; spilled phi defs spill at the top of their block.
// The returned function is still strict SSA.
//
// A counting pass sizes everything up front, so the rewrite's allocations do
// not grow with the number of spills or reloads. The rewritten instruction
// lists of every touched block are carved from one exact-size
// function-level slab (capacity-clamped windows, so a later append
// reallocates instead of clobbering a neighbour), with room left before a
// predecessor's terminator for the phi-operand reloads it receives; the
// singleton use list of every spill comes from one int slab; the reload
// names (<name>.r) are cut from one pre-sized string; and the clone's name
// and class maps are born large enough for the reloads.
func InsertSpillCode(f *ir.Func, spilled []bool) *ir.Func {
	isSpilled := func(v int) bool { return v < len(spilled) && spilled[v] }
	anySpill := false
	for _, s := range spilled {
		if s {
			anySpill = true
			break
		}
	}
	if !anySpill {
		return f.Clone()
	}
	// Per block: extra[b] counts the instructions its own rewrite adds (one
	// reload per spilled non-phi use, one spill per spilled def; spills
	// counts defs, so it is exact for non-SSA functions with several defs per
	// value too), phiIn[b] the phi-operand reloads it receives as a
	// predecessor.
	nb := len(f.Blocks)
	counts := make([]int, 2*nb)
	extra, phiIn := counts[:nb], counts[nb:]
	reloads, classed, nameBytes, slabLen, nspills := 0, 0, 0, 0, 0
	countReload := func(u int) {
		reloads++
		if f.ClassOf(u) != ir.ClassGPR {
			classed++
		}
		nameBytes += nameLen(f, u) + len(".r")
	}
	for bi, b := range f.Blocks {
		for _, ins := range b.Instrs {
			if ins.Op == ir.OpPhi {
				for k, u := range ins.Uses {
					if isSpilled(u) && k < len(b.Preds) {
						phiIn[b.Preds[k]]++
						countReload(u)
					}
				}
			} else {
				for _, u := range ins.Uses {
					if isSpilled(u) {
						extra[bi]++
						countReload(u)
					}
				}
			}
			if ins.Op.HasDef() && ins.Def != ir.NoValue && isSpilled(ins.Def) {
				extra[bi]++
				nspills++
			}
		}
	}
	for bi, b := range f.Blocks {
		if extra[bi]+phiIn[bi] > 0 {
			slabLen += len(b.Instrs) + extra[bi] + phiIn[bi]
		}
	}

	g := f.CloneGrow(reloads, classed)
	if g.ValueName == nil {
		g.ValueName = make(map[int]string)
	}
	var names strings.Builder
	names.Grow(nameBytes)
	newReload := func(u int) ir.Instr {
		nv := g.NewValue()
		start := names.Len()
		writeName(&names, f, u)
		names.WriteString(".r")
		// The buffer was sized for every name, so it never moves: each name
		// is a window of the one string it is building.
		g.ValueName[nv] = names.String()[start:]
		// A reload temp lives in the spilled value's class (but is never
		// pinned: only the original def range keeps an ABI color).
		g.SetClass(nv, g.ClassOf(u))
		return ir.Instr{Op: ir.OpReload, Def: nv, Imm: int64(u)}
	}

	slab := make([]ir.Instr, 0, slabLen)
	spillUses := make([]int, 0, nspills)
	spill := func(v int) {
		spillUses = append(spillUses, v)
		slab = append(slab, ir.Instr{Op: ir.OpSpill, Def: ir.NoValue,
			Uses: spillUses[len(spillUses)-1 : len(spillUses) : len(spillUses)]})
	}
	// Spills of phi defs must not interleave with the phi block: they go
	// right after the last phi.
	spillPhis := func(phis []ir.Instr) {
		for _, ins := range phis {
			if ins.Def != ir.NoValue && isSpilled(ins.Def) {
				spill(ins.Def)
			}
		}
	}
	for bi, b := range g.Blocks {
		if extra[bi]+phiIn[bi] == 0 {
			continue
		}
		start := len(slab)
		nphi := 0
		for ii := range b.Instrs {
			ins := &b.Instrs[ii]
			if ins.Op == ir.OpPhi {
				// Operand reloads belong in predecessors; handled below.
				slab = append(slab, *ins)
				nphi = ii + 1
				continue
			}
			if ii == nphi {
				spillPhis(b.Instrs[:nphi])
			}
			// The clone owns its Uses storage, so reloads rewrite operands
			// in place instead of copying every instruction's use list.
			for k, u := range ins.Uses {
				if isSpilled(u) {
					slab = append(slab, newReload(u))
					ins.Uses[k] = slab[len(slab)-1].Def
				}
			}
			slab = append(slab, *ins)
			if ins.Op.HasDef() && ins.Def != ir.NoValue && isSpilled(ins.Def) {
				spill(ins.Def)
			}
		}
		if nphi == len(b.Instrs) {
			spillPhis(b.Instrs)
		}
		if k := phiIn[bi]; k > 0 {
			// Leave room for the k phi-operand reloads before the last
			// instruction (the terminator); phiIn[bi] becomes the window
			// position the next one is written at.
			end := len(slab)
			slab = slab[:end+k]
			slab[end+k-1] = slab[end-1]
			phiIn[bi] = end - 1 - start
		}
		b.Instrs = slab[start:len(slab):len(slab)]
	}
	// Phi operand reloads: each lands in its predecessor's reserved room,
	// in block, phi and operand order, and rewrites the operand.
	for _, b := range g.Blocks {
		for ii := range b.Instrs {
			ins := &b.Instrs[ii]
			if ins.Op != ir.OpPhi {
				break
			}
			for k, u := range ins.Uses {
				if !isSpilled(u) || k >= len(b.Preds) {
					continue
				}
				p := b.Preds[k]
				r := newReload(u)
				g.Blocks[p].Instrs[phiIn[p]] = r
				phiIn[p]++
				ins.Uses[k] = r.Def
			}
		}
	}
	return g
}

// nameLen is len(f.NameOf(v)), without building the name.
func nameLen(f *ir.Func, v int) int {
	if n, ok := f.ValueName[v]; ok {
		return len(n)
	}
	n := 2 // "v" and the first digit
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// writeName writes f.NameOf(v) to b without building the name on its own.
func writeName(b *strings.Builder, f *ir.Func, v int) {
	if n, ok := f.ValueName[v]; ok {
		b.WriteString(n)
		return
	}
	var digits [20]byte
	b.WriteByte('v')
	b.Write(strconv.AppendInt(digits[:0], int64(v), 10))
}
