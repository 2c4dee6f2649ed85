package ir

// Clone deep-copies f. All instruction use/target lists (and the block
// pred/succ lists) are carved from one exact-size int slab, the Block
// headers from one Block slab, and every block's instruction list from one
// exact-size Instr slab, so the clone costs a handful of allocations rather
// than one (or three) per block. The instruction windows are capacity-
// clamped, so a later append to one block's Instrs reallocates instead of
// clobbering its slab neighbour. Slice nil-ness is preserved, and a nil
// ValueName map stays nil.
func (f *Func) Clone() *Func { return f.CloneGrow(0, 0) }

// CloneGrow is Clone with room reserved in the value annotation maps: names
// more ValueName entries and classes more ValueClass entries fit without
// either map growing. A nil map stays nil unless room is asked for.
func (f *Func) CloneGrow(names, classes int) *Func {
	g := &Func{
		Name:      f.Name,
		NumValues: f.NumValues,
		SSA:       f.SSA,
	}
	if f.ValueName != nil || names > 0 {
		g.ValueName = make(map[int]string, len(f.ValueName)+names)
		for k, v := range f.ValueName {
			g.ValueName[k] = v
		}
	}
	if f.ValueClass != nil || classes > 0 {
		g.ValueClass = make(map[int]Class, len(f.ValueClass)+classes)
		for k, v := range f.ValueClass {
			g.ValueClass[k] = v
		}
	}
	if f.PreColor != nil {
		g.PreColor = make(map[int]int, len(f.PreColor))
		for k, v := range f.PreColor {
			g.PreColor[k] = v
		}
	}
	total, ninstr := 0, 0
	for _, b := range f.Blocks {
		total += len(b.Preds) + len(b.Succs)
		ninstr += len(b.Instrs)
		for _, ins := range b.Instrs {
			total += len(ins.Uses) + len(ins.Targets) + len(ins.Clobbers)
		}
	}
	slab := make([]int, 0, total)
	carve := func(s []int) []int {
		if len(s) == 0 {
			return s // preserve nil-ness and empty slices as-is
		}
		start := len(slab)
		slab = append(slab, s...)
		return slab[start:len(slab):len(slab)]
	}
	blocks := make([]Block, len(f.Blocks))
	instrs := make([]Instr, 0, ninstr)
	g.Blocks = make([]*Block, 0, len(f.Blocks))
	for bi, b := range f.Blocks {
		nb := &blocks[bi]
		*nb = Block{
			ID:        b.ID,
			Name:      b.Name,
			Preds:     carve(b.Preds),
			Succs:     carve(b.Succs),
			LoopDepth: b.LoopDepth,
		}
		start := len(instrs)
		for _, ins := range b.Instrs {
			ins.Uses = carve(ins.Uses)
			ins.Targets = carve(ins.Targets)
			ins.Clobbers = carve(ins.Clobbers)
			instrs = append(instrs, ins)
		}
		nb.Instrs = instrs[start:len(instrs):len(instrs)]
		g.Blocks = append(g.Blocks, nb)
	}
	return g
}
