package ir

import "math/bits"

// Dominance holds the dominator tree of a function, computed with the
// Cooper–Harvey–Kennedy iterative algorithm ("A Simple, Fast Dominance
// Algorithm"). Block 0 is the root; unreachable blocks have Idom -1 and are
// excluded from the tree.
//
// The tree is also numbered in preorder. A block's subtree then occupies
// one interval of preorder numbers, [pre(b), last(b)], so Dominates is two
// comparisons instead of an idom-chain walk. Unreachable blocks get an
// empty interval: they dominate nothing and nothing dominates them.
type Dominance struct {
	// Idom[b] is the immediate dominator of block b (-1 for the entry and
	// for unreachable blocks).
	Idom []int
	// Children[b] lists the blocks immediately dominated by b, in
	// reverse-postorder for determinism.
	Children [][]int
	// Order[b] is the reverse-postorder number of block b (-1 if
	// unreachable).
	Order []int
	// Postorder lists reachable block IDs in postorder.
	Postorder []int

	// span[b] packs pre(b) into its high half and last(b) into its low
	// half, so the interval numbering costs one slice and no storage
	// beyond what the earlier steps already allocated.
	span []int
}

// The halves of a span entry. Like the DFS stack packing below, this
// bounds the block count by the square root of the int range.
const (
	spanShift = bits.UintSize / 2
	spanLow   = 1<<spanShift - 1
)

// ComputeDominance builds dominance information for f. All integer arrays
// (Idom, Order, Postorder, the DFS worklist and later the Children
// backing) are carved from one slab, and the Children prefix counts are
// reused for the interval numbering, so a call costs a handful of
// allocations regardless of block count.
func (f *Func) ComputeDominance() *Dominance {
	n := len(f.Blocks)
	slab := make([]int, 4*n)
	d := &Dominance{
		Idom:     slab[0:n:n],
		Order:    slab[n : 2*n : 2*n],
		Children: make([][]int, n),
	}
	for i := range d.Idom {
		d.Idom[i] = -1
		d.Order[i] = -1
	}
	// Iterative DFS postorder from the entry. The stack packs (block, next
	// successor index) into one int each to stay inside the slab; the
	// modulus must exceed every successor count, which can top n+1 when a
	// block lists the same successor twice (a condbr with equal targets in
	// a tiny function). Order marks visited blocks (0) until the walk is
	// done and it receives the real numbers.
	mod := n + 1
	for _, b := range f.Blocks {
		if len(b.Succs) >= mod {
			mod = len(b.Succs) + 1
		}
	}
	post := slab[2*n : 2*n : 3*n]
	stack := slab[3*n : 3*n : 4*n]
	push := func(b int) { stack = append(stack, b*mod) }
	push(0)
	d.Order[0] = 0
	for len(stack) > 0 {
		top := stack[len(stack)-1]
		block, next := top/mod, top%mod
		succs := f.Blocks[block].Succs
		if next < len(succs) {
			stack[len(stack)-1]++
			if s := succs[next]; d.Order[s] < 0 {
				d.Order[s] = 0
				push(s)
			}
			continue
		}
		post = append(post, block)
		stack = stack[:len(stack)-1]
	}
	d.Postorder = post
	for i, b := range post {
		d.Order[b] = len(post) - 1 - i
	}

	// Iterate to fixpoint over reverse postorder.
	d.Idom[0] = 0 // CHK convention: entry's idom is itself during iteration
	for changed := true; changed; {
		changed = false
		for i := len(post) - 1; i >= 0; i-- {
			b := post[i]
			if b == 0 {
				continue
			}
			newIdom := -1
			for _, p := range f.Blocks[b].Preds {
				if d.Order[p] < 0 || d.Idom[p] == -1 {
					continue // unreachable or not yet processed
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = d.intersect(p, newIdom)
				}
			}
			if newIdom != -1 && d.Idom[b] != newIdom {
				d.Idom[b] = newIdom
				changed = true
			}
		}
	}
	d.Idom[0] = -1 // restore the usual convention for the entry
	// Children in reverse postorder, backed by the DFS stack's quarter of
	// the slab (the walk is over; at most n-1 blocks have a parent).
	counts := make([]int, n+1)
	for _, b := range post {
		if b != 0 {
			if p := d.Idom[b]; p >= 0 {
				counts[p+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		counts[i+1] += counts[i]
	}
	kids := slab[3*n : 3*n+counts[n]]
	fill := counts // prefix sums double as fill cursors
	for i := len(post) - 1; i >= 0; i-- {
		b := post[i]
		if b == 0 {
			continue
		}
		if p := d.Idom[b]; p >= 0 {
			kids[fill[p]] = b
			fill[p]++
		}
	}
	off := 0
	for p := 0; p < n; p++ {
		end := fill[p]
		d.Children[p] = kids[off:end:end]
		off = end
	}
	d.numberIntervals(counts[:n])
	return d
}

// numberIntervals fills span (see Dominance). In CFG postorder every block
// comes before its immediate dominator, so one postorder sweep sums subtree
// sizes into the low halves, and one reverse-postorder sweep hands each
// block's children consecutive ranges after its own preorder number.
// Unreachable blocks get pre = n and last = 0, an interval no block is in.
func (d *Dominance) numberIntervals(span []int) {
	d.span = span
	clear(span)
	for _, b := range d.Postorder {
		span[b]++
		if b != 0 {
			span[d.Idom[b]] += span[b]
		}
	}
	span[0]-- // the entry: pre 0, last = size-1
	for i := len(d.Postorder) - 1; i >= 0; i-- {
		b := d.Postorder[i]
		next := span[b]>>spanShift + 1
		for _, c := range d.Children[b] {
			size := span[c]
			span[c] = next<<spanShift | (next + size - 1)
			next += size
		}
	}
	for b, o := range d.Order {
		if o < 0 {
			span[b] = len(span) << spanShift
		}
	}
}

func (d *Dominance) intersect(a, b int) int {
	for a != b {
		for d.Order[a] > d.Order[b] {
			a = d.Idom[a]
		}
		for d.Order[b] > d.Order[a] {
			b = d.Idom[b]
		}
	}
	return a
}

// Dominates reports whether block a dominates block b (reflexively).
func (d *Dominance) Dominates(a, b int) bool {
	sa, pb := d.span[a], d.span[b]>>spanShift
	return sa>>spanShift <= pb && pb <= sa&spanLow
}

// ComputeLoops fills Block.LoopDepth using natural loops: for every back
// edge u→h (where h dominates u), all blocks that reach u without passing
// through h belong to h's loop. Depth is the number of distinct loop headers
// whose loop contains the block. It returns the set of loop headers.
func (f *Func) ComputeLoops(dom *Dominance) []int {
	n := len(f.Blocks)
	for _, b := range f.Blocks {
		b.LoopDepth = 0
	}
	var headers []int
	isHeader := make([]bool, n)
	for _, b := range f.Blocks {
		for _, s := range b.Succs {
			if dom.Dominates(s, b.ID) && !isHeader[s] {
				isHeader[s] = true
				headers = append(headers, s)
			}
		}
	}
	if len(headers) == 0 {
		return nil
	}
	// One membership sweep per header: the union of the natural loops of
	// its back edges, bumping LoopDepth of every member.
	inLoop := make([]bool, n)
	stack := make([]int, 0, n)
	for _, h := range headers {
		for i := range inLoop {
			inLoop[i] = false
		}
		inLoop[h] = true
		for _, b := range f.Blocks {
			for _, s := range b.Succs {
				if s != h || !dom.Dominates(h, b.ID) {
					continue
				}
				// Collect the natural loop of back edge b→h.
				stack = append(stack[:0], b.ID)
				for len(stack) > 0 {
					x := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					if inLoop[x] {
						continue
					}
					inLoop[x] = true
					for _, p := range f.Blocks[x].Preds {
						if !inLoop[p] {
							stack = append(stack, p)
						}
					}
				}
			}
		}
		for _, b := range f.Blocks {
			if inLoop[b.ID] {
				b.LoopDepth++
			}
		}
	}
	return headers
}
