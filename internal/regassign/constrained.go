package regassign

import (
	"fmt"

	"repro/internal/ir"
	"repro/internal/liveness"
)

// VerifyClassAssignment checks the class-and-pin half of a constrained
// assignment: every allocated value holds a register of its own class with
// an index inside the class capacity, and pre-colored values hold exactly
// their pin. Interference freedom is VerifyAssignment's job (RegRefs are
// plain ints, so it applies unchanged); clobber avoidance is checked by
// the driver's constraint plan, which knows the call spans.
func VerifyClassAssignment(f *ir.Func, allocated []bool, regOf []int, caps [ir.NumClasses]int) error {
	for v, reg := range regOf {
		if reg == NoReg {
			continue
		}
		if !allocated[v] {
			return fmt.Errorf("regassign: spilled value %s holds %s", f.NameOf(v), ir.RegName(reg))
		}
		c := f.ClassOf(v)
		if ir.RegClassOf(reg) != c {
			return fmt.Errorf("regassign: %s value %s assigned %s", c, f.NameOf(v), ir.RegName(reg))
		}
		if idx := ir.RegIndexOf(reg); idx >= caps[c] {
			return fmt.Errorf("regassign: %s assigned %s outside class capacity %d",
				f.NameOf(v), ir.RegName(reg), caps[c])
		}
		if pin, ok := f.PreColorOf(v); ok && reg != pin {
			return fmt.Errorf("regassign: pre-colored value %s holds %s instead of %s",
				f.NameOf(v), ir.RegName(reg), ir.RegName(pin))
		}
	}
	return nil
}

// liveThrough reports the values live across each clobbering call. It is a
// shared helper for the constraint plan and the differential verifier:
// the returned map keys each call instruction (by block and index) to the
// sorted list of values live both before and after it.
func liveThrough(info *liveness.Info) map[[2]int][]int {
	f := info.F
	spans := make(map[[2]int][]int)
	// Points run block by block in ascending Index, and the first point of
	// a (block, index) is its live-before set; a dead def's definition
	// instant may follow it with the same index. Every non-phi instruction
	// has a live-before point, so the sets around a call at index i are the
	// first points of i and i+1, met one after the other in a single walk.
	before := -1 // index in Points of the last live-before point
	for pi, p := range info.Points {
		if before >= 0 {
			q := info.Points[before]
			if q.Block == p.Block && q.Index == p.Index {
				continue
			}
			if q.Block == p.Block && q.Index+1 == p.Index {
				ins := &f.Blocks[p.Block].Instrs[q.Index]
				if ins.Op == ir.OpCall && len(ins.Clobbers) > 0 {
					if out := intersectSorted(q.Live, p.Live); len(out) > 0 {
						spans[[2]int{p.Block, q.Index}] = out
					}
				}
			}
		}
		before = pi
	}
	return spans
}

// intersectSorted returns the values two ascending lists share.
func intersectSorted(a, b []int) []int {
	var out []int
	x, y := 0, 0
	for x < len(a) && y < len(b) {
		switch {
		case a[x] < b[y]:
			x++
		case a[x] > b[y]:
			y++
		default:
			out = append(out, a[x])
			x++
			y++
		}
	}
	return out
}

// LiveThroughCalls exposes the per-call live-through sets: for every OpCall
// carrying a clobber set, the values live both before and after it, keyed
// by (block ID, instruction index). A value in that set that is assigned a
// register the call clobbers loses its content — the exact miscompile the
// clobber checks exist to catch.
func LiveThroughCalls(info *liveness.Info) map[[2]int][]int { return liveThrough(info) }
