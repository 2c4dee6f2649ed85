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
	// First point (layout order) per (block, instr index): the live-before
	// set. Points with the same index may appear twice (live-before, then a
	// dead def's definition instant); the first is the live-before one.
	type key = [2]int
	before := make(map[key]int, len(info.Points))
	for pi, p := range info.Points {
		k := key{p.Block, p.Index}
		if _, ok := before[k]; !ok {
			before[k] = pi
		}
	}
	spans := make(map[key][]int)
	for _, b := range f.Blocks {
		for i := range b.Instrs {
			ins := &b.Instrs[i]
			if ins.Op != ir.OpCall || len(ins.Clobbers) == 0 {
				continue
			}
			bi, okB := before[key{b.ID, i}]
			ai, okA := before[key{b.ID, i + 1}]
			if !okB || !okA {
				continue // unreachable block: no points, nothing live
			}
			liveB, liveA := info.Points[bi].Live, info.Points[ai].Live
			// Both sorted ascending: intersect linearly.
			var out []int
			x, y := 0, 0
			for x < len(liveB) && y < len(liveA) {
				switch {
				case liveB[x] < liveA[y]:
					x++
				case liveB[x] > liveA[y]:
					y++
				default:
					out = append(out, liveB[x])
					x++
					y++
				}
			}
			if len(out) > 0 {
				spans[key{b.ID, i}] = out
			}
		}
	}
	return spans
}

// LiveThroughCalls exposes the per-call live-through sets: for every OpCall
// carrying a clobber set, the values live both before and after it, keyed
// by (block ID, instruction index). A value in that set that is assigned a
// register the call clobbers loses its content — the exact miscompile the
// clobber checks exist to catch.
func LiveThroughCalls(info *liveness.Info) map[[2]int][]int { return liveThrough(info) }
