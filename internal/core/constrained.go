package core

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/arch"
	"repro/internal/cliques"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/raerr"
	"repro/internal/regassign"
)

// Machine-constrained allocation: register classes, pre-colored ABI values,
// and call-clobber sets.
//
// The decoupled framework survives the constraints almost intact. Spilling
// stays a per-class pressure problem: the subgraph induced by one register
// class is chordal again (induced subgraphs of chordal graphs are chordal,
// and a subsequence of a perfect elimination order eliminates it perfectly),
// so each class is allocated independently against its own capacity by the
// same allocators as an unconstrained run. What the chordal model cannot
// express — a value that must hold one specific register, a register a call
// destroys mid-range — is folded into the constraint plan, three side
// inputs computed before allocation:
//
//   - forced spills: values whose constraints admit no register at all (a
//     pin clobbered by a spanned call, per-call per-class pressure above the
//     call-surviving capacity, a forbid mask covering the whole class);
//   - pins: the fixed register of each pre-colored value;
//   - forbid masks: per-value sets of banned within-class register indexes
//     (clobbered registers of spanned calls, the pin of every interfering
//     pre-colored value).
//
// Assignment then honors all three, and — because pins can still collide in
// ways pressure numbers do not see — force-spills the value the tree-scan
// got stuck on and retries (see driver.assign).

// plan is the constraint plan of a machine run. Its slices are reused
// across a Runner's functions.
type plan struct {
	// pins[v] is v's pre-color or NoReg; nil when no value is pinned.
	pins   []int
	pinBuf []int
	// forced marks the values no register can hold.
	forced []bool
	// forbid[v] is v's banned-index mask; anyBan reports a nonzero entry.
	forbid []uint64
	anyBan bool
	spans  []callSpan
}

// admitMachine rejects functions a machine run cannot take: non-SSA input,
// SSA the clique structure cannot model, and annotations the machine
// cannot express.
func admitMachine(f *ir.Func, dom *ir.Dominance, cons *arch.Constraints) error {
	if !f.SSA {
		return fmt.Errorf("%w: machine-constrained allocation requires strict SSA", raerr.ErrNotSSA)
	}
	switch reason := cliques.Inapplicable(f, dom); reason {
	case cliques.ReasonApplicable, cliques.ReasonConstrained:
	default:
		return fmt.Errorf("%w: %s", raerr.ErrNotSSA, reason)
	}
	return checkMachineCompat(f, cons)
}

// planConstraints computes the constraint plan of the run's function and
// hands its pins and forbid masks to the register file.
func (d *driver) planConstraints() {
	f, info, costs, caps := d.f, d.info, d.costs, d.file.Caps
	nv := f.NumValues
	pl := &d.runner.plan
	pl.pins = nil
	if len(f.PreColor) > 0 {
		pl.pinBuf = cleared(pl.pinBuf, nv)
		pl.pins = pl.pinBuf
		for i := range pl.pins {
			pl.pins[i] = regassign.NoReg
		}
		for v, pin := range f.PreColor {
			pl.pins[v] = pin
		}
	}
	pl.forced = cleared(pl.forced, nv)
	pl.forbid = cleared(pl.forbid, nv)
	pl.anyBan = false
	pl.spans = collectCallSpans(f, info)
	pins, forced := pl.pins, pl.forced
	ban := func(v int, mask uint64) {
		if mask != 0 {
			pl.forbid[v] |= mask
			pl.anyBan = true
		}
	}

	if pins != nil {
		// Pass 1 — a pre-colored value whose pin a spanned call clobbers
		// cannot keep its register across that call: forced spill.
		for _, span := range pl.spans {
			for _, v := range span.live {
				if pin := pins[v]; pin != regassign.NoReg &&
					span.clob[ir.RegClassOf(pin)]&(1<<uint(ir.RegIndexOf(pin))) != 0 {
					forced[v] = true
				}
			}
		}

		// Pass 2 — pre-color interference. A pinned value owns its register
		// for its whole live range, so every interfering value of the same
		// class is banned from that index; two interfering values pinned to
		// the same register are mutually exclusive, and the cheaper one
		// spills. The program-point live sets cover every interference
		// edge, so scanning points finds every such pair.
		for pi := range info.Points {
			live := info.Points[pi].Live
			for _, pv := range live {
				pin := pins[pv]
				if pin == regassign.NoReg || forced[pv] {
					continue
				}
				c, idx := ir.RegClassOf(pin), ir.RegIndexOf(pin)
				for _, v := range live {
					if v == pv || f.ClassOf(v) != c {
						continue
					}
					switch {
					case pins[v] == pin && !forced[v]:
						loser := v
						if costs[pv] < costs[v] || (costs[pv] == costs[v] && pv > v) {
							loser = pv
						}
						forced[loser] = true
					case pins[v] == regassign.NoReg:
						ban(v, 1<<uint(idx))
					}
				}
				if forced[pv] {
					break // lost its pin above; it bans nothing anymore
				}
			}
		}
	}

	// Pass 3 — per-call class pressure. A call leaves cap − |clobbered ∩
	// [0,cap)| registers of each class for the values that live through it;
	// beyond that the cheapest survivors spill.
	for _, span := range pl.spans {
		var cnt [ir.NumClasses]int
		var byClass [ir.NumClasses][]int
		for _, v := range span.live {
			if !forced[v] {
				c := f.ClassOf(v)
				cnt[c]++
				byClass[c] = append(byClass[c], v)
			}
		}
		for c := ir.Class(0); c < ir.NumClasses; c++ {
			avail := caps[c] - bits.OnesCount64(span.clob[c]&capMask(caps[c]))
			if cnt[c] <= avail {
				continue
			}
			cand := byClass[c]
			sort.Slice(cand, func(i, j int) bool {
				if costs[cand[i]] != costs[cand[j]] {
					return costs[cand[i]] < costs[cand[j]]
				}
				return cand[i] < cand[j]
			})
			for _, v := range cand[:cnt[c]-avail] {
				forced[v] = true
			}
		}
	}

	// Pass 4 — clobber avoidance for the surviving spanning values, then a
	// final sweep for values whose accumulated bans (e.g. the union of two
	// calls' disjoint clobber sets) cover the whole class.
	for _, span := range pl.spans {
		for _, v := range span.live {
			if !forced[v] {
				ban(v, span.clob[f.ClassOf(v)])
			}
		}
	}
	if pl.anyBan {
		for v := 0; v < nv; v++ {
			if forced[v] || d.cs.VertexOf[v] < 0 || (pins != nil && pins[v] != regassign.NoReg) {
				continue
			}
			if ^pl.forbid[v]&capMask(caps[f.ClassOf(v)]) == 0 {
				forced[v] = true
			}
		}
		d.file.Forbid = pl.forbid
	}
	d.plan = pl
	d.file.Pins = pins
}

// verify checks the class-and-pin half of a machine assignment, and that
// no value holds a caller-saved register across a call that clobbers it.
func (pl *plan) verify(f *ir.Func, allocatedVals []bool, regOf []int, caps [ir.NumClasses]int) error {
	if err := regassign.VerifyClassAssignment(f, allocatedVals, regOf, caps); err != nil {
		return fmt.Errorf("assignment verification failed: %w", err)
	}
	for _, span := range pl.spans {
		for _, v := range span.live {
			if allocatedVals[v] && regOf[v] != regassign.NoReg &&
				span.clob[ir.RegClassOf(regOf[v])]&(1<<uint(ir.RegIndexOf(regOf[v]))) != 0 {
				return fmt.Errorf("value %s holds caller-saved %s across a clobbering call",
					f.NameOf(v), ir.RegName(regOf[v]))
			}
		}
	}
	return nil
}

// checkMachineCompat rejects annotations the machine cannot express: a value
// of an absent register class, or a pre-color outside the class capacity.
func checkMachineCompat(f *ir.Func, cons *arch.Constraints) error {
	for v, c := range f.ValueClass {
		if cons.Cap(c) == 0 {
			return fmt.Errorf("%w: %s is %s but machine %q has no %s registers",
				raerr.ErrMachineMismatch, f.NameOf(v), c, cons.Machine, c)
		}
	}
	for v, pin := range f.PreColor {
		c := ir.RegClassOf(pin)
		if ir.RegIndexOf(pin) >= cons.Cap(c) {
			return fmt.Errorf("%w: %s is pre-colored %s but machine %q caps %s at %d registers",
				raerr.ErrMachineMismatch, f.NameOf(v), ir.RegName(pin), cons.Machine, c, cons.Cap(c))
		}
	}
	return nil
}

// callSpan is one clobber-carrying call with a nonempty live-through set:
// the values that must survive it, and the clobbered register indexes as one
// bitmask per class.
type callSpan struct {
	clob [ir.NumClasses]uint64
	live []int
}

// collectCallSpans pairs each clobbering call's live-through values with its
// per-class clobber masks, in deterministic program order.
func collectCallSpans(f *ir.Func, info *liveness.Info) []callSpan {
	spans := regassign.LiveThroughCalls(info)
	keys := make([][2]int, 0, len(spans))
	for k := range spans {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	out := make([]callSpan, 0, len(keys))
	for _, k := range keys {
		span := callSpan{live: spans[k]}
		for _, ref := range f.Blocks[k[0]].Instrs[k[1]].Clobbers {
			span.clob[ir.RegClassOf(ref)] |= 1 << uint(ir.RegIndexOf(ref))
		}
		out = append(out, span)
	}
	return out
}

// capMask returns the bitmask of the register indexes [0, cap).
func capMask(cap int) uint64 {
	if cap >= 64 {
		return ^uint64(0)
	}
	return 1<<uint(cap) - 1
}

// cleared returns s resized to n with every element zeroed, reusing its
// storage when it is large enough.
func cleared[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}
