// Package coalesce implements coalescing-biased register assignment:
// copy-related values (φ operands and explicit copies) are grouped into
// affinity classes, and the tree-scan assigner gives a value its affine
// partners' register when it is free, so the move between them disappears.
// The paper's conclusion (§8) lists the interaction between layered
// allocation and coalescing as the main open integration question; this
// package measures it with the two classical merge policies:
//
//   - Aggressive: merge every copy-related, non-interfering pair (Chaitin).
//   - Conservative: merge only when the Briggs criterion holds — the merged
//     class has fewer than R neighbours of significant degree (≥ R).
//
// Everything works on the clique structure (internal/cliques); no
// interference graph is built. Bias never changes which values are
// allocated, so it never costs a spill.
package coalesce

// Policy selects the merge criterion. The zero value is Off so that configs
// which never mention coalescing keep the historical (unbiased) behavior.
type Policy int

const (
	// Off performs no coalescing: assignment is unbiased, byte-identical to
	// the pre-coalescing pipeline.
	Off Policy = iota
	// Aggressive merges every non-interfering copy-related pair (Chaitin).
	Aggressive
	// Conservative applies the Briggs test with R registers.
	Conservative
)

// String returns the canonical policy name ("off", "aggressive",
// "conservative").
func (p Policy) String() string {
	switch p {
	case Off:
		return "off"
	case Aggressive:
		return "aggressive"
	case Conservative:
		return "conservative"
	}
	return "invalid"
}

// Valid reports whether p is one of the defined policies.
func (p Policy) Valid() bool { return p >= Off && p <= Conservative }

// PolicyByName resolves a policy name. The empty string and "off" map to
// Off; "aggressive" and "conservative" (or "briggs") to the two merge
// criteria.
func PolicyByName(name string) (Policy, bool) {
	switch name {
	case "", "off":
		return Off, true
	case "aggressive":
		return Aggressive, true
	case "conservative", "briggs":
		return Conservative, true
	}
	return Off, false
}
