package match

import "fmt"

// Semantics selects which maximum match relation a pattern denotes. It is
// data all the way down: a field of the engine's query and of the result
// cache's key, and an argument of the one refinement kernel (internal/bsim)
// and of the partitioned evaluator — never a separate code path.
type Semantics uint8

// Semantics values. The zero value is the paper's.
const (
	// Bounded is bounded simulation (Fan et al., PVLDB 2010): every
	// pattern out-edge (u,u') with bound k obliges a matching descendant
	// within k hops.
	Bounded Semantics = iota
	// Dual is bounded dual simulation (Ma et al., VLDB 2012): Bounded plus
	// the parent obligation — every pattern in-edge (u0,u) with bound k
	// obliges a matching ancestor within k hops.
	Dual
)

// ParseSemantics resolves a wire name; "" means Bounded.
func ParseSemantics(name string) (Semantics, error) {
	switch name {
	case "", "bounded":
		return Bounded, nil
	case "dual":
		return Dual, nil
	}
	return Bounded, fmt.Errorf("unknown semantics %q", name)
}
