package pattern

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Unbounded is the edge bound meaning "any nonempty path" (spelled `*` in
// the DSL), handled via reachability rather than bounded BFS.
const Unbounded = -1

// NodeIdx indexes a pattern node within its Pattern.
type NodeIdx int

// Node is a pattern (query) node: a named placeholder with a search
// condition, e.g. SA with [label="SA", experience >= 5].
type Node struct {
	Name string
	Pred Predicate
}

// Edge is a pattern edge with a hop bound: a match of From must reach a
// match of To via a nonempty path of length <= Bound (or any length when
// Bound == Unbounded).
type Edge struct {
	From, To NodeIdx
	Bound    int
}

// Pattern is a bounded-simulation query: pattern nodes with predicates,
// bounded edges, and one output node whose matches are ranked and returned
// to the user as the experts sought.
//
// A pattern is mutable while it is built and frozen (Freeze) once it is
// shared: from then on AddNode, AddEdge, SetOutput and UnmarshalJSON
// panic, and Hash returns the digest Freeze stored, so concurrent readers
// of a shared pattern never write to it.
type Pattern struct {
	nodes  []Node
	edges  []Edge
	byName map[string]NodeIdx
	output NodeIdx // -1 until set
	hash   string  // the canonical digest; set by Freeze
	frozen bool
}

// New returns an empty pattern.
func New() *Pattern {
	return &Pattern{byName: map[string]NodeIdx{}, output: -1}
}

// Validation errors.
var (
	ErrDupName    = errors.New("pattern: duplicate node name")
	ErrNoSuchNode = errors.New("pattern: no such node")
	ErrBadBound   = errors.New("pattern: bound must be >= 1 or Unbounded")
	ErrNoOutput   = errors.New("pattern: no output node designated")
	ErrEmpty      = errors.New("pattern: no nodes")
	ErrDupEdge    = errors.New("pattern: duplicate edge")
)

// Freeze makes the pattern immutable and stores its Hash, which every
// later Hash returns. A second Freeze writes nothing. Clone yields a
// mutable copy.
func (p *Pattern) Freeze() {
	if p.frozen { // no write to a pattern other goroutines may be reading
		return
	}
	p.hash = p.computeHash()
	p.frozen = true
}

func (p *Pattern) mutable() {
	if p.frozen {
		panic("pattern: mutation of a frozen pattern (it may be shared; Clone it first)")
	}
}

// AddNode appends a pattern node and returns its index.
func (p *Pattern) AddNode(name string, pred Predicate) (NodeIdx, error) {
	p.mutable()
	if _, ok := p.byName[name]; ok {
		return 0, fmt.Errorf("%w: %q", ErrDupName, name)
	}
	idx := NodeIdx(len(p.nodes))
	p.nodes = append(p.nodes, Node{Name: name, Pred: pred})
	p.byName[name] = idx
	return idx, nil
}

// MustAddNode is AddNode for statically known-good inputs (tests, builtins).
func (p *Pattern) MustAddNode(name string, pred Predicate) NodeIdx {
	idx, err := p.AddNode(name, pred)
	if err != nil {
		panic(err)
	}
	return idx
}

// AddEdge appends a bounded edge between existing nodes. Self-edges are
// allowed in patterns (a match must lie on a cycle of length <= bound).
func (p *Pattern) AddEdge(from, to NodeIdx, bound int) error {
	p.mutable()
	if int(from) < 0 || int(from) >= len(p.nodes) || int(to) < 0 || int(to) >= len(p.nodes) {
		return ErrNoSuchNode
	}
	if bound != Unbounded && bound < 1 {
		return fmt.Errorf("%w: %d", ErrBadBound, bound)
	}
	for _, e := range p.edges {
		if e.From == from && e.To == to {
			return fmt.Errorf("%w: %s->%s", ErrDupEdge, p.nodes[from].Name, p.nodes[to].Name)
		}
	}
	p.edges = append(p.edges, Edge{From: from, To: to, Bound: bound})
	return nil
}

// MustAddEdge is AddEdge for statically known-good inputs.
func (p *Pattern) MustAddEdge(from, to NodeIdx, bound int) {
	if err := p.AddEdge(from, to, bound); err != nil {
		panic(err)
	}
}

// SetOutput designates the output node (the `*` node in the paper's Fig. 1).
func (p *Pattern) SetOutput(idx NodeIdx) error {
	p.mutable()
	if int(idx) < 0 || int(idx) >= len(p.nodes) {
		return ErrNoSuchNode
	}
	p.output = idx
	return nil
}

// Output returns the output node index, or -1 if none was designated.
func (p *Pattern) Output() NodeIdx { return p.output }

// NumNodes returns the number of pattern nodes.
func (p *Pattern) NumNodes() int { return len(p.nodes) }

// NumEdges returns the number of pattern edges.
func (p *Pattern) NumEdges() int { return len(p.edges) }

// Node returns the pattern node at idx; it panics on out-of-range indices
// because pattern indices always originate from the pattern itself.
func (p *Pattern) Node(idx NodeIdx) Node { return p.nodes[idx] }

// Edges returns the pattern edges. The slice is owned by the pattern.
func (p *Pattern) Edges() []Edge { return p.edges }

// Lookup resolves a node name to its index.
func (p *Pattern) Lookup(name string) (NodeIdx, bool) {
	idx, ok := p.byName[name]
	return idx, ok
}

// OutEdges returns the edges leaving node idx.
func (p *Pattern) OutEdges(idx NodeIdx) []Edge {
	var out []Edge
	for _, e := range p.edges {
		if e.From == idx {
			out = append(out, e)
		}
	}
	return out
}

// InEdges returns the edges entering node idx.
func (p *Pattern) InEdges(idx NodeIdx) []Edge {
	var in []Edge
	for _, e := range p.edges {
		if e.To == idx {
			in = append(in, e)
		}
	}
	return in
}

// Validate checks structural well-formedness: nonempty, an output node is
// set. (Edges and names are validated on insertion.)
func (p *Pattern) Validate() error {
	if len(p.nodes) == 0 {
		return ErrEmpty
	}
	if p.output < 0 {
		return ErrNoOutput
	}
	return nil
}

// IsPlainSimulation reports whether every edge bound is exactly 1, in which
// case the query is an ordinary graph-simulation query and the engine routes
// it to the quadratic HHK algorithm instead of the cubic bounded-simulation
// one ("optimized query plans" in the demo).
func (p *Pattern) IsPlainSimulation() bool {
	for _, e := range p.edges {
		if e.Bound != 1 {
			return false
		}
	}
	return true
}

// MaxBound returns the largest finite bound, and whether any edge is
// unbounded.
func (p *Pattern) MaxBound() (max int, hasUnbounded bool) {
	for _, e := range p.edges {
		if e.Bound == Unbounded {
			hasUnbounded = true
		} else if e.Bound > max {
			max = e.Bound
		}
	}
	return max, hasUnbounded
}

// Clone returns a deep, mutable copy of the pattern.
func (p *Pattern) Clone() *Pattern {
	c := New()
	for _, n := range p.nodes {
		pred := Predicate{Conds: append([]Condition(nil), n.Pred.Conds...)}
		c.MustAddNode(n.Name, pred)
	}
	for _, e := range p.edges {
		c.MustAddEdge(e.From, e.To, e.Bound)
	}
	c.output = p.output
	return c
}

// String renders the pattern in DSL syntax (parsable by Parse).
func (p *Pattern) String() string {
	var b strings.Builder
	for i, n := range p.nodes {
		fmt.Fprintf(&b, "node %s %s", n.Name, n.Pred)
		if NodeIdx(i) == p.output {
			b.WriteString(" output")
		}
		b.WriteByte('\n')
	}
	for _, e := range p.edges {
		bound := "*"
		if e.Bound != Unbounded {
			bound = fmt.Sprintf("%d", e.Bound)
		}
		fmt.Fprintf(&b, "edge %s -> %s bound %s\n", p.nodes[e.From].Name, p.nodes[e.To].Name, bound)
	}
	return b.String()
}

// Canon returns a canonical rendering used for cache keys: node order and
// names are preserved (patterns are small and authored once) but predicate
// condition order is normalized. Node i renders as "n<i>:<name>:<pred>;",
// edges as "e<from>><to>@<bound>;", and the output node as "out<idx>".
func (p *Pattern) Canon() string { return string(p.appendCanon(nil)) }

func (p *Pattern) appendCanon(b []byte) []byte {
	for i, n := range p.nodes {
		b = append(strconv.AppendInt(append(b, 'n'), int64(i), 10), ':')
		b = append(append(b, n.Name...), ':')
		b = append(n.Pred.appendCanon(b), ';')
	}
	for _, e := range p.edges {
		b = strconv.AppendInt(append(b, 'e'), int64(e.From), 10)
		b = strconv.AppendInt(append(b, '>'), int64(e.To), 10)
		b = append(strconv.AppendInt(append(b, '@'), int64(e.Bound), 10), ';')
	}
	return strconv.AppendInt(append(b, "out"...), int64(p.output), 10)
}

// Hash returns a stable hex digest of the canonical form, used as the
// result-cache key component. A frozen pattern returns the digest Freeze
// stored; an unfrozen one computes it on every call.
func (p *Pattern) Hash() string {
	if p.frozen {
		return p.hash
	}
	return p.computeHash()
}

func (p *Pattern) computeHash() string {
	var buf [512]byte
	sum := sha256.Sum256(p.appendCanon(buf[:0]))
	return hex.EncodeToString(sum[:])
}
