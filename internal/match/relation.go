// Package match defines the output of ExpFinder's pattern matching: the
// match relation M(Q,G) between pattern nodes and data nodes, and the
// weighted result graph the demo's GUI visualizes and the ranking function
// scores.
package match

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"expfinder/internal/graph"
	"expfinder/internal/jsonenc"
	"expfinder/internal/pattern"
)

// Pair is one (pattern node, data node) entry of the match relation.
type Pair struct {
	PNode pattern.NodeIdx
	Node  graph.NodeID
}

// Relation is the match relation M(Q,G): for each pattern node, the set of
// data nodes that match it. Bounded simulation guarantees a unique maximum
// relation; the algorithms in internal/simulation and internal/bsim compute
// it and hand it over here.
//
// Invariant (enforced by Normalize): a nonempty relation has at least one
// match for every pattern node. If any pattern node has no match, the
// entire relation is empty — that is the paper's definition of M(Q,G).
//
// A relation is mutable while an evaluator builds it and frozen (Freeze)
// once it is answered: from then on every holder shares one pointer, Add,
// Remove and a Normalize that would clear it panic, and MatchesOf reads
// the ascending order Freeze recorded instead of sorting again.
type Relation struct {
	sets   []map[graph.NodeID]bool // indexed by pattern.NodeIdx
	sorted [][]graph.NodeID        // sets in ascending order; filled by Freeze
	frozen bool
}

// NewRelation returns an empty relation for a pattern with n nodes.
func NewRelation(n int) *Relation {
	r := &Relation{sets: make([]map[graph.NodeID]bool, n)}
	for i := range r.sets {
		r.sets[i] = map[graph.NodeID]bool{}
	}
	return r
}

// NewRelationSized is NewRelation with room for sizes[u] matches of pattern
// node u, for builders that know the counts up front: filling a presized
// set allocates nothing more.
func NewRelationSized(sizes []int) *Relation {
	r := &Relation{sets: make([]map[graph.NodeID]bool, len(sizes))}
	for i, n := range sizes {
		r.sets[i] = make(map[graph.NodeID]bool, n)
	}
	return r
}

// NumPatternNodes returns the number of pattern nodes the relation covers.
func (r *Relation) NumPatternNodes() int { return len(r.sets) }

// Freeze makes the relation immutable and records each pattern node's
// matches in ascending order, which every later MatchesOf copies. The
// engine freezes an answer before it builds the result graph, and the
// result cache freezes what it stores before publishing the pointer, so a
// shared relation is only ever read. A second Freeze writes nothing.
// Clone yields a mutable copy.
func (r *Relation) Freeze() {
	if r.frozen { // no write to a relation other goroutines may be reading
		return
	}
	r.sorted = make([][]graph.NodeID, len(r.sets))
	for u := range r.sets {
		r.sorted[u] = r.collect(pattern.NodeIdx(u))
	}
	r.frozen = true
}

func (r *Relation) mutable() {
	if r.frozen {
		panic("match: mutation of a frozen relation (it is shared through the result cache; Clone it first)")
	}
}

// Add inserts the pair (u, v).
func (r *Relation) Add(u pattern.NodeIdx, v graph.NodeID) {
	r.mutable()
	r.sets[u][v] = true
}

// Remove deletes the pair (u, v).
func (r *Relation) Remove(u pattern.NodeIdx, v graph.NodeID) {
	r.mutable()
	delete(r.sets[u], v)
}

// Has reports whether (u, v) is in the relation.
func (r *Relation) Has(u pattern.NodeIdx, v graph.NodeID) bool { return r.sets[u][v] }

// MatchesOf returns the matches of pattern node u in ascending id order.
// The caller owns the slice: on a frozen relation it is a copy of the
// order Freeze recorded.
func (r *Relation) MatchesOf(u pattern.NodeIdx) []graph.NodeID {
	if r.frozen {
		return slices.Clone(r.sorted[u])
	}
	return r.collect(u)
}

// AppendJSON appends the relation as the "matches" object of a query
// response (see appendIDObject), with a pattern node that has no match
// written as []. q is the pattern the relation answers. The engine
// encodes an answer once, when it freezes it, and every response to that
// answer writes these bytes.
func (r *Relation) AppendJSON(dst []byte, q *pattern.Pattern) []byte {
	sets := r.sorted
	if !r.frozen {
		sets = make([][]graph.NodeID, len(r.sets))
		for u := range sets {
			sets[u] = r.collect(pattern.NodeIdx(u))
		}
	}
	return appendIDObject(dst, q, sets, false)
}

// AppendPairsJSON appends pairs sorted by (pattern node, data node), as a
// subscription event holds them, as the object of appendIDObject, leaving
// out a pattern node with no pair.
func AppendPairsJSON(dst []byte, q *pattern.Pattern, pairs []Pair) []byte {
	sets := make([][]graph.NodeID, q.NumNodes())
	for _, p := range pairs {
		sets[p.PNode] = append(sets[p.PNode], p.Node)
	}
	return appendIDObject(dst, q, sets, true)
}

// appendIDObject is the one encoder of a name-keyed id object,
// {"<pattern node name>":[ids],...}: byte for byte what encoding/json
// writes for the map[string][]int64 clients decode it into, with names
// sorted and escaped the way it sorts and escapes map keys. sets[u] holds
// the ascending ids of pattern node u of q; skipEmpty leaves out a node
// whose set is empty instead of writing [].
func appendIDObject(dst []byte, q *pattern.Pattern, sets [][]graph.NodeID, skipEmpty bool) []byte {
	order := make([]pattern.NodeIdx, 0, len(sets))
	for u, ids := range sets {
		if len(ids) > 0 || !skipEmpty {
			order = append(order, pattern.NodeIdx(u))
		}
	}
	slices.SortFunc(order, func(a, b pattern.NodeIdx) int { return strings.Compare(q.Node(a).Name, q.Node(b).Name) })
	dst = append(dst, '{')
	for i, u := range order {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(jsonenc.AppendString(dst, q.Node(u).Name), ':', '[')
		for j, v := range sets[u] {
			if j > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(v), 10)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// collect returns the matches of u, sorted, in a new slice.
func (r *Relation) collect(u pattern.NodeIdx) []graph.NodeID {
	out := make([]graph.NodeID, 0, len(r.sets[u]))
	for v := range r.sets[u] {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// CountOf returns the number of matches of pattern node u.
func (r *Relation) CountOf(u pattern.NodeIdx) int { return len(r.sets[u]) }

// Size returns the total number of pairs.
func (r *Relation) Size() int {
	n := 0
	for _, s := range r.sets {
		n += len(s)
	}
	return n
}

// IsEmpty reports whether the relation has no pairs at all.
func (r *Relation) IsEmpty() bool { return r.Size() == 0 }

// ApproxBytes estimates the heap footprint of the relation once frozen: a
// map header and a slice header per pattern node, plus a bucket entry and
// a NodeID of the sorted order per pair. Go map internals charge roughly
// 48 bytes of header and, for a NodeID->bool entry, about 24 bytes per
// element once bucket overhead is amortized. The estimate charges the
// order before Freeze too, so it does not move when the relation freezes.
// It is intentionally simple and stable — the byte-budgeted result cache
// uses it for admission and eviction accounting, where relative
// proportions matter more than absolute precision.
func (r *Relation) ApproxBytes() int64 {
	const (
		headerBytes = 48 + 24 // map header + sorted-slice header
		pairBytes   = 24 + 4  // map entry + NodeID in the sorted slice
	)
	n := int64(len(r.sets)) * headerBytes
	for _, s := range r.sets {
		n += int64(len(s)) * pairBytes
	}
	return n
}

// Pairs returns all pairs sorted by (pattern node, data node); used for
// deterministic output and comparisons in tests.
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.Size())
	for u, s := range r.sets {
		for v := range s {
			out = append(out, Pair{PNode: pattern.NodeIdx(u), Node: v})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PNode != out[j].PNode {
			return out[i].PNode < out[j].PNode
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// Normalize enforces the all-or-nothing semantics of M(Q,G): if any pattern
// node ended up with no matches, every set is cleared. It returns the
// (possibly emptied) relation for chaining. Normalizing an already normal
// relation changes nothing and is allowed on a frozen one.
func (r *Relation) Normalize() *Relation {
	for _, s := range r.sets {
		if len(s) == 0 {
			if r.IsEmpty() {
				return r
			}
			r.mutable()
			for i := range r.sets {
				r.sets[i] = map[graph.NodeID]bool{}
			}
			return r
		}
	}
	return r
}

// Clone returns a deep, mutable copy.
func (r *Relation) Clone() *Relation {
	c := NewRelation(len(r.sets))
	for u, s := range r.sets {
		for v := range s {
			c.sets[u][v] = true
		}
	}
	return c
}

// Equal reports whether two relations contain exactly the same pairs.
func (r *Relation) Equal(o *Relation) bool {
	if len(r.sets) != len(o.sets) {
		return false
	}
	for u := range r.sets {
		if len(r.sets[u]) != len(o.sets[u]) {
			return false
		}
		for v := range r.sets[u] {
			if !o.sets[u][v] {
				return false
			}
		}
	}
	return true
}

// Diff returns the pairs present in r but not in o, and present in o but
// not in r. The incremental module reports updates as such deltas.
func (r *Relation) Diff(o *Relation) (added, removed []Pair) {
	for u := range o.sets {
		for v := range o.sets[u] {
			if u >= len(r.sets) || !r.sets[u][v] {
				added = append(added, Pair{PNode: pattern.NodeIdx(u), Node: v})
			}
		}
	}
	for u := range r.sets {
		for v := range r.sets[u] {
			if u >= len(o.sets) || !o.sets[u][v] {
				removed = append(removed, Pair{PNode: pattern.NodeIdx(u), Node: v})
			}
		}
	}
	sortPairs(added)
	sortPairs(removed)
	return added, removed
}

func sortPairs(ps []Pair) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].PNode != ps[j].PNode {
			return ps[i].PNode < ps[j].PNode
		}
		return ps[i].Node < ps[j].Node
	})
}

// String renders the relation using pattern node indices, e.g.
// "{0:[1 5], 1:[2]}".
func (r *Relation) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for u := range r.sets {
		if u > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d:%v", u, r.MatchesOf(pattern.NodeIdx(u)))
	}
	b.WriteByte('}')
	return b.String()
}

// Format renders the relation with pattern node and data node names for
// human consumption, e.g. "SA -> Bob, Walt".
func (r *Relation) Format(q *pattern.Pattern, g *graph.Graph, nameAttr string) string {
	var b strings.Builder
	for u := range r.sets {
		if u > 0 {
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "%s ->", q.Node(pattern.NodeIdx(u)).Name)
		for i, v := range r.MatchesOf(pattern.NodeIdx(u)) {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte(' ')
			if name, ok := g.Attr(v, nameAttr); ok {
				b.WriteString(name.Str())
			} else {
				fmt.Fprintf(&b, "#%d", v)
			}
		}
	}
	return b.String()
}
