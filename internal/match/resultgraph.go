package match

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// WEdge is a weighted edge of a result graph: the weight is the length of a
// shortest collaboration path in the data graph realizing one pattern edge.
type WEdge struct {
	To     graph.NodeID
	Weight int
}

// IEdge is a result edge addressed by node index: To is the neighbour's
// position in Nodes.
type IEdge struct {
	To     int32
	Weight int32
}

// ResultGraph is the paper's visualization of M(Q,G): one node per matched
// data node, and for every pattern edge (u,u') and match pair (v,v') with
// dist(v,v') within the bound, an edge v->v' weighted by the shortest-path
// length. The ranking function measures social impact as distances in this
// graph.
//
// It is frozen once built. Nodes are numbered 0..n-1 in insertion
// (pattern-node) order and everything else is flat arrays over those
// indices: CSR adjacency in both directions (8 bytes per edge and
// direction) and a CSR list of the pattern nodes each node matches.
// Lookups by data-node id go through byID.
type ResultGraph struct {
	nodes   []graph.NodeID // index -> data node
	byID    []int32        // node indices in ascending data-node id
	out, in adjacency
	pnOff   []int32 // node i matches pnodes[pnOff[i]:pnOff[i+1]], ascending
	pnodes  []pattern.NodeIdx
	// maxWeight is the heaviest edge (0 without edges); weights are hop
	// distances, so every one lies in 1..maxWeight.
	maxWeight int32
}

// adjacency is one direction of the edge set in CSR form: node i's edges
// are edges[off[i]:off[i+1]], sorted by the data-node id of To.
type adjacency struct {
	off   []int32
	edges []IEdge
}

func (a *adjacency) at(i int) []IEdge {
	lo, hi := a.off[i], a.off[i+1]
	return a.edges[lo:hi:hi]
}

// transposed reverses every edge. Walking a's nodes in ascending data-node
// id (byID) leaves each list of the result sorted by To's id without a
// comparison sort. cursor is scratch of length len(byID).
func (a *adjacency) transposed(byID, cursor []int32) adjacency {
	n := len(byID)
	t := adjacency{off: make([]int32, n+1), edges: make([]IEdge, len(a.edges))}
	for _, e := range a.edges {
		t.off[e.To+1]++
	}
	for i := 0; i < n; i++ {
		t.off[i+1] += t.off[i]
	}
	copy(cursor, t.off[:n])
	for _, i := range byID {
		for _, e := range a.at(int(i)) {
			t.edges[cursor[e.To]] = IEdge{To: i, Weight: e.Weight}
			cursor[e.To]++
		}
	}
	return t
}

// builder is the pooled scratch of BuildResultGraph: an epoch-stamped dense
// map from data-node id to result-node index (see restamp), the edges in
// discovery order and then grouped by source, and a cursor array for the
// counting sorts.
type builder struct {
	ids    []idSlot
	epoch  uint32
	found  []foundEdge
	bySrc  adjacency
	cursor []int32
}

// foundEdge is one discovered result edge: from and e.To are node indices.
type foundEdge struct {
	from int32
	e    IEdge
}

// idSlot maps one data-node id: index is valid iff stamp is the builder's
// current epoch. One array, so a BFS visit costs one cache line.
type idSlot struct {
	stamp uint32
	index int32
}

var builderPool = sync.Pool{New: func() any { return &builder{} }}

// acquireBuilder returns a builder whose id map covers ids 0..maxID-1 and
// is empty.
func acquireBuilder(maxID int) *builder {
	b := builderPool.Get().(*builder)
	b.ids = restamp(b.ids, &b.epoch, maxID)
	b.found = b.found[:0]
	return b
}

func (b *builder) indexOf(v graph.NodeID) (int32, bool) {
	s := b.ids[v]
	return s.index, s.stamp == b.epoch
}

// BuildResultGraph constructs the result graph for a match relation over a
// data graph. Every matched data node v is the centre of one BFS — to the
// largest bound among the pattern edges leaving the pattern nodes v matches
// (a full BFS if one is unbounded) — walked 64 centres at a time, and every
// visited node is tested against the dense node index, so the cost is at
// most the sum of the ball sizes and far less where balls overlap. A result
// edge's weight is dist(v,w) in G whichever pattern edge admits it, so one
// walk per source yields each edge exactly once.
func BuildResultGraph(g *graph.Graph, q *pattern.Pattern, r *Relation) *ResultGraph {
	matches := make([][]graph.NodeID, r.NumPatternNodes())
	maxID := g.MaxID()
	for u := range matches {
		m := r.MatchesOf(pattern.NodeIdx(u))
		matches[u] = m
		if len(m) > 0 && int(m[len(m)-1]) >= maxID {
			maxID = int(m[len(m)-1]) + 1 // a match g no longer holds still gets a node
		}
	}
	b := acquireBuilder(maxID)
	defer builderPool.Put(b)
	rg := b.numberNodes(matches)
	b.findEdges(g, q.Edges(), rg, len(matches))
	// Two transpositions in ascending id order sort both directions.
	rg.in = b.groupBySource(len(rg.nodes)).transposed(rg.byID, b.cursor)
	rg.out = rg.in.transposed(rg.byID, b.cursor)
	return rg
}

// numberNodes numbers the matched data nodes in insertion order, lists per
// node the pattern nodes it matches (a counting sort by node index) and
// sorts the indices by data-node id. It leaves b.cursor with one entry per
// node.
func (b *builder) numberNodes(matches [][]graph.NodeID) *ResultGraph {
	pairs := 0
	for _, m := range matches {
		pairs += len(m)
	}
	rg := &ResultGraph{nodes: make([]graph.NodeID, 0, pairs)}
	for _, m := range matches {
		for _, v := range m {
			if _, ok := b.indexOf(v); !ok {
				b.ids[v] = idSlot{b.epoch, int32(len(rg.nodes))}
				rg.nodes = append(rg.nodes, v)
			}
		}
	}
	n := len(rg.nodes)
	rg.pnOff = make([]int32, n+1)
	for _, m := range matches {
		for _, v := range m {
			rg.pnOff[b.ids[v].index+1]++
		}
	}
	for i := 0; i < n; i++ {
		rg.pnOff[i+1] += rg.pnOff[i]
	}
	b.cursor = append(b.cursor[:0], rg.pnOff[:n]...)
	rg.pnodes = make([]pattern.NodeIdx, pairs)
	for u, m := range matches {
		for _, v := range m {
			i := b.ids[v].index
			rg.pnodes[b.cursor[i]] = pattern.NodeIdx(u)
			b.cursor[i]++
		}
	}
	rg.byID = make([]int32, n)
	for i := range rg.byID {
		rg.byID[i] = int32(i)
	}
	slices.SortFunc(rg.byID, func(x, y int32) int { return cmp.Compare(rg.nodes[x], rg.nodes[y]) })
	return rg
}

// findEdges fills b.found, one batch of up to 64 source nodes per walk. For
// the batch's k-th source, need[k*np+u'] is the largest bound over the
// pattern edges from its pattern nodes to u' (0: none), so a visited node
// at distance d is a result-edge target iff it matches some u' with
// need >= d.
func (b *builder) findEdges(g *graph.Graph, edges []pattern.Edge, rg *ResultGraph, np int) {
	const batch = 64
	need := make([]int32, batch*np)
	from := make([]bool, np)
	radii := make([]int, batch)
	lo := 0 // node index of the batch's first source
	visit := func(w graph.NodeID, d int, sources uint64) bool {
		j, ok := b.indexOf(w)
		if !ok {
			return true
		}
		targets := rg.pnodes[rg.pnOff[j]:rg.pnOff[j+1]]
		for ; sources != 0; sources &= sources - 1 {
			k := bits.TrailingZeros64(sources)
			for _, u := range targets {
				if int(need[k*np+int(u)]) >= d {
					b.found = append(b.found, foundEdge{int32(lo + k), IEdge{To: j, Weight: int32(d)}})
					rg.maxWeight = max(rg.maxWeight, int32(d))
					break
				}
			}
		}
		return true
	}
	for ; lo < len(rg.nodes); lo += batch {
		centers := rg.nodes[lo:min(lo+batch, len(rg.nodes))]
		clear(need)
		for k := range centers {
			for _, u := range rg.pnodes[rg.pnOff[lo+k]:rg.pnOff[lo+k+1]] {
				from[u] = true
			}
			radius := int32(0)
			for _, e := range edges {
				if !from[e.From] {
					continue
				}
				bound := int32(math.MaxInt32) // Unbounded: no path is that long
				if e.Bound >= 0 && e.Bound < math.MaxInt32 {
					bound = int32(e.Bound)
				}
				need[k*np+int(e.To)] = max(need[k*np+int(e.To)], bound)
				radius = max(radius, bound)
			}
			radii[k] = int(radius) // 0: no pattern edge leaves v, no walk
			clear(from)
		}
		g.VisitOutBalls(centers, radii[:len(centers)], visit)
	}
}

// groupBySource turns b.found into CSR form over n nodes (a counting sort
// by source); each source's edges stay in discovery order.
func (b *builder) groupBySource(n int) *adjacency {
	a := &b.bySrc
	a.off = append(a.off[:0], make([]int32, n+1)...)
	for _, f := range b.found {
		a.off[f.from+1]++
	}
	for i := 0; i < n; i++ {
		a.off[i+1] += a.off[i]
	}
	copy(b.cursor, a.off[:n])
	a.edges = append(a.edges[:0], make([]IEdge, len(b.found))...)
	for _, f := range b.found {
		a.edges[b.cursor[f.from]] = f.e
		b.cursor[f.from]++
	}
	return a
}

// Nodes returns the matched data nodes in insertion (pattern-node) order;
// a node's position is its index for IndexOf, OutAt, InAt and Impact.
func (rg *ResultGraph) Nodes() []graph.NodeID { return rg.nodes }

// NumNodes returns the number of distinct matched data nodes.
func (rg *ResultGraph) NumNodes() int { return len(rg.nodes) }

// NumEdges returns the number of result edges.
func (rg *ResultGraph) NumEdges() int { return len(rg.out.edges) }

// MaxWeight returns the weight of the heaviest result edge, 0 if there is
// none.
func (rg *ResultGraph) MaxWeight() int { return int(rg.maxWeight) }

// ApproxBytes is the heap footprint of the frozen arrays — exact up to
// slice headers — which the result cache charges to its byte budget:
// 20 bytes per node (id, id order, three CSR offsets), 8 per pattern-node
// entry and 16 per edge (both directions).
func (rg *ResultGraph) ApproxBytes() int64 {
	return 20*int64(len(rg.nodes)) + 8*int64(len(rg.pnodes)) + 16*int64(len(rg.out.edges))
}

// IndexOf returns the index of data node v in Nodes, if it is a node of
// the result graph.
func (rg *ResultGraph) IndexOf(v graph.NodeID) (int, bool) {
	p, ok := slices.BinarySearchFunc(rg.byID, v, func(i int32, v graph.NodeID) int {
		return cmp.Compare(rg.nodes[i], v)
	})
	if !ok {
		return -1, false
	}
	return int(rg.byID[p]), true
}

// Has reports whether v is a node of the result graph.
func (rg *ResultGraph) Has(v graph.NodeID) bool {
	_, ok := rg.IndexOf(v)
	return ok
}

// PNodeOf returns the pattern nodes data node v matches, ascending (a data
// node can match several pattern nodes).
func (rg *ResultGraph) PNodeOf(v graph.NodeID) []pattern.NodeIdx {
	i, ok := rg.IndexOf(v)
	if !ok {
		return nil
	}
	lo, hi := rg.pnOff[i], rg.pnOff[i+1]
	return rg.pnodes[lo:hi:hi]
}

// OutAt returns the out-edges of node index i, sorted by the data-node id
// of To. The slice is read-only.
func (rg *ResultGraph) OutAt(i int) []IEdge { return rg.out.at(i) }

// InAt is OutAt for in-edges (each IEdge.To is a predecessor).
func (rg *ResultGraph) InAt(i int) []IEdge { return rg.in.at(i) }

// byNodeID renders v's edges in a with data-node ids, in a fresh slice.
func (rg *ResultGraph) byNodeID(a *adjacency, v graph.NodeID) []WEdge {
	i, ok := rg.IndexOf(v)
	if !ok {
		return nil
	}
	es := a.at(i)
	if len(es) == 0 {
		return nil
	}
	out := make([]WEdge, len(es))
	for k, e := range es {
		out[k] = WEdge{To: rg.nodes[e.To], Weight: int(e.Weight)}
	}
	return out
}

// Out returns the weighted out-edges of v, sorted by To. It allocates;
// index-based callers use OutAt.
func (rg *ResultGraph) Out(v graph.NodeID) []WEdge { return rg.byNodeID(&rg.out, v) }

// In returns the weighted in-edges of v (each WEdge.To is a predecessor),
// sorted by To.
func (rg *ResultGraph) In(v graph.NodeID) []WEdge { return rg.byNodeID(&rg.in, v) }

// Weight returns the weight of edge (u,v) and whether it exists.
func (rg *ResultGraph) Weight(u, v graph.NodeID) (int, bool) {
	i, ok := rg.IndexOf(u)
	if !ok {
		return 0, false
	}
	es := rg.out.at(i)
	if p, ok := slices.BinarySearchFunc(es, v, func(e IEdge, v graph.NodeID) int {
		return cmp.Compare(rg.nodes[e.To], v)
	}); ok {
		return int(es[p].Weight), true
	}
	return 0, false
}

// String renders the result graph compactly for logs and tests.
func (rg *ResultGraph) String() string {
	return fmt.Sprintf("result(n=%d, m=%d)", rg.NumNodes(), rg.NumEdges())
}
