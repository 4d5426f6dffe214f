// Package compress implements query-preserving graph compression, the
// demo's Graph Compression Module (after Fan et al., SIGMOD 2012): build a
// smaller quotient graph Gc such that (bounded) simulation queries can be
// answered on Gc directly and M(Q,G) recovered from M(Q,Gc) by expanding
// equivalence classes in linear time.
//
// Two equivalence schemes are provided:
//
//   - Bisimulation: the coarsest partition in which all nodes of a block
//     share an attribute signature and have out-edges into exactly the same
//     set of blocks. Every member of a block can replay any quotient path
//     at equal length, so the quotient is exact for bounded simulation
//     (and, a fortiori, plain simulation). This is the engine's default and
//     the only scheme with incremental maintenance.
//
//   - Simulation equivalence: merge u and v when each simulates the other
//     (the demo's Fred/Pat example). Coarser, hence better compression, but
//     exact only for plain (bound-1) simulation queries.
package compress

import (
	"errors"
	"fmt"
	"slices"
	"strconv"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// Scheme selects the equivalence relation used to build the quotient.
type Scheme uint8

const (
	// Bisimulation preserves both simulation and bounded simulation.
	Bisimulation Scheme = iota
	// SimulationEquivalence preserves plain simulation only; it typically
	// compresses more.
	SimulationEquivalence
)

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Bisimulation:
		return "bisimulation"
	case SimulationEquivalence:
		return "simulation-equivalence"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Errors returned by compressed-graph operations.
var (
	ErrStale         = errors.New("compress: source graph changed outside Maintain")
	ErrNoMaintenance = errors.New("compress: scheme does not support incremental maintenance")
)

// View restricts which node attributes the equivalence may distinguish.
// Queries whose predicates test only viewed attributes can be answered on
// the quotient exactly; the engine checks compatibility before routing. A
// nil View distinguishes all attributes and is compatible with every query.
// The node label is always distinguished.
type View []string

// Has reports whether attr is distinguished by the view.
func (v View) Has(attr string) bool {
	if v == nil {
		return true
	}
	if attr == pattern.LabelAttr {
		return true
	}
	for _, a := range v {
		if a == attr {
			return true
		}
	}
	return false
}

// Compatible reports whether every predicate in q tests only viewed
// attributes, i.e. whether the quotient built under this view answers q
// exactly.
func (v View) Compatible(q *pattern.Pattern) bool {
	if v == nil {
		return true
	}
	for i := 0; i < q.NumNodes(); i++ {
		for _, c := range q.Node(pattern.NodeIdx(i)).Pred.Conds {
			if !v.Has(c.Attr) {
				return false
			}
		}
	}
	return true
}

// Compressed is a quotient graph with the bookkeeping needed to evaluate
// queries on it and expand results back to the original graph.
type Compressed struct {
	src     *graph.Graph
	gc      *graph.Graph
	scheme  Scheme
	view    View
	version uint64

	blockOf []graph.NodeID                  // src node -> gc node (Invalid for tombstones)
	members map[graph.NodeID][]graph.NodeID // gc node -> member src nodes
	edgeCnt map[[2]graph.NodeID]int         // gc edge -> number of underlying src edges
}

// Graph returns the quotient graph. Callers must treat it as read-only:
// queries evaluate on it, mutations go through Maintain.
func (c *Compressed) Graph() *graph.Graph { return c.gc }

// Scheme returns the equivalence scheme the quotient was built with.
func (c *Compressed) Scheme() Scheme { return c.scheme }

// BlockOf maps an original node to its quotient node.
func (c *Compressed) BlockOf(v graph.NodeID) graph.NodeID {
	if int(v) >= len(c.blockOf) {
		return graph.Invalid
	}
	return c.blockOf[v]
}

// Members returns the original nodes merged into quotient node b.
func (c *Compressed) Members(b graph.NodeID) []graph.NodeID { return c.members[b] }

// Ratio returns the size reduction 1 - (|Vc|+|Ec|)/(|V|+|E|); e.g. 0.57
// means the compressed graph is 57% smaller.
func (c *Compressed) Ratio() float64 {
	orig := c.src.NumNodes() + c.src.NumEdges()
	if orig == 0 {
		return 0
	}
	comp := c.gc.NumNodes() + c.gc.NumEdges()
	return 1 - float64(comp)/float64(orig)
}

// payingRatio is the Ratio at or below which a quotient no longer pays:
// bounded evaluation on it, decompression included, is no faster than the
// kernel on the source graph. BenchmarkQuotientAfterWrites measures the
// crossover on the repository benchmark's graph under its write stream
// (the table is in docs/ARCHITECTURE.md).
const payingRatio = 0.2

// Pays reports whether the quotient is still small enough to be worth
// reading and repairing. Maintenance splits blocks and never merges them,
// so only a rebuild makes a quotient that stopped paying coarse again; the
// engine drops it instead.
func (c *Compressed) Pays() bool { return c.Ratio() > payingRatio }

// Decompress expands a match relation computed on the quotient graph into
// the relation on the original graph: every member of a matched block
// matches. This is the paper's linear post-processing step.
func (c *Compressed) Decompress(rc *match.Relation) *match.Relation {
	r := match.NewRelation(rc.NumPatternNodes())
	for u := 0; u < rc.NumPatternNodes(); u++ {
		for _, b := range rc.MatchesOf(pattern.NodeIdx(u)) {
			for _, v := range c.members[b] {
				r.Add(pattern.NodeIdx(u), v)
			}
		}
	}
	return r.Normalize()
}

// sigKeys renders nodes' static signatures under one view into a reused
// buffer: the label, a NUL, then the viewed attributes as
// graph.Attrs.Canon renders them. Nodes can only share a block if their
// label and every *viewed* attribute coincide, because search conditions
// may test any viewed attribute.
type sigKeys struct {
	all   bool     // a nil view: every attribute is viewed
	view  []string // the view, sorted and deduplicated
	names []string // scratch: one node's attribute names when all
	buf   []byte
}

func newSigKeys(view View) *sigKeys {
	return &sigKeys{all: view == nil, view: slices.Compact(slices.Sorted(slices.Values(view)))}
}

// of returns n's signature; the bytes are valid until the next call.
func (s *sigKeys) of(n graph.Node) []byte {
	names := s.view
	if s.all {
		s.names = s.names[:0]
		for k := range n.Attrs {
			s.names = append(s.names, k)
		}
		slices.Sort(s.names)
		names = s.names
	}
	s.buf = n.Attrs.AppendCanon(append(append(s.buf[:0], n.Label...), 0), names)
	return s.buf
}

// Compress builds the quotient of g under the given scheme, distinguishing
// all node attributes.
func Compress(g *graph.Graph, scheme Scheme) *Compressed {
	return CompressWithView(g, scheme, nil)
}

// CompressWithView builds the quotient of g distinguishing only the viewed
// attributes. Queries that test attributes outside the view must not be
// evaluated on the quotient (View.Compatible checks this).
func CompressWithView(g *graph.Graph, scheme Scheme, view View) *Compressed {
	switch scheme {
	case Bisimulation:
		return compressBisim(g, view)
	case SimulationEquivalence:
		return compressSimEq(g, view)
	default:
		panic(fmt.Sprintf("compress: unknown scheme %d", scheme))
	}
}

// View returns the attribute view the quotient was built under.
func (c *Compressed) AttrView() View { return c.view }

// buildQuotient materializes the quotient structures from a stable
// partition given as per-node block indices (dense, -1 for tombstones).
func buildQuotient(g *graph.Graph, part []int, nBlocks int, scheme Scheme, view View) *Compressed {
	c := &Compressed{
		src:     g,
		scheme:  scheme,
		view:    view,
		version: g.Version(),
		blockOf: make([]graph.NodeID, g.MaxID()),
		members: map[graph.NodeID][]graph.NodeID{},
		edgeCnt: map[[2]graph.NodeID]int{},
	}
	c.gc = graph.New(nBlocks)
	// Create one quotient node per block, carrying the shared label and
	// attributes of its members.
	rep := make([]graph.NodeID, nBlocks)
	for i := range rep {
		rep[i] = graph.Invalid
	}
	g.ForEachNode(func(n graph.Node) {
		if rep[part[n.ID]] == graph.Invalid {
			rep[part[n.ID]] = n.ID
		}
	})
	gcID := make([]graph.NodeID, nBlocks)
	for b := 0; b < nBlocks; b++ {
		n := g.MustNode(rep[b])
		attrs := n.Attrs.Clone()
		if view != nil {
			// Members may disagree on non-viewed attributes; the quotient
			// node carries only what the view guarantees to be shared.
			attrs = graph.Attrs{}
			for _, a := range view {
				if val, ok := n.Attrs[a]; ok {
					attrs[a] = val
				}
			}
		}
		gcID[b] = c.gc.AddNode(n.Label, attrs)
	}
	for i := range c.blockOf {
		c.blockOf[i] = graph.Invalid
	}
	g.ForEachNode(func(n graph.Node) {
		b := gcID[part[n.ID]]
		c.blockOf[n.ID] = b
		c.members[b] = append(c.members[b], n.ID)
	})
	g.ForEachEdge(func(e graph.Edge) {
		key := [2]graph.NodeID{c.blockOf[e.From], c.blockOf[e.To]}
		if c.edgeCnt[key] == 0 {
			if err := c.gc.AddEdge(key[0], key[1]); err != nil {
				panic(err) // counts guarantee novelty
			}
		}
		c.edgeCnt[key]++
	})
	return c
}

// compressBisim computes the coarsest forward-bisimulation partition by
// iterated signature refinement: start from attribute-signature blocks and
// split any block whose members disagree on the set of successor blocks,
// until stable.
func compressBisim(g *graph.Graph, view View) *Compressed {
	maxID := g.MaxID()
	part := make([]int, maxID)
	for i := range part {
		part[i] = -1
	}
	sigs := newSigKeys(view)
	bySig := map[string]int{}
	nBlocks := 0
	g.ForEachNode(func(n graph.Node) {
		k := sigs.of(n)
		b, ok := bySig[string(k)]
		if !ok {
			b = nBlocks
			nBlocks++
			bySig[string(k)] = b
		}
		part[n.ID] = b
	})

	newPart := make([]int, maxID)
	bySplit := map[string]int{}
	var key []byte // one split key, rebuilt per node
	var succ []int // one node's successor blocks
	for {
		// Re-partition by (current block, successor-block signature); the
		// block count grows monotonically and the loop stops at a fixpoint.
		// Blocks are numbered in order of first appearance.
		for i := range newPart {
			newPart[i] = -1
		}
		clear(bySplit)
		next := 0
		g.ForEachNode(func(n graph.Node) {
			key, succ = appendSplitKey(key[:0], succ, g, part, n.ID)
			b, ok := bySplit[string(key)] // a lookup allocates no string
			if !ok {
				b = next
				next++
				bySplit[string(key)] = b
			}
			newPart[n.ID] = b
		})
		if next == nBlocks {
			break
		}
		part, newPart, nBlocks = newPart, part, next
	}
	return buildQuotient(g, part, nBlocks, Bisimulation, view)
}

// appendSplitKey appends v's split key to key: its block, then the sorted
// distinct blocks of its successors, each after a comma. succ is scratch
// for the successor blocks, returned for reuse.
func appendSplitKey(key []byte, succ []int, g *graph.Graph, part []int, v graph.NodeID) ([]byte, []int) {
	key = strconv.AppendInt(key, int64(part[v]), 10)
	succ = succ[:0]
	for _, w := range g.Out(v) {
		succ = append(succ, part[w])
	}
	slices.Sort(succ)
	for i, b := range succ {
		if i == 0 || b != succ[i-1] {
			key = strconv.AppendInt(append(key, ','), int64(b), 10)
		}
	}
	return key, succ
}

// compressSimEq computes simulation-equivalence classes: x ~ y iff x and y
// carry the same attribute signature and each simulates the other. The
// maximum self-simulation preorder is computed by naive refinement over
// same-signature pairs; quotient edges are existential.
func compressSimEq(g *graph.Graph, view View) *Compressed {
	maxID := g.MaxID()
	// Group nodes by static signature; the preorder only relates nodes
	// within a group, so each node has an index within its group.
	groupOf := make([]int, maxID)
	idx := make([]graph.NodeID, maxID)
	sigs := newSigKeys(view)
	bySig := map[string]int{}
	var groups [][]graph.NodeID
	g.ForEachNode(func(n graph.Node) {
		k := sigs.of(n)
		gi, ok := bySig[string(k)]
		if !ok {
			gi = len(groups)
			bySig[string(k)] = gi
			groups = append(groups, nil)
		}
		groupOf[n.ID] = gi
		idx[n.ID] = graph.NodeID(len(groups[gi]))
		groups[gi] = append(groups[gi], n.ID)
	})

	// simBy[x] = set of y (same group, by index) currently believed to
	// simulate x: a group of k nodes costs k*k bits, not k*maxID.
	simBy := make([]*graph.Bitset, maxID)
	for _, grp := range groups {
		for _, x := range grp {
			s := graph.NewBitset(len(grp))
			for i := range grp {
				s.Set(graph.NodeID(i))
			}
			simBy[x] = s
		}
	}
	simulates := func(y, x graph.NodeID) bool {
		return groupOf[y] == groupOf[x] && simBy[x].Has(idx[y])
	}

	// Refine: y stops simulating x when some successor x' of x has no
	// successor y' of y with y' simulating x'. A pair is cleared as soon
	// as it fails (ForEach reads each word before visiting its bits); the
	// greatest fixpoint does not depend on the order of removals.
	for changed := true; changed; {
		changed = false
		g.ForEachNode(func(nx graph.Node) {
			x := nx.ID
			grp := groups[groupOf[x]]
			simBy[x].ForEach(func(i graph.NodeID) {
				y := grp[i]
				if y == x {
					return
				}
				for _, xs := range g.Out(x) {
					ok := false
					for _, ys := range g.Out(y) {
						if simulates(ys, xs) {
							ok = true
							break
						}
					}
					if !ok {
						simBy[x].Clear(i)
						changed = true
						return
					}
				}
			})
		})
	}

	// Equivalence classes: x ~ y iff mutual simulation.
	part := make([]int, maxID)
	for i := range part {
		part[i] = -1
	}
	nBlocks := 0
	g.ForEachNode(func(n graph.Node) {
		x := n.ID
		if part[x] != -1 {
			return
		}
		part[x] = nBlocks
		grp := groups[groupOf[x]]
		simBy[x].ForEach(func(i graph.NodeID) {
			if y := grp[i]; y != x && part[y] == -1 && simulates(x, y) {
				part[y] = nBlocks
			}
		})
		nBlocks++
	})
	return buildQuotient(g, part, nBlocks, SimulationEquivalence, view)
}
