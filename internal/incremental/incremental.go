// Package incremental maintains match relations under graph updates, the
// demo's Incremental Computation Module (implementing the approach of Fan
// et al., SIGMOD 2011). Instead of re-evaluating a registered query on the
// whole graph after every change, a Matcher keeps the candidate sets of
// M(Q,G) and repairs them by examining only the affected area around each
// updated edge:
//
//   - a deletion can only shrink the relation: candidates within bound-1
//     hops upstream of the deleted edge are rechecked, and removals cascade
//     through bounded in-balls;
//   - an insertion can only grow it: predicate-satisfying non-candidates
//     upstream of the new edge are tentatively re-admitted, the re-admission
//     closure is computed (mutually supporting groups enter together), and a
//     removal refinement strips the unjustified ones.
//
// The result after any update batch is exactly the maximum bounded
// simulation relation on the updated graph — property-tested against batch
// recomputation in this package's tests.
package incremental

import (
	"errors"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// Update is one edge insertion or deletion.
type Update = graph.Update

// Insert returns an edge-insertion update.
func Insert(from, to graph.NodeID) Update { return Update{Insert: true, From: from, To: to} }

// Delete returns an edge-deletion update.
func Delete(from, to graph.NodeID) Update { return Update{Insert: false, From: from, To: to} }

// ErrStale is returned when the underlying graph changed behind the
// matcher's back (anything other than the matcher's own Apply calls).
var ErrStale = errors.New("incremental: graph version changed outside the matcher")

type pair struct {
	u pattern.NodeIdx
	v graph.NodeID
}

// Matcher incrementally maintains M(Q,G) for one registered query. It owns
// edge updates to the graph: all changes must go through Apply so the
// matcher's candidate sets stay consistent with the graph. Node insertions,
// node removals and attribute changes invalidate the matcher; register a
// fresh one (the engine does this automatically).
type Matcher struct {
	g       *graph.Graph
	q       *pattern.Pattern
	version uint64
	maxID   int
	cand    [][]bool // un-normalized maximal candidate sets
	// Pattern adjacency cached to avoid re-deriving per recheck.
	outEdges [][]pattern.Edge
	inEdges  [][]pattern.Edge
	maxBound int  // largest finite bound
	unbound  bool // whether any edge is unbounded
	// Reusable BFS scratch: epoch-marked visited array and queue, so the
	// hot recheck path allocates nothing. Matchers are not safe for
	// concurrent use (the engine serializes them).
	mark  []uint32
	epoch uint32
	queue []ballEntry
}

type ballEntry struct {
	id graph.NodeID
	d  int32
}

// visitBall walks the nodes within 1..k hops from v (k < 0 means
// unbounded), forward or reverse, invoking fn with each node and its hop
// distance. fn returning false stops the walk. Nonempty-path semantics: v
// itself is visited if it lies on a cycle within the radius.
func (m *Matcher) visitBall(v graph.NodeID, k int, reverse bool, fn func(graph.NodeID, int) bool) {
	m.epoch++
	if m.epoch == 0 { // wrapped: reset marks
		for i := range m.mark {
			m.mark[i] = 0
		}
		m.epoch = 1
	}
	m.mark[v] = m.epoch
	m.queue = m.queue[:0]
	m.queue = append(m.queue, ballEntry{v, 0})
	sawCenter := false
	for qi := 0; qi < len(m.queue); qi++ {
		cur := m.queue[qi]
		if k >= 0 && int(cur.d) >= k {
			continue
		}
		var next []graph.NodeID
		if reverse {
			next = m.g.In(cur.id)
		} else {
			next = m.g.Out(cur.id)
		}
		for _, nb := range next {
			if nb == v {
				if !sawCenter {
					sawCenter = true
					if !fn(v, int(cur.d)+1) {
						return
					}
				}
				continue
			}
			if m.mark[nb] == m.epoch {
				continue
			}
			m.mark[nb] = m.epoch
			if !fn(nb, int(cur.d)+1) {
				return
			}
			m.queue = append(m.queue, ballEntry{nb, cur.d + 1})
		}
	}
}

// NewMatcher computes the initial relation and returns a matcher registered
// on the graph.
func NewMatcher(g *graph.Graph, q *pattern.Pattern) *Matcher {
	nq := q.NumNodes()
	m := &Matcher{
		g:        g,
		q:        q,
		maxID:    g.MaxID(),
		cand:     make([][]bool, nq),
		outEdges: make([][]pattern.Edge, nq),
		inEdges:  make([][]pattern.Edge, nq),
	}
	m.maxBound, m.unbound = q.MaxBound()
	m.mark = make([]uint32, m.maxID)
	for u := 0; u < nq; u++ {
		m.outEdges[u] = q.OutEdges(pattern.NodeIdx(u))
		m.inEdges[u] = q.InEdges(pattern.NodeIdx(u))
		m.cand[u] = make([]bool, m.maxID)
		pred := q.Node(pattern.NodeIdx(u)).Pred
		g.ForEachNode(func(n graph.Node) {
			if pred.Eval(n) {
				m.cand[u][n.ID] = true
			}
		})
	}
	// Initial refinement: every candidate pair is suspect.
	var seeds []pair
	for u := range m.cand {
		for vi, ok := range m.cand[u] {
			if ok {
				seeds = append(seeds, pair{pattern.NodeIdx(u), graph.NodeID(vi)})
			}
		}
	}
	m.refine(seeds)
	m.version = g.Version()
	return m
}

// Relation returns a snapshot of the maintained M(Q,G) (normalized: empty
// if any pattern node is unmatched).
func (m *Matcher) Relation() *match.Relation {
	r := match.NewRelation(len(m.cand))
	for u := range m.cand {
		for vi, ok := range m.cand[u] {
			if ok {
				r.Add(pattern.NodeIdx(u), graph.NodeID(vi))
			}
		}
	}
	return r.Normalize()
}

// satisfies reports whether data node v meets every out-obligation of
// pattern node u against the current candidate sets. The bounded BFS stops
// at the first supporting match.
func (m *Matcher) satisfies(u pattern.NodeIdx, v graph.NodeID) bool {
	for _, e := range m.outEdges[u] {
		ok := false
		if e.Bound == 1 {
			// Fast path for plain-simulation edges: direct adjacency scan.
			for _, w := range m.g.Out(v) {
				if m.cand[e.To][w] {
					ok = true
					break
				}
			}
		} else {
			tgt := m.cand[e.To]
			m.visitBall(v, e.Bound, false, func(w graph.NodeID, _ int) bool {
				if tgt[w] {
					ok = true
					return false
				}
				return true
			})
		}
		if !ok {
			return false
		}
	}
	return true
}

// refine runs the removal fixpoint: recheck each seeded pair; remove
// violators; cascade rechecks through bounded in-balls of removed matches.
func (m *Matcher) refine(worklist []pair) (removed []pair) {
	for len(worklist) > 0 {
		p := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if !m.cand[p.u][p.v] || m.satisfies(p.u, p.v) {
			continue
		}
		m.cand[p.u][p.v] = false
		removed = append(removed, p)
		for _, e := range m.inEdges[p.u] {
			src := m.cand[e.From]
			if e.Bound == 1 {
				for _, w := range m.g.In(p.v) {
					if src[w] {
						worklist = append(worklist, pair{e.From, w})
					}
				}
				continue
			}
			from := e.From
			m.visitBall(p.v, e.Bound, true, func(w graph.NodeID, _ int) bool {
				if src[w] {
					worklist = append(worklist, pair{from, w})
				}
				return true
			})
		}
	}
	return removed
}

// Apply applies the updates to the graph and repairs the relation. It
// returns the delta to the (un-normalized) match sets: pairs added and
// pairs removed. Callers who need the normalized delta should diff
// Relation() snapshots (the engine does).
func (m *Matcher) Apply(ops []Update) (added, removed []match.Pair, err error) {
	if m.g.Version() != m.version {
		return nil, nil, ErrStale
	}
	for _, op := range ops {
		if !m.g.Has(op.From) || !m.g.Has(op.To) {
			return nil, nil, graph.ErrNoNode
		}
		if op.Insert {
			if addErr := m.g.AddEdge(op.From, op.To); addErr != nil {
				return nil, nil, addErr
			}
		} else if delErr := m.g.RemoveEdge(op.From, op.To); delErr != nil {
			return nil, nil, delErr
		}
	}
	return m.Sync(ops)
}

// Sync repairs the relation after ops were already applied to the graph
// (e.g. by the engine coordinating several matchers over one graph). The
// seeds are all derived from the post-update graph; this is sound because
// for any candidate whose old support path broke, the path prefix up to
// the *first* deleted edge on it is still intact, placing the candidate in
// that edge source's post-update in-ball.
func (m *Matcher) Sync(ops []Update) (added, removed []match.Pair, err error) {
	var delSeeds []pair
	var insSources []graph.NodeID
	for _, op := range ops {
		if op.Insert {
			insSources = append(insSources, op.From)
		} else {
			delSeeds = append(delSeeds, m.deletionSeeds(op.From)...)
		}
	}

	// Additions: closure of tentative re-admissions seeded upstream of each
	// inserted edge, computed against the fully updated graph.
	tentative := m.admissionClosure(insSources)

	// Final refinement: every tentative pair plus every deletion-affected
	// pair is suspect.
	seeds := append(delSeeds, tentative...)
	removedPairs := m.refine(seeds)

	tentSet := make(map[pair]bool, len(tentative))
	for _, p := range tentative {
		tentSet[p] = true
	}
	for _, p := range tentative {
		if m.cand[p.u][p.v] {
			added = append(added, match.Pair{PNode: p.u, Node: p.v})
		}
	}
	for _, p := range removedPairs {
		// A tentative pair that was admitted then refined away is no
		// change at all; only pre-existing pairs count as removed.
		if !tentSet[p] {
			removed = append(removed, match.Pair{PNode: p.u, Node: p.v})
		}
	}
	m.version = m.g.Version()
	return added, removed, nil
}

// affectRadius returns the reverse-ball radius around an updated edge's
// source within which pattern node u's candidates can be affected: one
// less than u's largest out-edge bound (-1 when any edge is unbounded, and
// -2 — nothing — when u has no obligations).
func (m *Matcher) affectRadius(u int) int {
	radius := -2
	for _, e := range m.outEdges[u] {
		if e.Bound == pattern.Unbounded {
			return -1
		}
		if e.Bound-1 > radius {
			radius = e.Bound - 1
		}
	}
	return radius
}

// deletionSeeds returns the candidate pairs whose bounded out-balls may
// shrink when an out-edge of node a is deleted: for each pattern node with
// obligations, its candidates within bound-1 hops upstream of a (including
// a itself). A seeded pair is fully rechecked by refine, so one seed per
// pair suffices even when several pattern edges are implicated.
func (m *Matcher) deletionSeeds(a graph.NodeID) []pair {
	var seeds []pair
	globalRadius := m.maxBound - 1
	if m.unbound {
		globalRadius = -1 // unbounded edges: full reverse reachability
	}
	for u := range m.cand {
		if len(m.outEdges[u]) > 0 && m.cand[u][a] {
			seeds = append(seeds, pair{pattern.NodeIdx(u), a})
		}
	}
	if globalRadius == 0 || (!m.unbound && m.maxBound == 0) {
		return seeds // all bounds 1 (or no edges): only a itself is affected
	}
	m.visitBall(a, globalRadius, true, func(w graph.NodeID, d int) bool {
		for u := range m.cand {
			if !m.cand[u][w] {
				continue
			}
			if r := m.affectRadius(u); r == -1 || d <= r {
				seeds = append(seeds, pair{pattern.NodeIdx(u), w})
			}
		}
		return true
	})
	return seeds
}

// admissionClosure tentatively re-admits predicate-satisfying non-candidates
// that might have become valid because of inserted edges, transitively: a
// re-admitted match can enable further upstream re-admissions, and mutually
// supporting groups must enter together before refinement judges them.
// The tentative pairs are merged into the candidate sets; refine() strips
// the unjustified ones.
func (m *Matcher) admissionClosure(insSources []graph.NodeID) []pair {
	if len(insSources) == 0 {
		return nil
	}
	var tentative []pair
	queued := map[pair]bool{}
	var queue []pair

	// enqueue (u, v) if v satisfies u's predicate and is not already in.
	consider := func(u pattern.NodeIdx, v graph.NodeID) {
		if m.cand[u][v] {
			return
		}
		p := pair{u, v}
		if queued[p] {
			return
		}
		n, ok := m.g.Node(v)
		if !ok || !m.q.Node(u).Pred.Eval(n) {
			return
		}
		queued[p] = true
		queue = append(queue, p)
	}

	// Seeds: nodes whose out-ball gained members through an inserted edge
	// (a, b) are those within bound-1 hops upstream of a, plus a itself.
	globalRadius := m.maxBound - 1
	if m.unbound {
		globalRadius = -1
	}
	for _, a := range insSources {
		for u := range m.cand {
			if len(m.outEdges[u]) > 0 {
				consider(pattern.NodeIdx(u), a)
			}
		}
		if globalRadius == 0 || (!m.unbound && m.maxBound == 0) {
			continue
		}
		m.visitBall(a, globalRadius, true, func(w graph.NodeID, d int) bool {
			for u := range m.cand {
				if r := m.affectRadius(u); r == -1 || d <= r {
					consider(pattern.NodeIdx(u), w)
				}
			}
			return true
		})
	}

	// Closure: admitting (u, v) can enable any predicate-satisfying node
	// within bound hops upstream of v under a pattern edge (w, u).
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		m.cand[p.u][p.v] = true
		tentative = append(tentative, p)
		for _, e := range m.inEdges[p.u] {
			from := e.From
			if e.Bound == 1 {
				for _, w := range m.g.In(p.v) {
					consider(from, w)
				}
				continue
			}
			m.visitBall(p.v, e.Bound, true, func(w graph.NodeID, _ int) bool {
				consider(from, w)
				return true
			})
		}
	}
	return tentative
}
