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
// edge updates to the graph: all changes must go through Apply (or, when a
// coordinator applies them, be reported through Sync) so the matcher's
// candidate sets stay consistent with the graph. Node insertions, node
// removals and attribute changes are repaired in place by the Sync* methods
// of nodes.go. Matchers are not safe for concurrent use (the engine
// serializes them under the graph's write lock).
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
			m.g.VisitOutBall(v, e.Bound, func(w graph.NodeID, _ int) bool {
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
// violators; cascade rechecks to the candidates they supported.
func (m *Matcher) refine(worklist []pair) (removed []pair) {
	for len(worklist) > 0 {
		p := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		if !m.cand[p.u][p.v] || m.satisfies(p.u, p.v) {
			continue
		}
		removed = append(removed, p)
		worklist = m.drop(worklist, p)
	}
	return removed
}

// drop removes p from the candidate sets and appends to worklist every
// candidate p may have supported, to be rechecked.
func (m *Matcher) drop(worklist []pair, p pair) []pair {
	m.cand[p.u][p.v] = false
	m.visitUpstream(p, func(s pair) {
		if m.cand[s.u][s.v] {
			worklist = append(worklist, s)
		}
	})
	return worklist
}

// visitUpstream calls fn with every pair p can support: for each pattern
// edge (w, p.u) with bound k, the pair (w, x) for every data node x within
// k hops upstream of p.v.
func (m *Matcher) visitUpstream(p pair, fn func(pair)) {
	for _, e := range m.inEdges[p.u] {
		from := e.From
		if e.Bound == 1 {
			for _, x := range m.g.In(p.v) {
				fn(pair{from, x})
			}
			continue
		}
		m.g.VisitInBall(p.v, e.Bound, func(x graph.NodeID, _ int) bool {
			fn(pair{from, x})
			return true
		})
	}
}

// Apply applies the updates to the graph and repairs the relation. It
// returns the delta to the (un-normalized) match sets: pairs added and
// pairs removed. Callers who need the normalized delta should diff
// Relation() snapshots (the subscription hub does).
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
	// A deletion puts the candidates around its source under suspicion.
	var suspects []pair
	for _, op := range ops {
		if !op.Insert {
			m.visitAffected(op.From, func(p pair) {
				if m.cand[p.u][p.v] {
					suspects = append(suspects, p)
				}
			})
		}
	}
	// An insertion offers the pairs around its source tentative admission.
	tentative := m.admissionClosure(func(offer func(pair)) {
		for _, op := range ops {
			if op.Insert {
				m.visitAffected(op.From, offer)
			}
		}
	})
	added, removed = m.repair(suspects, tentative)
	return added, removed, nil
}

// repair runs the final refinement over the suspects plus every tentative
// pair, and returns the change to the candidate sets: the tentative pairs
// that survived, and the pre-existing pairs that did not.
func (m *Matcher) repair(suspects, tentative []pair) (added, removed []match.Pair) {
	removedPairs := m.refine(append(suspects, tentative...))
	tentSet := make(map[pair]bool, len(tentative))
	for _, p := range tentative {
		tentSet[p] = true
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
	return added, removed
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

// visitAffected calls fn with every pair whose bounded out-balls may gain
// or lose members when an out-edge of node a is inserted or deleted: for
// each pattern node with obligations, a itself and every node within
// bound-1 hops upstream of a. A seeded pair is fully rechecked by refine,
// so one seed per pair suffices even when several pattern edges are
// implicated.
func (m *Matcher) visitAffected(a graph.NodeID, fn func(pair)) {
	for u := range m.cand {
		if len(m.outEdges[u]) > 0 {
			fn(pair{pattern.NodeIdx(u), a})
		}
	}
	globalRadius := m.maxBound - 1
	if m.unbound {
		globalRadius = -1 // unbounded edges: full reverse reachability
	}
	if globalRadius == 0 || (!m.unbound && m.maxBound == 0) {
		return // all bounds 1 (or no edges): only a itself is affected
	}
	m.g.VisitInBall(a, globalRadius, func(w graph.NodeID, d int) bool {
		for u := range m.cand {
			if r := m.affectRadius(u); r == -1 || d <= r {
				fn(pair{pattern.NodeIdx(u), w})
			}
		}
		return true
	})
}

// admissionClosure tentatively admits every pair seed offers that
// satisfies its pattern node's predicate and is not a candidate yet, and
// transitively every such pair upstream of an admitted one: an admitted
// pair can enable further upstream admissions, and mutually supporting
// groups must enter together before refinement judges them. seed makes
// all its offers before any is admitted. The tentative pairs are merged
// into the candidate sets; refine strips the unjustified ones.
func (m *Matcher) admissionClosure(seed func(offer func(pair))) []pair {
	var tentative, queue []pair
	var queued map[pair]bool
	consider := func(p pair) {
		if m.cand[p.u][p.v] || queued[p] {
			return
		}
		n, ok := m.g.Node(p.v)
		if !ok || !m.q.Node(p.u).Pred.Eval(n) {
			return
		}
		if queued == nil {
			queued = map[pair]bool{}
		}
		queued[p] = true
		queue = append(queue, p)
	}
	seed(consider)
	for len(queue) > 0 {
		p := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		m.cand[p.u][p.v] = true
		tentative = append(tentative, p)
		m.visitUpstream(p, consider)
	}
	return tentative
}
