package bsim

// The evaluator this package shipped before ball walks were batched, kept
// as the reference the batched one is pinned to: one support counter per
// (pattern edge, candidate), filled by one bounded BFS per candidate
// (graph.VisitOutBall) and drained by one bounded BFS per removed
// candidate (graph.VisitInBall), strictly one pair at a time. The code is
// the old state/newState/initCounts verbatim minus what a reference does
// not need: trace spans, the worker fan-out and the oracle strategy.

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

type refRemoval struct {
	u pattern.NodeIdx
	v graph.NodeID
}

type refState struct {
	g     *graph.Graph
	q     *pattern.Pattern
	maxID int
	cand  [][]bool  // [patternNode][nodeID]
	count [][]int32 // [patternEdgeIdx][nodeID] remaining support
}

func refCompute(g *graph.Graph, q *pattern.Pattern) *match.Relation {
	nq := q.NumNodes()
	s := &refState{
		g:     g,
		q:     q,
		maxID: g.MaxID(),
		cand:  make([][]bool, nq),
		count: make([][]int32, len(q.Edges())),
	}
	s.initCands()

	var worklist []refRemoval
	remove := func(u pattern.NodeIdx, v graph.NodeID) {
		if s.cand[u][v] {
			s.cand[u][v] = false
			worklist = append(worklist, refRemoval{u, v})
		}
	}

	// Initialize support counters with one bounded BFS per (edge, candidate).
	// Zero-support candidates are only *recorded* here and removed after
	// every counter is initialized: removing eagerly would leave later
	// edges' counters unaware of the node, and the worklist would then
	// decrement support the counter never included (double-decrement).
	edges := q.Edges()
	for ei := range edges {
		s.count[ei] = make([]int32, s.maxID)
	}
	for _, p := range s.initCounts() {
		remove(p.u, p.v)
	}

	// Propagate removals through bounded in-balls.
	for len(worklist) > 0 {
		rm := worklist[len(worklist)-1]
		worklist = worklist[:len(worklist)-1]
		for ei, e := range edges {
			if e.To != rm.u {
				continue
			}
			from, bound := e.From, e.Bound
			g.VisitInBall(rm.v, bound, func(p graph.NodeID, _ int) bool {
				if !s.cand[from][p] {
					return true
				}
				s.count[ei][p]--
				if s.count[ei][p] == 0 {
					remove(from, p)
				}
				return true
			})
		}
	}

	r := match.NewRelation(nq)
	for u := range s.cand {
		for vi, ok := range s.cand[u] {
			if ok {
				r.Add(pattern.NodeIdx(u), graph.NodeID(vi))
			}
		}
	}
	return r.Normalize()
}

func (s *refState) initCands() {
	nq := s.q.NumNodes()
	preds := make([]pattern.Predicate, nq)
	for u := 0; u < nq; u++ {
		s.cand[u] = make([]bool, s.maxID)
		preds[u] = s.q.Node(pattern.NodeIdx(u)).Pred
	}
	for vi := 0; vi < s.maxID; vi++ {
		n, ok := s.g.Node(graph.NodeID(vi))
		if !ok {
			continue
		}
		for u := 0; u < nq; u++ {
			if preds[u].Eval(n) {
				s.cand[u][vi] = true
			}
		}
	}
}

func (s *refState) initCounts() []refRemoval {
	var pending []refRemoval
	for ei, e := range s.q.Edges() {
		candTo := s.cand[e.To]
		for vi := 0; vi < s.maxID; vi++ {
			v := graph.NodeID(vi)
			if !s.cand[e.From][v] {
				continue
			}
			var c int32
			if e.Bound == 1 {
				// OutBall(v, 1) is exactly the successor list (simple
				// graphs: no parallel edges; a self-loop puts v in its
				// own ball and in Out(v) alike).
				for _, w := range s.g.Out(v) {
					if candTo[w] {
						c++
					}
				}
			} else {
				s.g.VisitOutBall(v, e.Bound, func(w graph.NodeID, _ int) bool {
					if candTo[w] {
						c++
					}
					return true
				})
			}
			s.count[ei][v] = c
			if c == 0 {
				pending = append(pending, refRemoval{e.From, v})
			}
		}
	}
	return pending
}

// diffCase is one random (graph, pattern) input of the differential test.
// Label populations are drawn to put candidate lists on the pass
// boundaries (63, 64, 65, 129), to leave some empty, and to make one side
// of an edge far shorter than the other in either order — which is what
// picks the walk direction. wide draws most populations beyond two passes.
type diffCase struct {
	g *graph.Graph
	q *pattern.Pattern
}

func randomDiffCase(r *rand.Rand, wide bool) diffCase {
	labels := []string{"A", "B", "C", "D"}
	sizes := []int{0, 1, 2, 5, 9, 20}
	if wide {
		sizes = []int{0, 5, 129, 150, 193, 260}
	} else if r.Intn(3) == 0 {
		sizes = []int{0, 3, 63, 64, 65, 129}
	}
	g := graph.New(0)
	for _, l := range labels {
		for i, k := 0, sizes[r.Intn(len(sizes))]; i < k; i++ {
			g.AddNode(l, graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))})
		}
	}
	if g.MaxID() == 0 {
		g.AddNode("A", nil)
	}
	n := g.MaxID()
	for i, m := 0, r.Intn(4*n+1); i < m; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u == v && r.Intn(2) == 0 {
			continue // self-loops stay, at half the rate
		}
		_ = g.AddEdge(u, v) // duplicates rejected
		if r.Intn(8) == 0 {
			_ = g.AddEdge(v, u) // a 2-cycle through both ends
		}
	}
	for i, k := 0, r.Intn(3); i < k && n > 1; i++ {
		_ = g.RemoveNode(graph.NodeID(r.Intn(n))) // tombstones; twice is an error we ignore
	}

	q := pattern.New()
	nq := 1 + r.Intn(4)
	for i := 0; i < nq; i++ {
		pred := pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String(labels[r.Intn(len(labels))]))
		if r.Intn(3) == 0 {
			pred = pred.And("experience", pattern.OpGe, graph.Int(int64(r.Intn(6))))
		}
		q.MustAddNode(fmt.Sprintf("n%d", i), pred)
	}
	bounds := []int{1, 2, 2, 3, 4, pattern.Unbounded}
	for i := 1; i < nq; i++ {
		q.MustAddEdge(pattern.NodeIdx(r.Intn(i)), pattern.NodeIdx(i), bounds[r.Intn(len(bounds))])
	}
	for i, extra := 0, r.Intn(nq+1); i < extra; i++ {
		// From == To included: a pattern self-edge asks for a cycle.
		_ = q.AddEdge(pattern.NodeIdx(r.Intn(nq)), pattern.NodeIdx(r.Intn(nq)), bounds[r.Intn(len(bounds))])
	}
	if err := q.SetOutput(0); err != nil {
		panic(err)
	}
	return diffCase{g, q}
}

// TestDifferentialAgainstReference pins every entry point of the batched
// evaluator — serial, 2 and 4 workers, with a complete and a partial
// distance index attached and without — to the per-candidate reference and
// to the naive fixpoint, byte for byte.
func TestDifferentialAgainstReference(t *testing.T) {
	forward, backward := 0, 0
	prop := func(seed int64) bool {
		c := randomDiffCase(rand.New(rand.NewSource(seed)), false)
		want := refCompute(c.g, c.q)
		if naive := ComputeNaive(c.g, c.q); naive.String() != want.String() {
			t.Logf("seed %d: reference %v, naive %v", seed, want, naive)
			return false
		}
		for _, e := range c.q.Edges() {
			if e.Bound != 1 {
				s := acquireState(t.Context(), c.g, c.q, false, 1, nil)
				s.initCands()
				if from, to := len(s.lists[e.From]), len(s.lists[e.To]); to < from {
					backward++
				} else if from > 0 {
					forward++
				}
				s.release()
			}
		}
		complete := distindex.Build(c.g, distindex.Options{})
		partial := distindex.Build(c.g, distindex.Options{Landmarks: 1 + int(seed&3)})
		got := map[string]*match.Relation{
			"Compute":                  Compute(c.g, c.q),
			"ComputeParallel/2":        ComputeParallel(c.g, c.q, 2),
			"ComputeParallel/4":        ComputeParallel(c.g, c.q, 4),
			"ComputeIndexed/complete":  ComputeIndexed(c.g, c.q, complete),
			"ComputeIndexed/partial":   ComputeIndexed(c.g, c.q, partial),
			"Evaluate/complete/2":      Evaluate(t.Context(), c.g, c.q, match.Bounded, 2, complete),
			"Evaluate/partial/4":       Evaluate(t.Context(), c.g, c.q, match.Bounded, 4, partial),
			"ComputeIndexed/unbatched": ComputeIndexed(c.g, c.q, unbatched{complete}),
		}
		for name, rel := range got {
			if rel.String() != want.String() {
				t.Logf("seed %d: %s = %v, reference %v", seed, name, rel, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
	if forward < 50 || backward < 50 {
		t.Errorf("walk directions exercised: %d forward, %d backward edges; want at least 50 of each", forward, backward)
	}
}

// unbatched hides an index's batch counting, leaving the plain Oracle.
type unbatched struct{ ix *distindex.Index }

func (u unbatched) WithinOut(a, b graph.NodeID, bound int) bool { return u.ix.WithinOut(a, b, bound) }

// refDual is the defining fixpoint of dual simulation — strongsim.DualNaive
// with each obligation checked by one early-exit ball walk instead of a
// materialized ball — and the reference for the kernel's parent counters.
func refDual(g *graph.Graph, q *pattern.Pattern) *match.Relation {
	s := &refState{g: g, q: q, maxID: g.MaxID(), cand: make([][]bool, q.NumNodes())}
	s.initCands()
	witness := func(visit func(graph.NodeID, int, func(graph.NodeID, int) bool), v graph.NodeID, bound int, set []bool) (ok bool) {
		visit(v, bound, func(w graph.NodeID, _ int) bool {
			ok = set[w]
			return !ok
		})
		return ok
	}
	for changed := true; changed; {
		changed = false
		for _, e := range q.Edges() {
			for vi := 0; vi < s.maxID; vi++ {
				v := graph.NodeID(vi)
				if s.cand[e.From][v] && !witness(g.VisitOutBall, v, e.Bound, s.cand[e.To]) {
					s.cand[e.From][v], changed = false, true
				}
				if s.cand[e.To][v] && !witness(g.VisitInBall, v, e.Bound, s.cand[e.From]) {
					s.cand[e.To][v], changed = false, true
				}
			}
		}
	}
	r := match.NewRelation(q.NumNodes())
	for u := range s.cand {
		for vi, ok := range s.cand[u] {
			if ok {
				r.Add(pattern.NodeIdx(u), graph.NodeID(vi))
			}
		}
	}
	return r.Normalize()
}

// TestDifferentialDualAgainstReference pins the kernel's dual evaluations,
// serial and on 4 workers, to the defining fixpoint on inputs whose
// candidate lists mostly span several passes, and checks the draw reached
// what the parent counters depend on: both walk directions, adjacent,
// unbounded and self edges, candidates removed for want of a parent alone,
// and empty results.
func TestDifferentialDualAgainstReference(t *testing.T) {
	var forward, backward, adjacent, unbounded, self, multipass, parentOnly, empty int
	prop := func(seed int64) bool {
		c := randomDiffCase(rand.New(rand.NewSource(seed)), seed%4 != 0)
		want := refDual(c.g, c.q)
		for _, workers := range []int{1, 4} {
			if got := Evaluate(t.Context(), c.g, c.q, match.Dual, workers, nil); got.String() != want.String() {
				t.Logf("seed %d: dual on %d workers = %v, reference %v", seed, workers, got, want)
				return false
			}
		}
		if want.IsEmpty() {
			empty++
		} else if bounded := Compute(c.g, c.q); bounded.Size() > want.Size() {
			parentOnly++
		}
		s := acquireState(t.Context(), c.g, c.q, true, 1, nil)
		s.initCands()
		for _, e := range c.q.Edges() {
			from, to := len(s.lists[e.From]), len(s.lists[e.To])
			switch {
			case e.Bound == 1:
				adjacent++
			case to < from:
				backward++
			case from > 0:
				forward++
			}
			if e.Bound == pattern.Unbounded {
				unbounded++
			}
			if e.From == e.To {
				self++
			}
			if min(from, to) > 2*passWidth {
				multipass++
			}
		}
		s.release()
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for name, n := range map[string]int{"forward": forward, "backward": backward, "adjacent": adjacent, "unbounded": unbounded,
		"self": self, "multipass": multipass, "parent-only removals": parentOnly, "empty": empty} {
		if n < 20 {
			t.Errorf("%s exercised %d times, want at least 20", name, n)
		}
	}
}
