package partition

// The partition-parallel evaluator. Bounded and dual simulation are
// decreasing fixpoints with a unique maximum relation, computed by the
// standard support-counter scheme: every candidate v of pattern node u
// holds, per pattern edge obligation, a counter of the witnesses inside
// v's bounded ball; a candidate whose counter hits zero is removed, and
// each removal decrements the counters of the candidates whose balls
// contained it. The refinement is confluent — any removal order reaches
// the same fixpoint — which is what makes it partitionable:
//
//   - every fragment OWNS the candidate bits and support counters of the
//     nodes assigned to it, and only the owner ever writes them;
//   - a removal's cascade walks the removed node's bounded ball in the
//     shared graph; ball members owned locally are decremented in place,
//     ball members owned elsewhere become boundary DELTAS — counted
//     (ei, node, direction) decrement messages — collected per
//     destination fragment;
//   - fragments run a bulk-synchronous loop: refine to a local fixpoint,
//     barrier, exchange deltas, apply, repeat until no fragment emits a
//     delta. Termination is guaranteed (counters only decrease), and the
//     result equals the serial algorithms' byte for byte.
//
// The same machinery — ownership, outboxes, superstep barriers — is what
// a multi-process deployment needs; here the "network" is a slice swap,
// and Stats.Messages reports exactly the volume a real network would
// carry.

import (
	"context"
	"sync"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/trace"
)

// The fixpoints Eval computes, under the names this package has always
// exported them: Bounded is byte-identical to bsim.Compute (descendant
// obligations only), Dual to strongsim.Dual (descendant and ancestor
// obligations).
const (
	Bounded = match.Bounded
	Dual    = match.Dual
)

// EvalStats reports one evaluator run's coordination costs. All three
// numbers are deterministic for a given (graph, pattern, partitioning):
// every removed pair cascades exactly once, so the boundary-exchange
// volume does not depend on goroutine scheduling.
type EvalStats struct {
	// Supersteps is the number of barrier rounds until the global
	// fixpoint: 0 when predicate initialization already satisfied every
	// support counter, 1 when no removal crossed a fragment boundary.
	Supersteps int `json:"supersteps"`
	// Messages is the boundary-exchange volume: support-decrement deltas
	// routed between fragments.
	Messages int `json:"messages"`
	// Removals is the number of (pattern node, data node) candidates
	// refined away after predicate initialization.
	Removals int `json:"removals"`
}

// removal is a (pattern node, data node) pair taken out of the relation.
type removal struct {
	u pattern.NodeIdx
	v graph.NodeID
}

// delta is one boundary message: "decrement the support counter of
// pattern-edge ei at node — forward (descendant witness lost) or
// backward (ancestor witness lost)". The receiving fragment owns node.
type delta struct {
	ei   int32
	node graph.NodeID
	back bool
}

// evalState carries one run's shared arrays. Cells are striped by
// ownership: cand[u][v] and the counters at v are written only by
// owner(v)'s worker, so the phases need no locks, only barriers.
type evalState struct {
	g     *graph.Graph
	q     *pattern.Pattern
	pt    *Partitioning
	sem   match.Semantics
	edges []pattern.Edge
	frag  [][]graph.NodeID // owned live nodes per fragment, ascending
	cand  [][]bool         // [patternNode][nodeID]
	out   [][]int32        // [patternEdge][nodeID] descendant support
	in    [][]int32        // [patternEdge][nodeID] ancestor support (Dual only)
}

// Eval computes the partition-parallel (bounded or dual) simulation
// relation of q over g. The result is byte-identical to bsim.Compute /
// strongsim.Dual for every partitioning. ErrStale is returned when pt
// was built over a different graph or has not been synced past a node
// addition (the engine checks Fresh before routing here).
func Eval(g *graph.Graph, q *pattern.Pattern, pt *Partitioning, sem match.Semantics) (*match.Relation, EvalStats, error) {
	return EvalCtx(context.Background(), g, q, pt, sem)
}

// EvalCtx is Eval emitting trace spans when ctx carries an active trace
// (see internal/trace): one span per phase plus one per superstep, whose
// message and removal attributes sum to the returned EvalStats. The
// relation is byte-identical with and without tracing. ctx is polled
// after each initialisation phase and before every superstep; a cancelled
// run returns ctx.Err() and no relation.
func EvalCtx(ctx context.Context, g *graph.Graph, q *pattern.Pattern, pt *Partitioning, sem match.Semantics) (*match.Relation, EvalStats, error) {
	if !pt.covers(g) {
		return nil, EvalStats{}, ErrStale
	}
	s := &evalState{g: g, q: q, pt: pt, sem: sem, edges: q.Edges()}
	s.frag = make([][]graph.NodeID, pt.parts)
	for id := 0; id < g.MaxID(); id++ {
		if f := pt.owner[id]; f >= 0 && g.Has(graph.NodeID(id)) {
			s.frag[f] = append(s.frag[f], graph.NodeID(id))
		}
	}

	_, spCands := trace.StartSpan(ctx, "part.init_cands")
	s.initCands()
	spCands.End()
	if err := ctx.Err(); err != nil {
		return nil, EvalStats{}, err
	}
	_, spCounts := trace.StartSpan(ctx, "part.init_counts")
	pending := s.initCounts()
	if spCounts != nil {
		var zero int64
		for f := range pending {
			zero += int64(len(pending[f]))
		}
		spCounts.SetInt("zero_support", zero)
		spCounts.End()
	}

	st, err := s.fixpoint(ctx, pending)
	if err != nil {
		return nil, EvalStats{}, err
	}
	pt.noteEval(st)

	nq := q.NumNodes()
	r := match.NewRelation(nq)
	for u := 0; u < nq; u++ {
		for vi, ok := range s.cand[u] {
			if ok {
				r.Add(pattern.NodeIdx(u), graph.NodeID(vi))
			}
		}
	}
	return r.Normalize(), st, nil
}

// parallelFrags runs fn(f) for every fragment concurrently and waits.
func parallelFrags(p int, fn func(f int)) {
	var wg sync.WaitGroup
	for f := 0; f < p; f++ {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			fn(f)
		}(f)
	}
	wg.Wait()
}

// initCands evaluates every pattern predicate over every owned node —
// each fragment writes only its own nodes' candidate bits.
func (s *evalState) initCands() {
	nq := s.q.NumNodes()
	maxID := s.g.MaxID()
	s.cand = make([][]bool, nq)
	preds := make([]pattern.Predicate, nq)
	for u := 0; u < nq; u++ {
		s.cand[u] = make([]bool, maxID)
		preds[u] = s.q.Node(pattern.NodeIdx(u)).Pred
	}
	parallelFrags(s.pt.parts, func(f int) {
		for _, v := range s.frag[f] {
			n := s.g.MustNode(v)
			for u := 0; u < nq; u++ {
				if preds[u].Eval(n) {
					s.cand[u][v] = true
				}
			}
		}
	})
}

// initCounts fills the support counters fragment-parallel and returns
// each fragment's zero-support removals. Like the serial algorithms,
// zero-support candidates are only recorded here — removing before every
// counter is initialized would double-decrement later. The barrier
// before the superstep phase guarantees exactly that.
func (s *evalState) initCounts() [][]removal {
	maxID := s.g.MaxID()
	s.out = make([][]int32, len(s.edges))
	for ei := range s.edges {
		s.out[ei] = make([]int32, maxID)
	}
	if s.sem == Dual {
		s.in = make([][]int32, len(s.edges))
		for ei := range s.edges {
			s.in[ei] = make([]int32, maxID)
		}
	}
	pending := make([][]removal, s.pt.parts)
	parallelFrags(s.pt.parts, func(f int) {
		for ei, e := range s.edges {
			candTo, candFrom := s.cand[e.To], s.cand[e.From]
			for _, v := range s.frag[f] {
				if candFrom[v] {
					c := s.countBall(v, e.Bound, candTo, false)
					s.out[ei][v] = c
					if c == 0 {
						pending[f] = append(pending[f], removal{e.From, v})
					}
				}
				if s.sem == Dual && candTo[v] {
					c := s.countBall(v, e.Bound, candFrom, true)
					s.in[ei][v] = c
					if c == 0 {
						pending[f] = append(pending[f], removal{e.To, v})
					}
				}
			}
		}
	})
	return pending
}

// countBall counts set members in v's bounded out-ball (or in-ball when
// reverse). Bound-1 balls are exactly the adjacency list.
func (s *evalState) countBall(v graph.NodeID, bound int, set []bool, reverse bool) int32 {
	var c int32
	if bound == 1 {
		adj := s.g.Out(v)
		if reverse {
			adj = s.g.In(v)
		}
		for _, w := range adj {
			if set[w] {
				c++
			}
		}
		return c
	}
	visit := s.g.VisitOutBall
	if reverse {
		visit = s.g.VisitInBall
	}
	visit(v, bound, func(w graph.NodeID, _ int) bool {
		if set[w] {
			c++
		}
		return true
	})
	return c
}

// fixpoint runs the bulk-synchronous refinement loop. When ctx carries
// an active trace, every barrier round gets a "superstep" span whose
// messages/removals attributes are that round's deltas — summing them
// across spans reproduces the returned EvalStats. ctx is polled before
// every round, the first included; a cancelled loop returns ctx.Err().
func (s *evalState) fixpoint(ctx context.Context, pending [][]removal) (EvalStats, error) {
	p := s.pt.parts
	var st EvalStats
	inbox := make([][]delta, p)
	removed := make([]int, p)
	for {
		if err := ctx.Err(); err != nil {
			return EvalStats{}, err
		}
		work := false
		for f := 0; f < p; f++ {
			if len(pending[f]) > 0 || len(inbox[f]) > 0 {
				work = true
				break
			}
		}
		if !work {
			break
		}
		st.Supersteps++
		_, spStep := trace.StartSpan(ctx, "superstep")
		prevRemoved := 0
		if spStep != nil {
			for f := 0; f < p; f++ {
				prevRemoved += removed[f]
			}
		}
		outboxes := make([][][]delta, p)
		parallelFrags(p, func(f int) {
			outboxes[f] = make([][]delta, p)
			removed[f] += s.refineFragment(f, inbox[f], pending[f], outboxes[f])
			pending[f] = nil
		})
		// Barrier passed: route every outbox to its destination inbox.
		for f := 0; f < p; f++ {
			inbox[f] = nil
		}
		roundMsgs := 0
		for from := 0; from < p; from++ {
			for to, ds := range outboxes[from] {
				inbox[to] = append(inbox[to], ds...)
				roundMsgs += len(ds)
			}
		}
		st.Messages += roundMsgs
		if spStep != nil {
			roundRemoved := -prevRemoved
			for f := 0; f < p; f++ {
				roundRemoved += removed[f]
			}
			spStep.SetInt("round", int64(st.Supersteps))
			spStep.SetInt("messages", int64(roundMsgs))
			spStep.SetInt("removals", int64(roundRemoved))
			spStep.End()
		}
	}
	for f := 0; f < p; f++ {
		st.Removals += removed[f]
	}
	return st, nil
}

// refineFragment drives fragment f to its local fixpoint: apply incoming
// boundary deltas, then drain the removal worklist, cascading locally
// and emitting deltas for remote ball members. Returns the number of
// pairs removed.
func (s *evalState) refineFragment(f int, in []delta, pending []removal, out [][]delta) int {
	var wl []removal
	removed := 0
	remove := func(u pattern.NodeIdx, v graph.NodeID) {
		if s.cand[u][v] {
			s.cand[u][v] = false
			removed++
			wl = append(wl, removal{u, v})
		}
	}
	for _, rm := range pending {
		remove(rm.u, rm.v)
	}
	for _, d := range in {
		e := s.edges[d.ei]
		if !d.back {
			if s.cand[e.From][d.node] {
				s.out[d.ei][d.node]--
				if s.out[d.ei][d.node] == 0 {
					remove(e.From, d.node)
				}
			}
		} else if s.cand[e.To][d.node] {
			s.in[d.ei][d.node]--
			if s.in[d.ei][d.node] == 0 {
				remove(e.To, d.node)
			}
		}
	}
	owner := s.pt.owner
	for len(wl) > 0 {
		rm := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		for ei, e := range s.edges {
			if e.To == rm.u {
				// rm.v was a descendant witness for candidates of e.From
				// in its bounded in-ball.
				from := e.From
				s.g.VisitInBall(rm.v, e.Bound, func(pd graph.NodeID, _ int) bool {
					if g := owner[pd]; int(g) != f {
						out[g] = append(out[g], delta{ei: int32(ei), node: pd})
						return true
					}
					if !s.cand[from][pd] {
						return true
					}
					s.out[ei][pd]--
					if s.out[ei][pd] == 0 {
						remove(from, pd)
					}
					return true
				})
			}
			if s.sem == Dual && e.From == rm.u {
				// ... and an ancestor witness for candidates of e.To in
				// its bounded out-ball.
				to := e.To
				s.g.VisitOutBall(rm.v, e.Bound, func(pd graph.NodeID, _ int) bool {
					if g := owner[pd]; int(g) != f {
						out[g] = append(out[g], delta{ei: int32(ei), node: pd, back: true})
						return true
					}
					if !s.cand[to][pd] {
						return true
					}
					s.in[ei][pd]--
					if s.in[ei][pd] == 0 {
						remove(to, pd)
					}
					return true
				})
			}
		}
	}
	return removed
}
