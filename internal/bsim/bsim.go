// Package bsim implements bounded simulation, the pattern-matching
// semantics of Fan et al. (PVLDB 2010) that ExpFinder is built on: a
// pattern edge (u,u') with bound k is matched by any nonempty path of
// length <= k in the data graph, and `*` edges by any nonempty path. The
// result is the unique maximum match relation M(Q,G), computable in cubic
// time — in contrast to NP-complete subgraph isomorphism.
package bsim

import (
	"context"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/trace"
)

// Oracle answers exact bounded-reachability queries: whether v lies in
// u's out-ball of radius bound (bound < 0 meaning unbounded), under the
// same nonempty-path semantics as graph.OutBall. distindex.Index
// implements it. Answers must be exact — the relation computed with an
// oracle attached is identical to the one computed without, which the
// property tests in this package pin down.
type Oracle interface {
	WithinOut(u, v graph.NodeID, bound int) bool
}

// batchCounter is optionally implemented by oracles that can count a
// whole target list against one source in a single call (distindex.Index
// loads the source label once and early-exit scans each target label),
// and report the work done in units comparable to scanning one adjacency
// entry during BFS. The indexed counting strategy prefers it over
// per-pair WithinOut calls, and its work reports drive the per-edge
// strategy probe.
type batchCounter interface {
	CountWithinOut(u graph.NodeID, targets []graph.NodeID, bound int) int
	// ProbePairWork reports the work a CountWithinOut(u, targets, bound)
	// call would do, giving up (and returning what it counted so far)
	// once the tally exceeds budget — so probing a losing strategy never
	// costs more than the winning one.
	ProbePairWork(u graph.NodeID, targets []graph.NodeID, bound, budget int) int
}

// defaultQueryCost is the assumed per-target cost for oracles without
// batch counting.
const defaultQueryCost = 32

// probeSamples is how many candidates (evenly spaced through the
// candidate list) the per-edge strategy probe asks the oracle about.
// Per-candidate oracle cost is bimodal — a candidate that reaches a target
// is usually decided by the target's first label entry, one that reaches
// none scans every target label to its end — so a handful of samples can
// miss the expensive mode entirely; sixteen rarely do.
const probeSamples = 16

// pairCost is the fixed overhead of one oracle query beside the label
// entries it scans, in adjacency-entry units.
const pairCost = 4

// bfsNodeCost is the per-expanded-node overhead of a ball walk (frontier
// and callback bookkeeping), in adjacency-entry units. Walk work is edges
// scanned plus this times nodes expanded.
const bfsNodeCost = 4

// passWidth is how many ball centres one pass of the batched walk carries:
// the width of the graph kernel's per-node centre set.
const passWidth = 64

// Compute returns the unique maximum bounded-simulation relation M(Q,G).
//
// The algorithm follows PVLDB 2010: start from predicate candidates, give
// every candidate v of u one support counter per pattern out-edge (u,u')
// counting the candidates of u' inside v's bounded out-ball, and propagate
// removals with a worklist — when v' falls out of cand(u'), every candidate
// in v's bounded *in*-ball loses one unit of support on the corresponding
// edge. Balls are walked 64 centres per level-synchronous pass (see
// initCounts and propagate), never one at a time. Worst case
// O(|Eq| * |V| * (|V|+|E|)).
func Compute(g *graph.Graph, q *pattern.Pattern) *match.Relation {
	return Evaluate(context.Background(), g, q, match.Bounded, 1, nil)
}

// ComputeParallel is Compute on the given number of workers; see Evaluate.
func ComputeParallel(g *graph.Graph, q *pattern.Pattern, workers int) *match.Relation {
	return Evaluate(context.Background(), g, q, match.Bounded, workers, nil)
}

// ComputeIndexed is Compute with a distance oracle attached; see Evaluate.
func ComputeIndexed(g *graph.Graph, q *pattern.Pattern, ix Oracle) *match.Relation {
	return Evaluate(context.Background(), g, q, match.Bounded, 1, ix)
}

// Evaluate is the kernel's one entry point: the unique maximum relation of
// q over g under sem, which Compute, ComputeParallel and ComputeIndexed
// call with their fixed arguments.
//
// sem: match.Dual gives every candidate v' of u' a second counter per
// pattern edge (u,u') — the candidates of u with v' inside their bounded
// out-ball, its parents — filled by the same passes that fill the support
// counters and drained by the mirror walk; see initCounts and propagate.
//
// workers: the two heavy refinement phases — predicate evaluation over
// every (pattern node, data node) pair, and counter initialization — fan
// out over that many goroutines: predicates by contiguous node ranges,
// counters by whole passes. The removal propagation stays serial (it is a
// small fraction of the work and inherently sequential). workers <= 1 is
// the serial path. The refinement is confluent, so the relation is
// identical for every worker count.
//
// ix: when non-nil, a bounded-simulation pattern edge's support counters
// are either walked or counted as the number of target candidates the
// oracle proves within the bound — |cand(u)| * |cand(u')| near-constant
// queries instead of graph traversals. The oracle takes an edge only where
// a probe prices it below the walk (selective predicates and large bounds:
// big balls, short candidate lists); the relation is identical either
// way. Dual evaluations ignore it: the oracle counts one end of a pair,
// the walk that tallies both ends measured 2x to 740x faster.
//
// ctx: when it carries an active trace span, the three refinement phases
// record child spans with their candidate, pass and removal counts; the
// relation is byte-identical with and without tracing — spans only
// observe. When ctx is cancelled the evaluation stops at the next pass
// boundary and returns nil.
func Evaluate(ctx context.Context, g *graph.Graph, q *pattern.Pattern, sem match.Semantics, workers int, ix Oracle) *match.Relation {
	dual := sem == match.Dual
	if dual {
		ix = nil
	}
	s := acquireState(ctx, g, q, dual, workers, ix)
	defer s.release()

	_, sp := trace.StartSpan(ctx, "bsim.init_cands")
	s.initCands()
	if sp != nil { // untraced runs skip the tally
		var n int64
		for _, l := range s.lists {
			n += int64(len(l))
		}
		sp.SetInt("candidates", n)
		sp.End()
	}

	_, sp = trace.StartSpan(ctx, "bsim.init_counts")
	ok := s.initCounts()
	sp.SetInt("zero_support", int64(s.removals))
	sp.SetBool("oracle", ix != nil)
	sp.SetInt("passes", int64(s.passes))
	sp.SetInt("forward_edges", int64(s.forwardEdges))
	sp.SetInt("backward_edges", int64(s.backwardEdges))
	sp.End()
	if !ok {
		return nil
	}

	_, sp = trace.StartSpan(ctx, "bsim.propagate")
	s.passes = 0 // each span reports its own phase's passes
	ok = s.propagate()
	sp.SetInt("removals", int64(s.removals))
	sp.SetInt("passes", int64(s.passes))
	sp.End()
	if !ok {
		return nil
	}
	return s.relation()
}

// counting is how one pattern edge's support counters are initialized.
type counting uint8

const (
	countAdjacent counting = iota // bound 1: scan each candidate's successor list
	countOracle                   // ask the oracle, one candidate against the target list
	countForward                  // walk out-balls from cand(u), 64 per pass
	countBackward                 // walk in-balls from cand(u'), 64 per pass
)

// pass is one unit of counter initialization: up to passWidth consecutive
// entries of the candidate list its edge's strategy walks — cand(u') for
// countBackward, cand(u) otherwise.
type pass struct {
	edge   int
	lo, hi int
}

// state is the working set of one evaluation. Everything in it but the
// inputs is pooled: an evaluation allocates only the relation it returns.
type state struct {
	ctx     context.Context
	g       *graph.Graph
	q       *pattern.Pattern
	ix      Oracle // optional distance oracle for support-counter init
	dual    bool   // also hold candidates to their parent obligations
	workers int

	cand    [][]bool         // [patternNode][nodeID]
	count   [][]int32        // [patternEdgeIdx][nodeID] remaining support
	parent  [][]int32        // [patternEdgeIdx][nodeID] remaining parents; dual only
	lists   [][]graph.NodeID // [patternNode] the initial candidates, ascending
	removed [][]graph.NodeID // [patternNode] removed candidates not yet propagated
	plan    []counting       // [patternEdgeIdx]
	todo    []pass
	sizes   []int // [patternNode] surviving candidates, for sizing the relation

	removals                            int // candidates removed so far
	passes, forwardEdges, backwardEdges int // span attributes
}

var statePool = sync.Pool{New: func() any { return &state{} }}

// acquireState returns a pooled state sized for q over g, with candidate
// sets and counters zeroed and every list empty.
func acquireState(ctx context.Context, g *graph.Graph, q *pattern.Pattern, dual bool, workers int, ix Oracle) *state {
	s := statePool.Get().(*state)
	s.ctx, s.g, s.q, s.ix, s.dual, s.workers = ctx, g, q, ix, dual, workers
	nq, ne, n := q.NumNodes(), len(q.Edges()), g.MaxID()
	s.cand = zeroed(s.cand, nq, n)
	s.count = zeroed(s.count, ne, n)
	s.parent = s.parent[:0]
	if dual {
		s.parent = zeroed(s.parent, ne, n)
	}
	s.lists = zeroed(s.lists, nq, 0)
	s.removed = zeroed(s.removed, nq, 0)
	s.plan = append(s.plan[:0], make([]counting, ne)...)
	s.todo = s.todo[:0]
	s.removals, s.passes, s.forwardEdges, s.backwardEdges = 0, 0, 0, 0
	return s
}

// zeroed resizes rows to m slices of n zero values each, reusing the rows'
// backing arrays where they are large enough.
func zeroed[T any](rows [][]T, m, n int) [][]T {
	if cap(rows) < m {
		rows = append(rows[:cap(rows)], make([][]T, m-cap(rows))...)
	}
	rows = rows[:m]
	for i, r := range rows {
		if cap(r) < n {
			rows[i] = make([]T, n)
			continue
		}
		rows[i] = r[:n]
		clear(rows[i])
	}
	return rows
}

func (s *state) release() {
	s.ctx, s.g, s.q, s.ix = nil, nil, nil, nil
	statePool.Put(s)
}

// cancelled reports whether the evaluation's context is done; checked
// between passes.
func (s *state) cancelled() bool { return s.ctx.Err() != nil }

// parallelFloor is the node-range size below which fanning out is pure
// overhead and the chunk helper runs serially.
const parallelFloor = 256

// chunked splits [0, n) into contiguous per-worker ranges and runs fn on
// each concurrently. fn must only write to cells owned by its range.
func chunked(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < parallelFloor {
		fn(0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// initCands fills the initial candidate sets by evaluating every pattern
// node's predicate against every data node, partitioned across workers by
// node range (cells are per-(pattern node, data node), so chunks never
// write the same cell), then lists each set in ascending id order.
func (s *state) initCands() {
	nq := s.q.NumNodes()
	chunked(s.g.MaxID(), s.workers, func(lo, hi int) {
		for vi := lo; vi < hi; vi++ {
			n, ok := s.g.Node(graph.NodeID(vi))
			if !ok {
				continue
			}
			for u := 0; u < nq; u++ {
				if s.q.Node(pattern.NodeIdx(u)).Pred.Eval(n) {
					s.cand[u][vi] = true
				}
			}
		}
	})
	for u, set := range s.cand {
		for vi, ok := range set {
			if ok {
				s.lists[u] = append(s.lists[u], graph.NodeID(vi))
			}
		}
	}
}

// remove takes v out of cand(u) and queues it for propagation.
func (s *state) remove(u pattern.NodeIdx, v graph.NodeID) {
	if s.cand[u][v] {
		s.cand[u][v] = false
		s.removals++
		s.removed[u] = append(s.removed[u], v)
	}
}

// initCounts fills the support counters and removes the candidates left
// without support on some edge; it reports false when cancelled.
//
// The counter of candidate v on edge (u,u') is |ball(v) ∩ cand(u')|. Bound-1
// edges read it off v's successor list. Any other edge walks balls 64
// centres per pass, from whichever side has the shorter candidate list:
// forward from cand(u), adding one to a centre's counter for every target
// candidate its out-ball reaches, or backward from cand(u') over in-edges,
// adding to a reached candidate's counter the number of centres whose
// in-ball it lies in. Both are the same sum over the pairs (v, v') with v'
// in ball(v); the shorter side takes fewer passes. With an oracle attached
// a probe may instead hand the edge to per-candidate oracle counts.
//
// Under dual simulation the parent counter of candidate v' on the same
// edge is |{v in cand(u) : v' in ball(v)}| — that pair set again, tallied
// at its other end, so the same pass fills both: where a forward pass adds
// one to each centre that reaches v', it adds their number to the parent
// counter of v', and where a backward pass adds to v the number of centres
// it reaches, it adds one to each of those centres' parent counters.
//
// Passes are independent, so with workers > 1 they are handed out whole:
// a pass writes its own centres' counters plainly and adds to the
// counters of the nodes it reaches — which other passes of the edge may
// reach too — atomically.
//
// Candidates without support, or under dual simulation without a parent,
// are removed only after every counter of both kinds is initialized:
// removing eagerly would leave later edges' counters unaware of the node,
// and propagation would then decrement support the counter never included.
func (s *state) initCounts() bool {
	edges := s.q.Edges()
	for ei, e := range edges {
		from, to := s.lists[e.From], s.lists[e.To]
		walked := from
		switch {
		case e.Bound == 1:
			s.plan[ei] = countAdjacent
		case len(to) < len(from):
			s.plan[ei], walked = countBackward, to
		default:
			s.plan[ei] = countForward
		}
		first := 0
		if s.ix != nil && e.Bound != 1 && len(walked) > 0 {
			// The probe runs the walk's first pass for real, so a walk that
			// keeps the edge starts at its second.
			if s.probe(ei, walked) {
				s.plan[ei], walked = countOracle, from
			} else {
				first = min(passWidth, len(walked))
			}
		}
		switch s.plan[ei] {
		case countForward:
			s.forwardEdges++
		case countBackward:
			s.backwardEdges++
		}
		for lo := first; lo < len(walked); lo += passWidth {
			s.todo = append(s.todo, pass{ei, lo, min(lo+passWidth, len(walked))})
		}
	}
	if !s.runPasses() {
		return false
	}
	s.passes += len(s.todo)
	for ei, e := range edges {
		cnt := s.count[ei]
		for _, v := range s.lists[e.From] {
			if cnt[v] == 0 {
				s.remove(e.From, v)
			}
		}
		if s.dual {
			par := s.parent[ei]
			for _, w := range s.lists[e.To] {
				if par[w] == 0 {
					s.remove(e.To, w)
				}
			}
		}
	}
	return true
}

// runPasses executes s.todo, on the caller's goroutine or handed out pass
// by pass to s.workers of them; false means the context was cancelled
// before every pass ran.
func (s *state) runPasses() bool {
	workers := min(s.workers, len(s.todo))
	if workers <= 1 {
		for _, p := range s.todo {
			if s.cancelled() {
				return false
			}
			s.countPass(p, false, math.MaxInt)
		}
		return true
	}
	var next atomic.Int64
	var stopped atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(s.todo) {
					return
				}
				if s.cancelled() {
					stopped.Store(true)
					return
				}
				s.countPass(s.todo[i], true, math.MaxInt)
			}
		}()
	}
	wg.Wait()
	return !stopped.Load()
}

// countPass counts one pass's share of its edge's support, and under dual
// simulation of its parents. shared says other passes of the same edge may
// be running, so additions to a reached node's counter must be atomic. A
// walking pass of a bounded evaluation tallies its work — adjacency entries
// scanned plus per-node overhead — and gives up, returning false with the
// counters partly filled, once the tally exceeds budget; see probe.
func (s *state) countPass(p pass, shared bool, budget int) bool {
	if s.dual {
		s.countPassDual(p, shared)
		return true
	}
	e := s.q.Edges()[p.edge]
	cnt := s.count[p.edge]
	switch s.plan[p.edge] {
	case countAdjacent:
		// OutBall(v, 1) is exactly the successor list (simple graphs: no
		// parallel edges; a self-loop puts v in its own ball and in Out(v)
		// alike).
		candTo := s.cand[e.To]
		for _, v := range s.lists[e.From][p.lo:p.hi] {
			var c int32
			for _, w := range s.g.Out(v) {
				if candTo[w] {
					c++
				}
			}
			cnt[v] = c
		}
		return true
	case countOracle:
		targets := s.lists[e.To]
		bc, batched := s.ix.(batchCounter)
		for _, v := range s.lists[e.From][p.lo:p.hi] {
			if batched {
				cnt[v] = int32(bc.CountWithinOut(v, targets, e.Bound))
				continue
			}
			var c int32
			for _, w := range targets {
				if s.ix.WithinOut(v, w, e.Bound) {
					c++
				}
			}
			cnt[v] = c
		}
		return true
	}
	var radii [passWidth]int
	for i := range radii {
		radii[i] = e.Bound
	}
	work, budgeted := 0, budget < math.MaxInt
	if s.plan[p.edge] == countForward {
		centres, candTo := s.lists[e.From][p.lo:p.hi], s.cand[e.To]
		s.g.VisitOutBalls(centres, radii[:len(centres)], func(w graph.NodeID, _ int, from uint64) bool {
			if candTo[w] {
				for ; from != 0; from &= from - 1 {
					cnt[centres[bits.TrailingZeros64(from)]]++
				}
			}
			if budgeted {
				work += s.g.OutDegree(w) + bfsNodeCost
			}
			return work <= budget
		})
		return work <= budget
	}
	centres, candFrom := s.lists[e.To][p.lo:p.hi], s.cand[e.From]
	s.g.VisitInBalls(centres, radii[:len(centres)], func(v graph.NodeID, _ int, from uint64) bool {
		if candFrom[v] {
			if n := int32(bits.OnesCount64(from)); shared {
				atomic.AddInt32(&cnt[v], n)
			} else {
				cnt[v] += n
			}
		}
		if budgeted {
			work += s.g.InDegree(v) + bfsNodeCost
		}
		return work <= budget
	})
	return work <= budget
}

// countPassDual is countPass filling both counters of every pair it finds.
// A dual evaluation has no oracle, hence no probe and no budget.
func (s *state) countPassDual(p pass, shared bool) {
	e := s.q.Edges()[p.edge]
	cnt, par := s.count[p.edge], s.parent[p.edge]
	add := func(c *int32, n int32) {
		if shared {
			atomic.AddInt32(c, n)
		} else {
			*c += n
		}
	}
	var radii [passWidth]int
	for i := range radii {
		radii[i] = e.Bound
	}
	switch s.plan[p.edge] {
	case countAdjacent:
		candTo := s.cand[e.To]
		for _, v := range s.lists[e.From][p.lo:p.hi] {
			var c int32
			for _, w := range s.g.Out(v) {
				if candTo[w] {
					c++
					add(&par[w], 1)
				}
			}
			cnt[v] = c
		}
	case countForward:
		centres, candTo := s.lists[e.From][p.lo:p.hi], s.cand[e.To]
		s.g.VisitOutBalls(centres, radii[:len(centres)], func(w graph.NodeID, _ int, from uint64) bool {
			if candTo[w] {
				add(&par[w], int32(bits.OnesCount64(from)))
				for ; from != 0; from &= from - 1 {
					cnt[centres[bits.TrailingZeros64(from)]]++
				}
			}
			return true
		})
	case countBackward:
		centres, candFrom := s.lists[e.To][p.lo:p.hi], s.cand[e.From]
		s.g.VisitInBalls(centres, radii[:len(centres)], func(v graph.NodeID, _ int, from uint64) bool {
			if candFrom[v] {
				add(&cnt[v], int32(bits.OnesCount64(from)))
				for ; from != 0; from &= from - 1 {
					par[centres[bits.TrailingZeros64(from)]]++
				}
			}
			return true
		})
	}
}

// probe decides whether the oracle should count edge ei instead of the
// walk over `walked`, by pricing both in adjacency-entry units. The
// oracle's price is sampled (see oraclePrice). The walk's price is not
// sampled but paid: its first pass runs for real under a budget of the
// oracle's price per pass, and the walk keeps the edge exactly when that
// pass finishes within it. So a walk that wins has wasted nothing but the
// oracle's samples, and a walk that loses is cut off having spent no more
// than the oracle will. The probe is deterministic — work counts, not
// wall time — so plan behaviour is reproducible.
func (s *state) probe(ei int, walked []graph.NodeID) (oracleWins bool) {
	passes := (len(walked) + passWidth - 1) / passWidth
	budget := s.oraclePrice(ei, passes)
	if budget < math.MaxInt {
		budget /= passes
	}
	s.passes++
	if s.countPass(pass{ei, 0, min(passWidth, len(walked))}, false, budget) {
		return false
	}
	for _, v := range s.lists[s.q.Edges()[ei].From] {
		s.count[ei][v] = 0
	}
	return true
}

// oraclePrice estimates the work of counting edge ei through the oracle:
// a few evenly spaced candidates report the label work their count
// against the target list would do, plus a fixed overhead per pair, scaled
// up to the whole candidate list. It is math.MaxInt as soon as the samples'
// running mean exceeds a candidate's share of the most a walk of that many
// passes could cost — a partial index falling back to one BFS per pair, or
// bounded queries the labels cannot decide — so sampling a losing oracle
// costs a fraction of the walk. The first samples are held to four
// samples' allowance together, so one expensive candidate among cheap
// ones does not veto on its own.
func (s *state) oraclePrice(ei, passes int) int {
	e := s.q.Edges()[ei]
	from, to := s.lists[e.From], s.lists[e.To]
	// A pass scans the graph at most once per level, and this many levels
	// cover all but pathological diameters.
	levels := 8
	if e.Bound > 0 && e.Bound < levels {
		levels = e.Bound
	}
	share := passes * levels * (s.g.NumEdges() + bfsNodeCost*s.g.NumNodes()) / len(from)
	samples := min(probeSamples, len(from))
	bc, batched := s.ix.(batchCounter)
	work := 0
	for i := 0; i < samples; i++ {
		allowance := share * max(i+1, 4)
		work += len(to) * pairCost
		if batched {
			work += bc.ProbePairWork(from[i*(len(from)/samples)], to, e.Bound, allowance-work)
		} else {
			work += len(to) * defaultQueryCost
		}
		if work > allowance {
			return math.MaxInt
		}
	}
	return work * len(from) / samples
}

// propagate drains the removal worklists: the removed candidates of one
// pattern node u' leave 64 at a time, and one backward pass per edge
// (u,u') takes from every candidate of u the support those 64 gave it —
// the number of them whose in-ball it lies in — removing it in turn when
// none is left. Under dual simulation one forward pass per edge (u',w) is
// the mirror: every candidate of w loses the parents those 64 were, the
// number of them whose out-ball it lies in. The refinement is
// confluent, so batching changes the order of removals, never the
// relation. It reports false when cancelled.
func (s *state) propagate() bool {
	edges := s.q.Edges()
	var batch [passWidth]graph.NodeID
	var radii [passWidth]int
	for {
		// The longest worklist first: fuller passes, fewer of them.
		u := 0
		for v := range s.removed {
			if len(s.removed[v]) > len(s.removed[u]) {
				u = v
			}
		}
		if len(s.removed[u]) == 0 {
			return true
		}
		if s.cancelled() {
			return false
		}
		rest := max(0, len(s.removed[u])-passWidth)
		centres := batch[:copy(batch[:], s.removed[u][rest:])]
		s.removed[u] = s.removed[u][:rest]
		for ei, e := range edges {
			support, parents := int(e.To) == u, s.dual && int(e.From) == u
			if !support && !parents {
				continue
			}
			for i := range centres {
				radii[i] = e.Bound
			}
			if support {
				s.passes++
				cnt, from := s.count[ei], e.From
				s.g.VisitInBalls(centres, radii[:len(centres)], func(p graph.NodeID, _ int, hit uint64) bool {
					if s.cand[from][p] {
						cnt[p] -= int32(bits.OnesCount64(hit))
						if cnt[p] == 0 {
							s.remove(from, p)
						}
					}
					return true
				})
			}
			if parents {
				s.passes++
				par, to := s.parent[ei], e.To
				s.g.VisitOutBalls(centres, radii[:len(centres)], func(c graph.NodeID, _ int, hit uint64) bool {
					if s.cand[to][c] {
						par[c] -= int32(bits.OnesCount64(hit))
						if par[c] == 0 {
							s.remove(to, c)
						}
					}
					return true
				})
			}
		}
	}
}

// relation returns the surviving candidates as M(Q,G): empty when some
// pattern node has none left.
func (s *state) relation() *match.Relation {
	s.sizes = s.sizes[:0]
	for u, l := range s.lists {
		n := 0
		for _, v := range l {
			if s.cand[u][v] {
				n++
			}
		}
		if n == 0 {
			return match.NewRelation(len(s.lists))
		}
		s.sizes = append(s.sizes, n)
	}
	r := match.NewRelationSized(s.sizes)
	for u, l := range s.lists {
		for _, v := range l {
			if s.cand[u][v] {
				r.Add(pattern.NodeIdx(u), v)
			}
		}
	}
	return r
}

// ComputeNaive evaluates the defining fixpoint directly, re-deriving every
// bounded reachability test from scratch each round. Exponentially cleaner
// to audit and brutally slow; it exists as the oracle for property tests.
func ComputeNaive(g *graph.Graph, q *pattern.Pattern) *match.Relation {
	nq := q.NumNodes()
	maxID := g.MaxID()
	cand := make([][]bool, nq)
	for u := 0; u < nq; u++ {
		cand[u] = make([]bool, maxID)
		pred := q.Node(pattern.NodeIdx(u)).Pred
		g.ForEachNode(func(n graph.Node) {
			if pred.Eval(n) {
				cand[u][n.ID] = true
			}
		})
	}
	for changed := true; changed; {
		changed = false
		for _, e := range q.Edges() {
			for vi := 0; vi < maxID; vi++ {
				v := graph.NodeID(vi)
				if !cand[e.From][v] {
					continue
				}
				ball := g.OutBall(v, e.Bound)
				ok := false
				for w := range ball.Dist {
					if cand[e.To][w] {
						ok = true
						break
					}
				}
				if !ok {
					cand[e.From][v] = false
					changed = true
				}
			}
		}
	}
	r := match.NewRelation(nq)
	for u := 0; u < nq; u++ {
		for vi := 0; vi < maxID; vi++ {
			if cand[u][vi] {
				r.Add(pattern.NodeIdx(u), graph.NodeID(vi))
			}
		}
	}
	return r.Normalize()
}
