package distindex

import (
	"sync"

	"expfinder/internal/graph"
)

// querySc is the reusable scratch of batch counting: a dense
// rank -> anchor-distance array (inf elsewhere) plus the touched ranks.
type querySc struct {
	tmp     []int32
	touched []int32
}

var queryScPool = sync.Pool{New: func() any { return &querySc{} }}

func (ix *Index) acquireQuerySc() *querySc {
	sc := queryScPool.Get().(*querySc)
	if len(sc.tmp) < len(ix.ord) {
		sc.tmp = make([]int32, len(ix.ord))
		for i := range sc.tmp {
			sc.tmp[i] = inf
		}
	}
	return sc
}

func (sc *querySc) release() {
	for _, r := range sc.touched {
		sc.tmp[r] = inf
	}
	sc.touched = sc.touched[:0]
	queryScPool.Put(sc)
}

// upperBound returns the label upper bound on the nonempty-path distance
// d(u -> v) for u != v: the min over common landmarks of d(u->h) + d(h->v),
// or inf when the labels share none. The bound is realizable (a path of
// that length exists); on a complete index it IS the distance, with inf
// meaning unreachable.
func (ix *Index) upperBound(u, v graph.NodeID) int32 {
	hi := inf
	a, b := ix.lout[u], ix.lin[v]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].rank == b[j].rank:
			if s := a[i].d + b[j].d; s < hi {
				hi = s
			}
			i++
			j++
		case a[i].rank < b[j].rank:
			i++
		default:
			j++
		}
	}
	return hi
}

// provedWithin reports whether the labels prove d(u -> v) <= bound for
// u != v (bound < 0 = any finite distance): the merge early-exits at the
// first common landmark within budget, which makes positive answers on
// well-covered pairs near-O(1) — the top-ranked landmark usually decides.
// On a complete index a false return is also definitive (the full merge
// just established min > bound, or no common landmark = unreachable).
func (ix *Index) provedWithin(u, v graph.NodeID, bound int) bool {
	a, b := ix.lout[u], ix.lin[v]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].rank == b[j].rank:
			if bound < 0 || int(a[i].d+b[j].d) <= bound {
				return true
			}
			i++
			j++
		case a[i].rank < b[j].rank:
			i++
		default:
			j++
		}
	}
	return false
}

// lowerBound returns the triangle-inequality lower bound on d(u -> v) on
// a partial index (0 on a complete one, whose labels decide alone).
func (ix *Index) lowerBound(u, v graph.NodeID) (lo int32) {
	if ix.complete {
		return 0
	}
	var a, b []entry
	// Lower bounds for the partial index, from the two triangle
	// inequalities that bracket d(u->v) through a shared landmark h:
	//   d(h->v) <= d(h->u) + d(u->v)  =>  d(u->v) >= d(h->v) - d(h->u)
	//   d(u->h) <= d(u->v) + d(v->h)  =>  d(u->v) >= d(u->h) - d(v->h)
	a, b = ix.lin[u], ix.lin[v]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].rank == b[j].rank:
			if d := b[j].d - a[i].d; d > lo {
				lo = d
			}
			i++
			j++
		case a[i].rank < b[j].rank:
			i++
		default:
			j++
		}
	}
	a, b = ix.lout[u], ix.lout[v]
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i].rank == b[j].rank:
			if d := a[i].d - b[j].d; d > lo {
				lo = d
			}
			i++
			j++
		case a[i].rank < b[j].rank:
			i++
		default:
			j++
		}
	}
	return lo
}

// WithinOut reports whether v lies inside u's out-ball of radius bound:
// some nonempty path u -> v of length <= bound exists (bound < 0 means
// unbounded, i.e. plain reachability). Per nonempty-path semantics,
// WithinOut(u, u, k) asks whether u lies on a cycle of length <= k. The
// answer is always exact: labels prove or refute it in O(|label|), and a
// bounded BFS fallback covers whatever the labels cannot decide.
func (ix *Index) WithinOut(u, v graph.NodeID, bound int) bool {
	ix.queries.Add(1)
	if bound == 0 || !ix.g.Has(u) || !ix.g.Has(v) {
		return false
	}
	if !ix.usable() {
		ix.fallbacks.Add(1)
		return ix.fallbackWithin(u, v, bound)
	}
	if u == v {
		return ix.cycleWithin(u, bound)
	}
	if ix.provedWithin(u, v, bound) {
		ix.proved.Add(1)
		return true
	}
	if ix.complete {
		// The full merge just established that the exact distance exceeds
		// the bound (or that v is unreachable).
		ix.refuted.Add(1)
		return false
	}
	if bound >= 0 && int(ix.lowerBound(u, v)) > bound {
		ix.refuted.Add(1)
		return false
	}
	ix.fallbacks.Add(1)
	return ix.fallbackWithin(u, v, bound)
}

// cycleWithin answers WithinOut(v, v, bound): is v on a cycle of length
// <= bound? The shortest cycle through v is 1 + min over out-neighbors w
// of d(w -> v), so the labels decide it in O(outdeg * |label|).
func (ix *Index) cycleWithin(v graph.NodeID, bound int) bool {
	nbBound := bound - 1 // cycle = edge to w + path w -> v
	if bound < 0 {
		nbBound = -1
	}
	undecided := false
	for _, w := range ix.g.Out(v) {
		if w == v { // self-loop: cycle of length 1
			ix.proved.Add(1)
			return true
		}
		if nbBound != 0 && ix.provedWithin(w, v, nbBound) {
			ix.proved.Add(1)
			return true
		}
		if !ix.complete && !(nbBound >= 0 && int(ix.lowerBound(w, v)) > nbBound) {
			undecided = true
		}
	}
	if ix.complete || !undecided {
		ix.refuted.Add(1)
		return false
	}
	ix.fallbacks.Add(1)
	return ix.fallbackWithin(v, v, bound)
}

// fallbackWithin is the exact bounded-BFS answer, used when labels cannot
// decide (partial index) or the index is not usable (the graph moved).
func (ix *Index) fallbackWithin(u, v graph.NodeID, bound int) bool {
	ok, _ := ix.fallbackWithinCost(u, v, bound)
	return ok
}

// fallbackWithinCost is fallbackWithin, also reporting the adjacency
// entries the BFS scanned (for the batch-count work accounting).
func (ix *Index) fallbackWithinCost(u, v graph.NodeID, bound int) (found bool, work int) {
	work = ix.g.OutDegree(u)
	ix.g.VisitOutBall(u, bound, func(w graph.NodeID, _ int) bool {
		if w == v {
			found = true
			return false
		}
		work += ix.g.OutDegree(w)
		return true
	})
	return found, work
}

// CountWithinOut returns |{w in targets : WithinOut(u, w, bound)}| — the
// bounded-simulation support counter of candidate u against the target
// candidate list. It is semantically exactly a WithinOut loop, but loads
// u's out-label into a dense rank array once and then answers each target
// with an early-exit scan of its in-label — O(|lin(w)|) array probes per
// target instead of a two-pointer merge, with positive answers usually
// decided by the target's first (top-ranked) entry.
func (ix *Index) CountWithinOut(u graph.NodeID, targets []graph.NodeID, bound int) int {
	n, _ := ix.countWithinOut(u, targets, bound)
	return n
}

// ProbePairWork reports the label (and fallback) work a
// CountWithinOut(u, targets, bound) call would do, giving up once the
// tally exceeds budget — bsim's strategy probe compares it against the
// adjacency entries a BFS count would scan, and capping it means probing
// a losing strategy never costs more than the winning one. The probe does
// not touch the query counters.
func (ix *Index) ProbePairWork(u graph.NodeID, targets []graph.NodeID, bound, budget int) int {
	if !ix.usable() || !ix.g.Has(u) {
		return budget + 1 // stale index: per-pair queries would all BFS anyway
	}
	sc := ix.acquireQuerySc()
	defer sc.release()
	for _, e := range ix.lout[u] {
		sc.tmp[e.rank] = e.d
		sc.touched = append(sc.touched, e.rank)
	}
	work := len(ix.lout[u])
	for _, w := range targets {
		if work > budget {
			return work
		}
		if w == u || !ix.g.Has(w) {
			work++
			continue
		}
		hit := false
		for _, e := range ix.lin[w] {
			work++
			if a := sc.tmp[e.rank]; a < inf && (bound < 0 || int(a+e.d) <= bound) {
				hit = true
				break
			}
		}
		if !hit && !ix.complete && !(bound >= 0 && int(ix.lowerBound(u, w)) > bound) {
			_, fw := ix.fallbackWithinCost(u, w, bound)
			work += fw
		}
	}
	return work
}

func (ix *Index) countWithinOut(u graph.NodeID, targets []graph.NodeID, bound int) (count, work int) {
	if bound == 0 || !ix.g.Has(u) {
		return 0, 1
	}
	if !ix.usable() {
		// Stale index: per-pair exact fallbacks (WithinOut counts them).
		for _, w := range targets {
			if ix.WithinOut(u, w, bound) {
				count++
			}
		}
		return count, 1 << 30
	}
	sc := ix.acquireQuerySc()
	defer sc.release()
	for _, e := range ix.lout[u] {
		sc.tmp[e.rank] = e.d
		sc.touched = append(sc.touched, e.rank)
	}
	work = len(ix.lout[u])
	for _, w := range targets {
		if w == u {
			ix.queries.Add(1)
			if ix.cycleWithin(u, bound) {
				count++
			}
			continue
		}
		if !ix.g.Has(w) {
			continue
		}
		hit := false
		scanned := 0
		for _, e := range ix.lin[w] {
			scanned++
			if a := sc.tmp[e.rank]; a < inf && (bound < 0 || int(a+e.d) <= bound) {
				hit = true
				break
			}
		}
		work += scanned
		ix.queries.Add(1)
		switch {
		case hit:
			ix.proved.Add(1)
			count++
		case ix.complete:
			ix.refuted.Add(1)
		case bound >= 0 && int(ix.lowerBound(u, w)) > bound:
			ix.refuted.Add(1)
		default:
			ix.fallbacks.Add(1)
			ok, fw := ix.fallbackWithinCost(u, w, bound)
			work += fw
			if ok {
				count++
			}
		}
	}
	return count, work
}

// Distance returns the exact nonempty-path hop distance d(u -> v), or
// graph.Unreachable. On a complete, usable index it is answered from the
// labels; otherwise it degrades to the graph BFS. Primarily for tests and
// diagnostics — the matcher integration uses WithinOut.
func (ix *Index) Distance(u, v graph.NodeID) int {
	if !ix.g.Has(u) || !ix.g.Has(v) {
		return graph.Unreachable
	}
	if ix.complete && ix.usable() && u != v {
		hi := ix.upperBound(u, v)
		if hi >= inf {
			return graph.Unreachable
		}
		return int(hi)
	}
	return ix.g.Distance(u, v)
}
