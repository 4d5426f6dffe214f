package rank

// The map-based result graph and ranking as they stood before the flat
// rebuild, kept verbatim (identifiers gain a ref prefix, nothing else
// changes) as the frozen reference differential_test.go pins
// match.BuildResultGraph, ResultGraph.Distances, Score, the four metrics
// and the TopK functions to.

import (
	"container/heap"
	"math"
	"sort"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// refResultGraph is the paper's visualization of M(Q,G): one node per matched
// data node, and for every pattern edge (u,u') and match pair (v,v') with
// dist(v,v') within the bound, an edge v->v' weighted by the shortest-path
// length. The ranking function measures social impact as distances in this
// graph.
type refResultGraph struct {
	nodes []graph.NodeID
	index map[graph.NodeID]int
	out   map[graph.NodeID][]match.WEdge
	in    map[graph.NodeID][]match.WEdge
	// PNodeOf records which pattern nodes each data node matches (a data
	// node can match several pattern nodes).
	PNodeOf map[graph.NodeID][]pattern.NodeIdx
}

// refBuildResultGraph constructs the result graph for a match relation over a
// data graph. For every pattern edge with bound k it runs a depth-k BFS
// from each match of the source node (full BFS for unbounded edges) and
// connects it to the matches of the target node it can reach.
func refBuildResultGraph(g *graph.Graph, q *pattern.Pattern, r *match.Relation) *refResultGraph {
	rg := &refResultGraph{
		index:   map[graph.NodeID]int{},
		out:     map[graph.NodeID][]match.WEdge{},
		in:      map[graph.NodeID][]match.WEdge{},
		PNodeOf: map[graph.NodeID][]pattern.NodeIdx{},
	}
	for u := 0; u < r.NumPatternNodes(); u++ {
		for _, v := range r.MatchesOf(pattern.NodeIdx(u)) {
			rg.addNode(v)
			rg.PNodeOf[v] = append(rg.PNodeOf[v], pattern.NodeIdx(u))
		}
	}
	type edgeKey struct {
		from, to graph.NodeID
	}
	seen := map[edgeKey]bool{}
	for _, e := range q.Edges() {
		for _, v := range r.MatchesOf(e.From) {
			ball := g.OutBall(v, e.Bound) // Bound==Unbounded(-1) means full BFS
			for _, w := range r.MatchesOf(e.To) {
				d, ok := ball.Dist[w]
				if !ok {
					continue
				}
				k := edgeKey{v, w}
				if seen[k] {
					continue
				}
				seen[k] = true
				rg.out[v] = append(rg.out[v], match.WEdge{To: w, Weight: d})
				rg.in[w] = append(rg.in[w], match.WEdge{To: v, Weight: d})
			}
		}
	}
	rg.sortAdjacency()
	return rg
}

func (rg *refResultGraph) addNode(v graph.NodeID) {
	if _, ok := rg.index[v]; ok {
		return
	}
	rg.index[v] = len(rg.nodes)
	rg.nodes = append(rg.nodes, v)
}

func (rg *refResultGraph) sortAdjacency() {
	for _, adj := range []map[graph.NodeID][]match.WEdge{rg.out, rg.in} {
		for _, es := range adj {
			sort.Slice(es, func(i, j int) bool { return es[i].To < es[j].To })
		}
	}
}

// Nodes returns the matched data nodes in insertion (pattern-node) order.
func (rg *refResultGraph) Nodes() []graph.NodeID { return rg.nodes }

// NumNodes returns the number of distinct matched data nodes.
func (rg *refResultGraph) NumNodes() int { return len(rg.nodes) }

// NumEdges returns the number of result edges.
func (rg *refResultGraph) NumEdges() int {
	n := 0
	for _, es := range rg.out {
		n += len(es)
	}
	return n
}

// Has reports whether v is a node of the result graph.
func (rg *refResultGraph) Has(v graph.NodeID) bool {
	_, ok := rg.index[v]
	return ok
}

// Out returns the weighted out-edges of v.
func (rg *refResultGraph) Out(v graph.NodeID) []match.WEdge { return rg.out[v] }

// In returns the weighted in-edges of v (each WEdge.To is a predecessor).
func (rg *refResultGraph) In(v graph.NodeID) []match.WEdge { return rg.in[v] }

// Weight returns the weight of edge (u,v) and whether it exists.
func (rg *refResultGraph) Weight(u, v graph.NodeID) (int, bool) {
	for _, e := range rg.out[u] {
		if e.To == v {
			return e.Weight, true
		}
	}
	return 0, false
}

// dijkstraItem is a priority-queue entry.
type dijkstraItem struct {
	node graph.NodeID
	dist int
}

type dijkstraPQ []dijkstraItem

func (pq dijkstraPQ) Len() int           { return len(pq) }
func (pq dijkstraPQ) Less(i, j int) bool { return pq[i].dist < pq[j].dist }
func (pq dijkstraPQ) Swap(i, j int)      { pq[i], pq[j] = pq[j], pq[i] }
func (pq *dijkstraPQ) Push(x any)        { *pq = append(*pq, x.(dijkstraItem)) }
func (pq *dijkstraPQ) Pop() any {
	old := *pq
	n := len(old)
	item := old[n-1]
	*pq = old[:n-1]
	return item
}

// Distances runs Dijkstra over the weighted result graph from src, forward
// (reverse=false, distances *to* descendants) or backward (reverse=true,
// distances *from* ancestors). The source maps to 0. Unreachable nodes are
// absent from the returned map.
func (rg *refResultGraph) Distances(src graph.NodeID, reverse bool) map[graph.NodeID]int {
	dist := map[graph.NodeID]int{}
	if !rg.Has(src) {
		return dist
	}
	adj := rg.out
	if reverse {
		adj = rg.in
	}
	dist[src] = 0
	pq := &dijkstraPQ{{node: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(dijkstraItem)
		if it.dist > dist[it.node] {
			continue // stale entry
		}
		for _, e := range adj[it.node] {
			nd := it.dist + e.Weight
			if cur, ok := dist[e.To]; !ok || nd < cur {
				dist[e.To] = nd
				heap.Push(pq, dijkstraItem{node: e.To, dist: nd})
			}
		}
	}
	return dist
}

// Score computes the rank of a single output-node match within a result
// graph. The boolean is false when v is not a node of the result graph.
func refScore(rg *refResultGraph, v graph.NodeID) (Ranked, bool) {
	if !rg.Has(v) {
		return Ranked{}, false
	}
	down := rg.Distances(v, false) // v to descendants
	up := rg.Distances(v, true)    // ancestors to v
	sum := 0
	connected := map[graph.NodeID]bool{}
	for w, d := range down {
		if w == v {
			continue
		}
		sum += d
		connected[w] = true
	}
	for w, d := range up {
		if w == v {
			continue
		}
		sum += d
		connected[w] = true
	}
	r := Ranked{Node: v, Connected: len(connected)}
	if len(connected) == 0 {
		r.Rank = math.Inf(1)
	} else {
		r.Rank = float64(sum) / float64(len(connected))
	}
	return r, true
}

// refRankHeap is a bounded max-heap over ranks: the worst (largest) rank sits
// at the top so it can be evicted when a better candidate arrives.
type refRankHeap []Ranked

func (h refRankHeap) Len() int { return len(h) }
func (h refRankHeap) Less(i, j int) bool {
	if h[i].Rank != h[j].Rank {
		return h[i].Rank > h[j].Rank
	}
	return h[i].Node > h[j].Node
}
func (h refRankHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refRankHeap) Push(x any)   { *h = append(*h, x.(Ranked)) }
func (h *refRankHeap) Pop() any {
	old := *h
	n := len(old)
	item := old[n-1]
	*h = old[:n-1]
	return item
}

// TopKWithResultGraph is TopK for callers that already built the result
// graph (the engine builds it once and reuses it for display and ranking).
func refTopKWithResultGraph(rg *refResultGraph, q *pattern.Pattern, r *match.Relation, k int) []Ranked {
	out := q.Output()
	matches := r.MatchesOf(out)
	if k <= 0 || k > len(matches) {
		k = len(matches)
	}
	h := make(refRankHeap, 0, k+1)
	for _, v := range matches {
		sc, ok := refScore(rg, v)
		if !ok {
			continue
		}
		if len(h) < k {
			heap.Push(&h, sc)
			continue
		}
		if better(sc, h[0]) {
			h[0] = sc
			heap.Fix(&h, 0)
		}
	}
	res := []Ranked(h)
	sort.Slice(res, func(i, j int) bool { return better(res[i], res[j]) })
	return res
}

// Metric scores a candidate expert v within the result graph. Lower scores
// rank higher.
type refMetric interface {
	// Name identifies the metric in tool output.
	Name() string
	// Score returns the candidate's score and how many result-graph nodes
	// are connected to it (0 connected conventionally scores +Inf).
	Score(rg *refResultGraph, v graph.NodeID) (float64, int)
}

// refAvgDistance is the paper's social-impact metric: the average weighted
// distance between v and every result-graph node connected to it.
type refAvgDistance struct{}

// Name implements Metric.
func (refAvgDistance) Name() string { return "avg-distance" }

// Score implements Metric.
func (refAvgDistance) Score(rg *refResultGraph, v graph.NodeID) (float64, int) {
	r, ok := refScore(rg, v)
	if !ok {
		return math.Inf(1), 0
	}
	return r.Rank, r.Connected
}

// refCloseness is classic closeness centrality inverted to lower-is-better:
// the reciprocal of the number of connected nodes divided by their total
// distance — equivalent ordering to refAvgDistance on connected components,
// but normalized to (0, +Inf) the standard way.
type refCloseness struct{}

// Name implements Metric.
func (refCloseness) Name() string { return "closeness" }

// Score implements Metric.
func (refCloseness) Score(rg *refResultGraph, v graph.NodeID) (float64, int) {
	r, ok := refScore(rg, v)
	if !ok || r.Connected == 0 {
		return math.Inf(1), 0
	}
	// refCloseness = connected / total distance; invert for lower-is-better.
	total := r.Rank * float64(r.Connected)
	if total == 0 {
		return 0, r.Connected
	}
	return total / float64(r.Connected*r.Connected), r.Connected
}

// refDegree ranks by (negated) degree in the result graph: experts touching
// more of the matched team come first. Distances are ignored.
type refDegree struct{}

// Name implements Metric.
func (refDegree) Name() string { return "degree" }

// Score implements Metric.
func (refDegree) Score(rg *refResultGraph, v graph.NodeID) (float64, int) {
	if !rg.Has(v) {
		return math.Inf(1), 0
	}
	deg := len(rg.Out(v)) + len(rg.In(v))
	if deg == 0 {
		return math.Inf(1), 0
	}
	return -float64(deg), deg
}

// refPageRank scores by (negated) refPageRank over the result graph, treating
// result-edge weights as inverse affinities (shorter collaboration paths
// transfer more score). Experts central to the matched team's structure
// rank first.
type refPageRank struct {
	// Damping defaults to 0.85; Iterations to 30.
	Damping    float64
	Iterations int
}

// Name implements Metric.
func (refPageRank) Name() string { return "pagerank" }

// Score implements Metric — but refPageRank is global, so TopKByMetric special
// cases it; Score computes the full vector and reads one entry (correct,
// if wasteful, for direct calls).
func (p refPageRank) Score(rg *refResultGraph, v graph.NodeID) (float64, int) {
	pr := p.vector(rg)
	score, ok := pr[v]
	if !ok {
		return math.Inf(1), 0
	}
	return -score, len(rg.Out(v)) + len(rg.In(v))
}

// vector computes refPageRank over the result graph.
func (p refPageRank) vector(rg *refResultGraph) map[graph.NodeID]float64 {
	damping := p.Damping
	if damping == 0 {
		damping = 0.85
	}
	iters := p.Iterations
	if iters == 0 {
		iters = 30
	}
	nodes := rg.Nodes()
	n := len(nodes)
	if n == 0 {
		return nil
	}
	pr := make(map[graph.NodeID]float64, n)
	for _, v := range nodes {
		pr[v] = 1.0 / float64(n)
	}
	// Out-weight totals: affinity 1/weight per edge.
	outTotal := make(map[graph.NodeID]float64, n)
	for _, v := range nodes {
		for _, e := range rg.Out(v) {
			outTotal[v] += 1.0 / float64(e.Weight)
		}
	}
	for it := 0; it < iters; it++ {
		next := make(map[graph.NodeID]float64, n)
		base := (1 - damping) / float64(n)
		var sinkMass float64
		for _, v := range nodes {
			if outTotal[v] == 0 {
				sinkMass += pr[v]
			}
		}
		for _, v := range nodes {
			next[v] = base + damping*sinkMass/float64(n)
		}
		for _, v := range nodes {
			if outTotal[v] == 0 {
				continue
			}
			share := damping * pr[v] / outTotal[v]
			for _, e := range rg.Out(v) {
				next[e.To] += share / float64(e.Weight)
			}
		}
		pr = next
	}
	return pr
}

// refBulkScorer is implemented by metrics whose scores are cheaper to compute
// for all nodes at once (refPageRank); TopKByMetric uses it when available.
type refBulkScorer interface {
	scoreAll(rg *refResultGraph) map[graph.NodeID]float64
}

func (p refPageRank) scoreAll(rg *refResultGraph) map[graph.NodeID]float64 {
	pr := p.vector(rg)
	out := make(map[graph.NodeID]float64, len(pr))
	for v, s := range pr {
		out[v] = -s
	}
	return out
}

// TopKByMetricWithResultGraph is TopKByMetric over a pre-built result graph.
func refTopKByMetricWithResultGraph(rg *refResultGraph, q *pattern.Pattern, r *match.Relation, k int, metric refMetric) []Ranked {
	matches := r.MatchesOf(q.Output())
	if k <= 0 || k > len(matches) {
		k = len(matches)
	}
	var bulk map[graph.NodeID]float64
	if bs, ok := metric.(refBulkScorer); ok {
		bulk = bs.scoreAll(rg)
	}
	h := make(refRankHeap, 0, k+1)
	for _, v := range matches {
		var sc Ranked
		if bulk != nil {
			score, ok := bulk[v]
			if !ok {
				score = math.Inf(1)
			}
			sc = Ranked{Node: v, Rank: score, Connected: len(rg.Out(v)) + len(rg.In(v))}
		} else {
			score, connected := metric.Score(rg, v)
			sc = Ranked{Node: v, Rank: score, Connected: connected}
		}
		if len(h) < k {
			heap.Push(&h, sc)
			continue
		}
		if better(sc, h[0]) {
			h[0] = sc
			heap.Fix(&h, 0)
		}
	}
	res := []Ranked(h)
	sort.Slice(res, func(i, j int) bool { return better(res[i], res[j]) })
	return res
}
