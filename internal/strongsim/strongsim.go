// Package strongsim implements dual simulation and strong simulation, the
// refinements of graph simulation from the same research line as ExpFinder
// (Ma, Cao, Fan, Huai, Wo: "Capturing Topology in Graph Pattern Matching",
// VLDB 2012). The ICDE demo lists topology-preserving matching as the
// natural extension of its engine; this package supplies it.
//
//   - Dual simulation adds parent obligations to simulation: a match must
//     have both a matching successor for every pattern out-edge and a
//     matching predecessor for every pattern in-edge. It prunes the false
//     matches plain simulation admits (e.g. chain nodes matching cycles).
//
//   - Strong simulation additionally imposes locality: matches must be
//     realizable inside a ball of radius dQ (the pattern's diameter) around
//     some center node, yielding a set of compact "perfect subgraphs"
//     instead of one global relation.
//
// Both are implemented for bounded patterns: a pattern edge with bound k
// obliges a nonempty path of length <= k in the corresponding direction,
// so plain dual simulation is the all-bounds-1 case, mirroring how bounded
// simulation generalizes simulation.
package strongsim

import (
	"context"
	"sort"

	"expfinder/internal/bsim"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// Dual returns the unique maximum (bounded) dual simulation relation: the
// largest relation where every match satisfies its predicate, every pattern
// out-edge (u,u') with bound k is witnessed by a matching descendant within
// k hops, and every pattern in-edge (u0,u) with bound k by a matching
// ancestor within k hops. It is the bounded-simulation kernel run with the
// parent counters on; this package owns no refinement loop of its own.
func Dual(g *graph.Graph, q *pattern.Pattern) *match.Relation {
	return bsim.Evaluate(context.Background(), g, q, match.Dual, 1, nil)
}

// DualNaive iterates the defining fixpoint directly; the reference the
// kernel's dual evaluations are tested against.
func DualNaive(g *graph.Graph, q *pattern.Pattern) *match.Relation {
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
		for u := 0; u < nq; u++ {
			uIdx := pattern.NodeIdx(u)
			for vi := 0; vi < maxID; vi++ {
				v := graph.NodeID(vi)
				if !cand[u][v] {
					continue
				}
				ok := true
				for _, e := range q.OutEdges(uIdx) {
					ball := g.OutBall(v, e.Bound)
					found := false
					for w := range ball.Dist {
						if cand[e.To][w] {
							found = true
							break
						}
					}
					if !found {
						ok = false
						break
					}
				}
				if ok {
					for _, e := range q.InEdges(uIdx) {
						ball := g.InBall(v, e.Bound)
						found := false
						for w := range ball.Dist {
							if cand[e.From][w] {
								found = true
								break
							}
						}
						if !found {
							ok = false
							break
						}
					}
				}
				if !ok {
					cand[u][v] = false
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

// Diameter returns the diameter of the pattern treated as an undirected
// graph with every edge of weight 1 (bounds capped at the given maximum for
// unbounded edges). Strong simulation uses it as the ball radius.
func Diameter(q *pattern.Pattern, unboundedAs int) int {
	n := q.NumNodes()
	if n == 0 {
		return 0
	}
	// Undirected weighted adjacency; weight = bound (unbounded -> cap).
	adj := make([][][2]int, n) // [node] -> list of (neighbor, weight)
	for _, e := range q.Edges() {
		w := e.Bound
		if w == pattern.Unbounded {
			w = unboundedAs
		}
		adj[e.From] = append(adj[e.From], [2]int{int(e.To), w})
		adj[e.To] = append(adj[e.To], [2]int{int(e.From), w})
	}
	diam := 0
	for s := 0; s < n; s++ {
		// Bellman-Ford-ish relaxation; patterns are tiny.
		dist := make([]int, n)
		for i := range dist {
			dist[i] = 1 << 30
		}
		dist[s] = 0
		for iter := 0; iter < n; iter++ {
			for v := 0; v < n; v++ {
				if dist[v] == 1<<30 {
					continue
				}
				for _, nb := range adj[v] {
					if d := dist[v] + nb[1]; d < dist[nb[0]] {
						dist[nb[0]] = d
					}
				}
			}
		}
		for _, d := range dist {
			if d != 1<<30 && d > diam {
				diam = d
			}
		}
	}
	if diam == 0 {
		diam = 1
	}
	return diam
}

// PerfectSubgraph is one strong-simulation result: the dual match relation
// inside the ball centered at Center.
type PerfectSubgraph struct {
	Center   graph.NodeID
	Radius   int
	Relation *match.Relation
}

// Strong computes strong simulation: for every data node w that satisfies
// some pattern predicate, restrict the graph to the undirected ball of
// radius dQ around w, compute the maximum (bounded) dual simulation inside
// it, and keep it if w itself is matched. Duplicate relations (balls whose
// dual matches coincide) are deduplicated, keeping the smallest center.
func Strong(g *graph.Graph, q *pattern.Pattern) []PerfectSubgraph {
	radius := Diameter(q, 3)
	// Candidate centers: nodes satisfying at least one pattern predicate.
	isCand := make([]bool, g.MaxID())
	for u := 0; u < q.NumNodes(); u++ {
		pred := q.Node(pattern.NodeIdx(u)).Pred
		g.ForEachNode(func(n graph.Node) {
			if pred.Eval(n) {
				isCand[n.ID] = true
			}
		})
	}
	var out []PerfectSubgraph
	seen := map[string]bool{}
	g.ForEachNode(func(n graph.Node) {
		if !isCand[n.ID] {
			return
		}
		sub, idMap := undirectedBallSubgraph(g, n.ID, radius)
		rel := Dual(sub, q)
		if rel.IsEmpty() {
			return
		}
		// The center must participate in the match.
		center := idMap[n.ID]
		matched := false
		for u := 0; u < q.NumNodes(); u++ {
			if rel.Has(pattern.NodeIdx(u), center) {
				matched = true
				break
			}
		}
		if !matched {
			return
		}
		// Translate back to original node ids.
		back := make(map[graph.NodeID]graph.NodeID, len(idMap))
		for orig, local := range idMap {
			back[local] = orig
		}
		global := match.NewRelation(q.NumNodes())
		for _, p := range rel.Pairs() {
			global.Add(p.PNode, back[p.Node])
		}
		key := relKey(global)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, PerfectSubgraph{Center: n.ID, Radius: radius, Relation: global})
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Center < out[j].Center })
	return out
}

// relKey renders a relation canonically for deduplication.
func relKey(r *match.Relation) string {
	pairs := r.Pairs()
	buf := make([]byte, 0, len(pairs)*8)
	for _, p := range pairs {
		buf = append(buf,
			byte(p.PNode), byte(p.Node), byte(p.Node>>8), byte(p.Node>>16), byte(p.Node>>24), ';')
	}
	return string(buf)
}

// undirectedBallSubgraph extracts the subgraph induced by nodes within
// undirected distance radius of center, returning it along with the map
// from original to local node ids.
func undirectedBallSubgraph(g *graph.Graph, center graph.NodeID, radius int) (*graph.Graph, map[graph.NodeID]graph.NodeID) {
	type qe struct {
		id graph.NodeID
		d  int
	}
	inBall := map[graph.NodeID]bool{center: true}
	queue := []qe{{center, 0}}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		if cur.d >= radius {
			continue
		}
		for _, dir := range [][]graph.NodeID{g.Out(cur.id), g.In(cur.id)} {
			for _, nb := range dir {
				if !inBall[nb] {
					inBall[nb] = true
					queue = append(queue, qe{nb, cur.d + 1})
				}
			}
		}
	}
	// Deterministic local ids: sort members.
	members := make([]graph.NodeID, 0, len(inBall))
	for id := range inBall {
		members = append(members, id)
	}
	sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
	sub := graph.New(len(members))
	idMap := make(map[graph.NodeID]graph.NodeID, len(members))
	for _, id := range members {
		n := g.MustNode(id)
		idMap[id] = sub.AddNode(n.Label, n.Attrs)
	}
	for _, id := range members {
		for _, w := range g.Out(id) {
			if inBall[w] {
				if err := sub.AddEdge(idMap[id], idMap[w]); err != nil {
					panic(err) // source graph is simple; cannot fail
				}
			}
		}
	}
	return sub, idMap
}
