// Package rank implements ExpFinder's social-impact ranking, the facility
// the demo adds on top of the earlier matching work: among the matches of
// the pattern's output node, prefer experts with short collaboration
// distances to the rest of the matched team.
//
// Given the weighted result graph Gr and a match v of the output node, the
// rank is
//
//	f(uo, v) = (Σ_{u ∈ Vr} dist(u, v) + Σ_{u' ∈ Vr} dist(v, u')) / |Vr'|
//
// where distances are weighted shortest paths in Gr and Vr' is the set of
// nodes that can reach v or be reached from v. Lower is better; the top-K
// matches are the K with minimum rank.
package rank

import (
	"math"
	"sort"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// Ranked is one output-node match with its social-impact rank.
type Ranked struct {
	Node graph.NodeID
	// Rank is the average distance between the match and the result-graph
	// nodes connected to it. Matches connected to nothing rank +Inf.
	Rank float64
	// Connected is |Vr'|: how many other matched nodes the expert is
	// connected to in the result graph.
	Connected int
}

// Score computes the rank of a single output-node match within a result
// graph. The boolean is false when v is not a node of the result graph.
func Score(rg *match.ResultGraph, v graph.NodeID) (Ranked, bool) {
	i, ok := rg.IndexOf(v)
	if !ok {
		return Ranked{}, false
	}
	s := match.AcquireScratch()
	defer s.Release()
	return scoreAt(rg, s, i), true
}

// scoreAt is Score by node index on a caller-held scratch: one forward and
// one backward Dijkstra over the result graph.
func scoreAt(rg *match.ResultGraph, s *match.Scratch, i int) Ranked {
	sum, connected := rg.Impact(s, i)
	r := Ranked{Node: rg.Nodes()[i], Connected: connected}
	if connected == 0 {
		r.Rank = math.Inf(1)
	} else {
		r.Rank = float64(sum) / float64(connected)
	}
	return r
}

// better reports whether a should be preferred to b (lower rank, ties
// broken by node id for determinism).
func better(a, b Ranked) bool {
	if a.Rank != b.Rank {
		return a.Rank < b.Rank
	}
	return a.Node < b.Node
}

// best scores every match and returns the k best (k <= 0: all), best-first.
// Matches score reports false for are left out.
func best(matches []graph.NodeID, k int, score func(v graph.NodeID) (Ranked, bool)) []Ranked {
	res := make([]Ranked, 0, len(matches))
	for _, v := range matches {
		if sc, ok := score(v); ok {
			res = append(res, sc)
		}
	}
	sort.Slice(res, func(i, j int) bool { return better(res[i], res[j]) })
	if k > 0 && k < len(res) {
		res = append([]Ranked(nil), res[:k]...) // do not pin the full ranking
	}
	return res
}

// TopK scores every match of the pattern's output node in the relation and
// returns the K best (lowest rank), ordered best-first. K <= 0 returns all
// matches ranked. Ties break deterministically by node id.
func TopK(g *graph.Graph, q *pattern.Pattern, r *match.Relation, k int) []Ranked {
	rg := match.BuildResultGraph(g, q, r)
	return TopKWithResultGraph(rg, q, r, k)
}

// TopKWithResultGraph is TopK for callers that already built the result
// graph (the engine builds it once and reuses it for display and ranking).
// It costs two Dijkstra runs over the result graph per output match, all
// on one scratch.
func TopKWithResultGraph(rg *match.ResultGraph, q *pattern.Pattern, r *match.Relation, k int) []Ranked {
	s := match.AcquireScratch()
	defer s.Release()
	return best(r.MatchesOf(q.Output()), k, func(v graph.NodeID) (Ranked, bool) {
		i, ok := rg.IndexOf(v)
		if !ok {
			return Ranked{}, false
		}
		return scoreAt(rg, s, i), true
	})
}
