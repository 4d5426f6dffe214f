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
	return ranked(v, rg.Impact(s, i)), true // one forward and one backward Dijkstra
}

// ranked is f(uo,v) from v's impact.
func ranked(v graph.NodeID, im match.Impact) Ranked {
	r := Ranked{Node: v, Rank: math.Inf(1), Connected: im.Connected}
	if im.Connected > 0 {
		r.Rank = float64(im.Sum) / float64(im.Connected)
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

// best sorts res best-first and returns its k best (k <= 0: all).
func best(res []Ranked, k int) []Ranked {
	sort.Slice(res, func(i, j int) bool { return better(res[i], res[j]) })
	if k > 0 && k < len(res) {
		res = append([]Ranked(nil), res[:k]...) // do not pin the full ranking
	}
	return res
}

// impacts resolves matches to node indices of rg once (-1: not a node) and
// computes all their impacts on one pooled scratch, 64 matches per walk
// when there are enough of them (see match.ResultGraph.Impacts).
func impacts(rg *match.ResultGraph, matches []graph.NodeID) ([]int32, []match.Impact) {
	idx := make([]int32, len(matches))
	for k, v := range matches {
		i, _ := rg.IndexOf(v)
		idx[k] = int32(i)
	}
	out := make([]match.Impact, len(matches))
	s := match.AcquireScratch()
	defer s.Release()
	rg.Impacts(s, idx, out)
	return idx, out
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
// Matches that are not nodes of rg are left out.
func TopKWithResultGraph(rg *match.ResultGraph, q *pattern.Pattern, r *match.Relation, k int) []Ranked {
	matches := r.MatchesOf(q.Output())
	idx, ims := impacts(rg, matches)
	res := make([]Ranked, 0, len(matches))
	for j, v := range matches {
		if idx[j] >= 0 {
			res = append(res, ranked(v, ims[j]))
		}
	}
	return best(res, k)
}
