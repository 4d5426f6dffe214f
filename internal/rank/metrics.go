package rank

import (
	"math"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// The paper ranks by average distance "as one of the commonly used metrics
// in social network analysis. Note that other metrics can be readily
// supported by ExpFinder." This file supports them: a Metric scores one
// output-node match within a result graph, and TopKByMetric ranks under any
// of them. All built-in metrics are normalized so that *lower is better*,
// matching the paper's f().

// Metric scores a candidate expert v within the result graph. Lower scores
// rank higher.
type Metric interface {
	// Name identifies the metric in tool output.
	Name() string
	// Score returns the candidate's score and how many result-graph nodes
	// are connected to it (0 connected conventionally scores +Inf).
	Score(rg *match.ResultGraph, v graph.NodeID) (float64, int)
}

// AvgDistance is the paper's social-impact metric: the average weighted
// distance between v and every result-graph node connected to it.
type AvgDistance struct{}

// Name implements Metric.
func (AvgDistance) Name() string { return "avg-distance" }

// Score implements Metric.
func (AvgDistance) Score(rg *match.ResultGraph, v graph.NodeID) (float64, int) {
	r, ok := Score(rg, v)
	if !ok {
		return math.Inf(1), 0
	}
	return r.Rank, r.Connected
}

// Closeness is classic closeness centrality inverted to lower-is-better:
// the reciprocal of the number of connected nodes divided by their total
// distance — equivalent ordering to AvgDistance on connected components,
// but normalized to (0, +Inf) the standard way.
type Closeness struct{}

// Name implements Metric.
func (Closeness) Name() string { return "closeness" }

// Score implements Metric.
func (Closeness) Score(rg *match.ResultGraph, v graph.NodeID) (float64, int) {
	r, _ := Score(rg, v) // not a node: the zero Ranked, connected to nothing
	return closeness(r), r.Connected
}

// closeness turns an average-distance rank into inverted closeness.
func closeness(r Ranked) float64 {
	if r.Connected == 0 {
		return math.Inf(1)
	}
	// Closeness = connected / total distance; invert for lower-is-better.
	total := r.Rank * float64(r.Connected)
	if total == 0 {
		return 0
	}
	return total / float64(r.Connected*r.Connected)
}

// Degree ranks by (negated) degree in the result graph: experts touching
// more of the matched team come first. Distances are ignored.
type Degree struct{}

// Name implements Metric.
func (Degree) Name() string { return "degree" }

// Score implements Metric.
func (Degree) Score(rg *match.ResultGraph, v graph.NodeID) (float64, int) {
	i, ok := rg.IndexOf(v)
	if !ok {
		return math.Inf(1), 0
	}
	deg := degree(rg, i)
	if deg == 0 {
		return math.Inf(1), 0
	}
	return -float64(deg), deg
}

// degree is the number of result edges touching node index i.
func degree(rg *match.ResultGraph, i int) int {
	return len(rg.OutAt(i)) + len(rg.InAt(i))
}

// PageRank scores by (negated) PageRank over the result graph, treating
// result-edge weights as inverse affinities (shorter collaboration paths
// transfer more score). Experts central to the matched team's structure
// rank first.
type PageRank struct {
	// Damping defaults to 0.85; Iterations to 30.
	Damping    float64
	Iterations int
}

// Name implements Metric.
func (PageRank) Name() string { return "pagerank" }

// Score implements Metric — but PageRank is global, so TopKByMetric special
// cases it; Score computes the full vector and reads one entry (correct,
// if wasteful, for direct calls).
func (p PageRank) Score(rg *match.ResultGraph, v graph.NodeID) (float64, int) {
	i, ok := rg.IndexOf(v)
	if !ok {
		return math.Inf(1), 0
	}
	return -p.vector(rg)[i], degree(rg, i)
}

// vector computes PageRank over the result graph, indexed like rg.Nodes().
// Every sum runs in node-index and then edge order, which fixes the
// floating-point result.
func (p PageRank) vector(rg *match.ResultGraph) []float64 {
	damping := p.Damping
	if damping == 0 {
		damping = 0.85
	}
	iters := p.Iterations
	if iters == 0 {
		iters = 30
	}
	n := rg.NumNodes()
	if n == 0 {
		return nil
	}
	pr, next := make([]float64, n), make([]float64, n)
	for i := range pr {
		pr[i] = 1.0 / float64(n)
	}
	// Out-weight totals: affinity 1/weight per edge.
	outTotal := make([]float64, n)
	for i := range outTotal {
		for _, e := range rg.OutAt(i) {
			outTotal[i] += 1.0 / float64(e.Weight)
		}
	}
	for it := 0; it < iters; it++ {
		base := (1 - damping) / float64(n)
		var sinkMass float64
		for i := range pr {
			if outTotal[i] == 0 {
				sinkMass += pr[i]
			}
		}
		for i := range next {
			next[i] = base + damping*sinkMass/float64(n)
		}
		for i := range pr {
			if outTotal[i] == 0 {
				continue
			}
			share := damping * pr[i] / outTotal[i]
			for _, e := range rg.OutAt(i) {
				next[e.To] += share / float64(e.Weight)
			}
		}
		pr, next = next, pr
	}
	return pr
}

// bulkScorer is implemented by metrics that score all of M(uo) at once more
// cheaply than match by match: PageRank computes one vector, the
// distance-based metrics walk 64 matches at a time. scoreAll returns one
// Ranked per match, in order; a match that is not a node of rg scores +Inf
// and is connected to nothing.
type bulkScorer interface {
	scoreAll(rg *match.ResultGraph, matches []graph.NodeID) []Ranked
}

func (AvgDistance) scoreAll(rg *match.ResultGraph, matches []graph.NodeID) []Ranked {
	_, ims := impacts(rg, matches) // a match outside rg has the zero impact
	res := make([]Ranked, len(matches))
	for j, v := range matches {
		res[j] = ranked(v, ims[j])
	}
	return res
}

func (Closeness) scoreAll(rg *match.ResultGraph, matches []graph.NodeID) []Ranked {
	res := AvgDistance{}.scoreAll(rg, matches)
	for j := range res {
		res[j].Rank = closeness(res[j])
	}
	return res
}

func (p PageRank) scoreAll(rg *match.ResultGraph, matches []graph.NodeID) []Ranked {
	pr := p.vector(rg)
	res := make([]Ranked, len(matches))
	for j, v := range matches {
		res[j] = Ranked{Node: v, Rank: math.Inf(1)}
		if i, ok := rg.IndexOf(v); ok {
			res[j] = Ranked{Node: v, Rank: -pr[i], Connected: degree(rg, i)}
		}
	}
	return res
}

// TopKByMetric ranks the output node's matches under the given metric and
// returns the best k (k <= 0 returns all), best-first, ties broken by node
// id. The paper's TopK equals TopKByMetric with AvgDistance{}.
func TopKByMetric(g *graph.Graph, q *pattern.Pattern, r *match.Relation, k int, metric Metric) []Ranked {
	rg := match.BuildResultGraph(g, q, r)
	return TopKByMetricWithResultGraph(rg, q, r, k, metric)
}

// TopKByMetricWithResultGraph is TopKByMetric over a pre-built result graph.
func TopKByMetricWithResultGraph(rg *match.ResultGraph, q *pattern.Pattern, r *match.Relation, k int, metric Metric) []Ranked {
	matches := r.MatchesOf(q.Output())
	if bs, ok := metric.(bulkScorer); ok {
		return best(bs.scoreAll(rg, matches), k)
	}
	res := make([]Ranked, len(matches))
	for j, v := range matches {
		rank, connected := metric.Score(rg, v)
		res[j] = Ranked{Node: v, Rank: rank, Connected: connected}
	}
	return best(res, k)
}
