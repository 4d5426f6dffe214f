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
	r, ok := Score(rg, v)
	if !ok || r.Connected == 0 {
		return math.Inf(1), 0
	}
	// Closeness = connected / total distance; invert for lower-is-better.
	total := r.Rank * float64(r.Connected)
	if total == 0 {
		return 0, r.Connected
	}
	return total / float64(r.Connected*r.Connected), r.Connected
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

// bulkScorer is implemented by metrics whose scores are cheaper to compute
// for all nodes at once (PageRank); TopKByMetric uses it when available.
// The scores are indexed like rg.Nodes().
type bulkScorer interface {
	scoreAll(rg *match.ResultGraph) []float64
}

func (p PageRank) scoreAll(rg *match.ResultGraph) []float64 {
	pr := p.vector(rg)
	for i := range pr {
		pr[i] = -pr[i]
	}
	return pr
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
	score := func(v graph.NodeID) (Ranked, bool) {
		rank, connected := metric.Score(rg, v)
		return Ranked{Node: v, Rank: rank, Connected: connected}, true
	}
	if bs, ok := metric.(bulkScorer); ok {
		bulk := bs.scoreAll(rg)
		score = func(v graph.NodeID) (Ranked, bool) {
			i, ok := rg.IndexOf(v)
			if !ok {
				return Ranked{Node: v, Rank: math.Inf(1)}, true
			}
			return Ranked{Node: v, Rank: bulk[i], Connected: degree(rg, i)}, true
		}
	}
	return best(r.MatchesOf(q.Output()), k, score)
}
