package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/strongsim"
	"expfinder/internal/testutil"
)

// The cache keeps an answer's relation and ranking but not its result
// graph: a request ranked by another metric rebuilds the graph from the
// cached relation on a hit, and so does a Render that draws it. These tests
// pin that the rebuild is exact — equal to a cold build from the reference
// algorithms on the same graph version — before and after writes move the
// version.

// coldRelation is M(Q,G) from the reference algorithm of sem.
func coldRelation(g *graph.Graph, q *pattern.Pattern, sem match.Semantics) *match.Relation {
	if sem == match.Dual {
		return strongsim.Dual(g, q)
	}
	return bsim.Compute(g, q)
}

// atEveryVersion runs check on an engine over a random graph on which the
// Fig. 1 query has several experts under either semantics, at three
// versions of that graph: as added, after an edge batch, and after a node
// write. The engine is the graph's only writer and check runs between its
// calls, so check may read g without its lock.
func atEveryVersion(t *testing.T, check func(e *Engine, step string, g *graph.Graph)) {
	t.Helper()
	g := testutil.RandomGraph(rand.New(rand.NewSource(7)), 300, 1500)
	stream := testutil.NewEdgeStream(g.Clone(), 1)
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	experts := coldRelation(g, dataset.PaperQuery(), match.Dual).MatchesOf(0)
	if len(experts) < 3 {
		t.Fatalf("fixture: %d dual experts, want at least 3", len(experts))
	}
	check(e, "initial", g)
	if _, err := e.ApplyUpdates("g", stream.Batch(16)); err != nil {
		t.Fatal(err)
	}
	check(e, "after an edge batch", g)
	if err := e.SetNodeAttr(context.Background(), "g", experts[0], "experience", graph.Int(0)); err != nil {
		t.Fatal(err)
	}
	check(e, "after a node write", g)
}

// TestMetricHitEqualsColdBuild: a request ranked by any metric — the
// paper's own named explicitly included — that hits the cached answer
// equals rank.TopKByMetric over a cold build, under both semantics, at
// every graph version.
func TestMetricHitEqualsColdBuild(t *testing.T) {
	metrics := []rank.Metric{rank.Closeness{}, rank.Degree{}, rank.PageRank{}, rank.AvgDistance{}}
	q := dataset.PaperQuery()
	atEveryVersion(t, func(e *Engine, step string, g *graph.Graph) {
		for _, sem := range []match.Semantics{match.Bounded, match.Dual} {
			if _, err := e.Execute(context.Background(), QueryRequest{Graph: "g", Pattern: q, Semantics: sem}); err != nil {
				t.Fatal(err)
			}
			cold := coldRelation(g, q, sem)
			for _, m := range metrics {
				res, err := e.Execute(context.Background(), QueryRequest{Graph: "g", Pattern: q, Semantics: sem, Metric: m})
				if err != nil {
					t.Fatal(err)
				}
				want := rank.TopKByMetric(g, q, cold, 0, m)
				if res.Source != SourceCache || !reflect.DeepEqual(res.TopK, want) {
					t.Errorf("%s, sem %d, %s: source %v, top-K %v; want a hit ranked %v", step, sem, m.Name(), res.Source, res.TopK, want)
				}
			}
		}
	})
}

// TestRenderRebuildsTheResultGraph pins that the result graph a Render
// builds from a hit's relation equals a cold BuildResultGraph node for
// node and edge for edge, under both semantics, at every graph version.
func TestRenderRebuildsTheResultGraph(t *testing.T) {
	q := dataset.PaperQuery()
	atEveryVersion(t, func(e *Engine, step string, g *graph.Graph) {
		for _, sem := range []match.Semantics{match.Bounded, match.Dual} {
			if _, err := e.Execute(context.Background(), QueryRequest{Graph: "g", Pattern: q, Semantics: sem}); err != nil {
				t.Fatal(err)
			}
			var rg *match.ResultGraph
			res, err := e.Execute(context.Background(), QueryRequest{Graph: "g", Pattern: q, Semantics: sem,
				Render: func(g *graph.Graph, res *Result) { rg = match.BuildResultGraph(g, q, res.Relation) }})
			if err != nil {
				t.Fatal(err)
			}
			cold := match.BuildResultGraph(g, q, coldRelation(g, q, sem))
			if res.Source != SourceCache || !sameResultGraph(rg, cold) {
				t.Errorf("%s, sem %d: source %v, rebuilt %v; want a hit rebuilding %v", step, sem, res.Source, rg, cold)
			}
		}
	})
}

// sameResultGraph compares two result graphs node for node and edge for
// edge, weights included.
func sameResultGraph(a, b *match.ResultGraph) bool {
	if a == nil || b == nil || !reflect.DeepEqual(a.Nodes(), b.Nodes()) || a.NumEdges() != b.NumEdges() || a.MaxWeight() != b.MaxWeight() {
		return false
	}
	for _, v := range a.Nodes() {
		if !reflect.DeepEqual(a.Out(v), b.Out(v)) || !reflect.DeepEqual(a.In(v), b.In(v)) {
			return false
		}
	}
	return true
}

// BenchmarkMetricHit is the one path that reads a result graph after the
// miss that built it: a request ranked by a non-default metric that hits
// the cached answer, which rebuilds the graph from the cached relation and
// ranks over it. It runs on the repository benchmark's graph (collab,
// 6,000 nodes) with a broad and a star pattern, k = 10.
func BenchmarkMetricHit(b *testing.B) {
	e := New(Options{})
	if err := e.AddGraph("collab", testutil.CollabGraph().Clone()); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, shape := range []struct{ name, dsl string }{{"broad", testutil.BroadDSL}, {"star", testutil.StarDSL}} {
		q := testutil.MustParse(shape.dsl)
		if _, err := e.Execute(ctx, QueryRequest{Graph: "collab", Pattern: q, K: 10}); err != nil {
			b.Fatal(err)
		}
		for _, m := range []rank.Metric{rank.PageRank{}, rank.Closeness{}} {
			req := QueryRequest{Graph: "collab", Pattern: q, K: 10, Metric: m}
			b.Run(shape.name+"/"+m.Name(), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res, err := e.Execute(ctx, req)
					if err != nil {
						b.Fatal(err)
					}
					if res.Source != SourceCache {
						b.Fatalf("source %v, want a hit", res.Source)
					}
				}
			})
		}
	}
}
