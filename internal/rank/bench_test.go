package rank

import (
	"sync"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

type fixture struct {
	name string
	q    *pattern.Pattern
	rel  *match.Relation
	rg   *match.ResultGraph
}

// benchInputs are rankings over the repository benchmark's dataset, on both
// sides of the batch-or-single rule: `broad` and `deep` (internal/match's
// BenchmarkBuildResultGraph inputs) rank hundreds of matches 64 per walk,
// `shallow` is the small ranking of mixed-rw's read pool, and `few` ranks
// four matches over deep's dense result graph, where a batched walk would
// lose to the heap.
var benchInputs = sync.OnceValues(func() (*graph.Graph, []fixture) {
	g := testutil.CollabGraph()
	var fs []fixture
	for _, in := range []struct{ name, dsl string }{
		{"broad", testutil.BroadDSL}, {"deep", testutil.DeepDSL}, {"shallow", testutil.ShallowDSL},
	} {
		q := testutil.MustParse(in.dsl)
		rel := bsim.Compute(g, q)
		fs = append(fs, fixture{in.name, q, rel, match.BuildResultGraph(g, q, rel)})
	}
	deep := fs[1]
	few := match.NewRelation(deep.q.NumNodes())
	for _, v := range deep.rel.MatchesOf(deep.q.Output())[:4] {
		few.Add(deep.q.Output(), v)
	}
	return g, append(fs, fixture{"few", deep.q, few, deep.rg})
})

var sinkRanked []Ranked

func BenchmarkTopKWithResultGraph(b *testing.B) {
	_, fs := benchInputs()
	for _, f := range fs {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRanked = TopKWithResultGraph(f.rg, f.q, f.rel, 0) // rank all, as the engine does
			}
			b.ReportMetric(float64(f.rel.CountOf(f.q.Output())), "matches")
			b.ReportMetric(float64(f.rg.ImpactBatches(f.rel.CountOf(f.q.Output()))), "batches")
		})
	}
}
