package match_test

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
}

// benchInputs is the repository benchmark's dataset with one pattern from
// each of its two expensive families.
var benchInputs = sync.OnceValues(func() (*graph.Graph, []fixture) {
	g := testutil.CollabGraph()
	var fs []fixture
	for _, in := range []struct{ name, dsl string }{{"broad", testutil.BroadDSL}, {"deep", testutil.DeepDSL}} {
		q := testutil.MustParse(in.dsl)
		fs = append(fs, fixture{in.name, q, bsim.Compute(g, q)})
	}
	return g, fs
})

var sinkRG *match.ResultGraph

func BenchmarkBuildResultGraph(b *testing.B) {
	g, fs := benchInputs()
	for _, f := range fs {
		b.Run(f.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRG = match.BuildResultGraph(g, f.q, f.rel)
			}
			b.ReportMetric(float64(f.rel.Size()), "pairs")
			b.ReportMetric(float64(sinkRG.NumEdges()), "edges")
		})
	}
}
