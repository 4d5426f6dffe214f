package rank

import (
	"sync"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// The same inputs as internal/match's BenchmarkBuildResultGraph: the
// repository benchmark's dataset (collab, 6,000 nodes, average degree 8,
// seed 1) with its broadest Fig. 1-shaped pattern and a selective-deep
// pattern with `*` edges.
const (
	broadDSL = `node SA [label = "SA", experience >= 0] output
node SD [label = "SD", experience >= 0]
node BA [label = "BA", experience >= 0]
node ST [label = "ST", experience >= 0]
edge SA -> SD bound 3
edge SA -> BA bound 2
edge SD -> ST bound 3
edge ST -> SD bound 2
`
	deepDSL = `node SA [label = "SA", experience >= 8] output
node SD [label = "SD", specialty = "Programmer", experience >= 4]
node BA [label = "BA", specialty = "Business Analyst", experience >= 3]
edge SA -> SD bound *
edge SA -> BA bound 4
edge SD -> BA bound *
`
)

type fixture struct {
	name string
	q    *pattern.Pattern
	rel  *match.Relation
	rg   *match.ResultGraph
}

var benchInputs = sync.OnceValues(func() (*graph.Graph, []fixture) {
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 6000, AvgDegree: 8, Seed: 1})
	if err != nil {
		panic(err) // constant arguments
	}
	var fs []fixture
	for _, in := range []struct{ name, dsl string }{{"broad", broadDSL}, {"deep", deepDSL}} {
		q, err := pattern.Parse(in.dsl)
		if err != nil {
			panic(err)
		}
		rel := bsim.Compute(g, q)
		fs = append(fs, fixture{in.name, q, rel, match.BuildResultGraph(g, q, rel)})
	}
	return g, fs
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
		})
	}
}
