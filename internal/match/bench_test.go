package match_test

import (
	"sync"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// The repository benchmark's dataset (bench/inputs.go: collab, 6,000
// nodes, average degree 8, seed 1) and one pattern from each of its two
// expensive families: the broadest Fig. 1 shape and a selective-deep
// shape with `*` edges.
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
