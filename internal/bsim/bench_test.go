package bsim

import (
	"sync"
	"testing"

	"expfinder/internal/distindex"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// The repository benchmark's dataset (bench/inputs.go: collab, 6,000
// nodes, average degree 8, seed 1) and the two shapes
// internal/match/bench_test.go uses — the broadest Fig. 1 pattern and a
// selective-deep one with `*` edges — plus a star: one selective centre
// whose three obligations have bounds 2, 3 and 4, so its candidate list is
// far shorter than any of its targets'.
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
	starDSL = `node SA [label = "SA", experience >= 10] output
node SD [label = "SD", experience >= 1]
node BA [label = "BA", experience >= 1]
node ST [label = "ST", experience >= 1]
edge SA -> SD bound 2
edge SA -> BA bound 3
edge SA -> ST bound 4
`
)

type shape struct {
	name string
	q    *pattern.Pattern
}

var collab = sync.OnceValues(func() (*graph.Graph, []shape) {
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 6000, AvgDegree: 8, Seed: 1})
	if err != nil {
		panic(err) // constant arguments
	}
	var shapes []shape
	for _, in := range []struct{ name, dsl string }{{"broad", broadDSL}, {"deep", deepDSL}, {"star", starDSL}} {
		q, err := pattern.Parse(in.dsl)
		if err != nil {
			panic(err)
		}
		shapes = append(shapes, shape{in.name, q})
	}
	return g, shapes
})

var collabIndex = sync.OnceValue(func() *distindex.Index {
	g, _ := collab()
	return distindex.Build(g, distindex.Options{})
})

func BenchmarkComputeCollab(b *testing.B) {
	g, shapes := collab()
	for _, sh := range shapes {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = Compute(g, sh.q)
			}
			b.ReportMetric(float64(benchSink.Size()), "pairs")
		})
	}
}

// BenchmarkComputeIndexedCollab runs the same shapes with a complete
// distance index attached; set beside BenchmarkComputeCollab it shows
// what the per-edge probe makes of an index that cannot help.
func BenchmarkComputeIndexedCollab(b *testing.B) {
	g, shapes := collab()
	ix := collabIndex()
	for _, sh := range shapes[:2] {
		b.Run(sh.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink = ComputeIndexed(g, sh.q, ix)
			}
			b.ReportMetric(float64(benchSink.Size()), "pairs")
		})
	}
}
