package testutil

import (
	"sync"

	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// CollabGraph returns the repository benchmark's dataset (bench/inputs.go:
// collab, 6,000 nodes, average degree 8, seed 1), generated once and
// shared by the package benchmarks and the tests that want inputs of its
// size. Callers only read it.
var CollabGraph = sync.OnceValue(func() *graph.Graph {
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 6000, AvgDegree: 8, Seed: 1})
	if err != nil {
		panic(err) // constant arguments
	}
	return g
})

// One pattern from each family of the repository benchmark, over
// CollabGraph: BroadDSL is the broadest Fig. 1 shape (query-cold's
// costliest), DeepDSL a selective-deep shape with `*` edges, ShallowDSL the
// shape of mixed-rw's read pool (senior output node, bounds 1,1,2,1), and
// StarDSL one selective centre whose three obligations have bounds 2, 3
// and 4, so its candidate list is far shorter than any of its targets'.
const (
	BroadDSL = `node SA [label = "SA", experience >= 0] output
node SD [label = "SD", experience >= 0]
node BA [label = "BA", experience >= 0]
node ST [label = "ST", experience >= 0]
edge SA -> SD bound 3
edge SA -> BA bound 2
edge SD -> ST bound 3
edge ST -> SD bound 2
`
	DeepDSL = `node SA [label = "SA", experience >= 8] output
node SD [label = "SD", specialty = "Programmer", experience >= 4]
node BA [label = "BA", specialty = "Business Analyst", experience >= 3]
edge SA -> SD bound *
edge SA -> BA bound 4
edge SD -> BA bound *
`
	ShallowDSL = `node SA [label = "SA", experience >= 7] output
node SD [label = "SD", experience >= 4]
node BA [label = "BA", experience >= 4]
node ST [label = "ST", experience >= 4]
edge SA -> SD bound 1
edge SA -> BA bound 1
edge SD -> ST bound 2
edge ST -> SD bound 1
`
	StarDSL = `node SA [label = "SA", experience >= 10] output
node SD [label = "SD", experience >= 1]
node BA [label = "BA", experience >= 1]
node ST [label = "ST", experience >= 1]
edge SA -> SD bound 2
edge SA -> BA bound 3
edge SA -> ST bound 4
`
)

// MustParse parses a pattern constant, panicking on a syntax error.
func MustParse(dsl string) *pattern.Pattern {
	q, err := pattern.Parse(dsl)
	if err != nil {
		panic(err)
	}
	return q
}
