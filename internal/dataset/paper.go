// Package dataset provides built-in example data, most importantly an exact
// reconstruction of the paper's Fig. 1 collaboration network and pattern
// query. The figure itself is only partially recoverable from the published
// text, but Examples 1–3 pin down every semantically relevant fact; this
// reconstruction reproduces all of them (see DESIGN.md §3):
//
//   - M(Q,G) = {(SA,Bob),(SA,Walt),(BA,Jean),(SD,Mat),(SD,Dan),(SD,Pat),(ST,Eva)}
//   - f(SA,Bob) = 9/5 and f(SA,Walt) = 7/3, making Bob the top-1 SA
//   - inserting e1 adds exactly the pair (SD,Fred)
package dataset

import (
	"fmt"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// People of the Fig. 1 collaboration network, exported for tests and
// examples that need to refer to specific matches. Tess is a junior tester
// (1 year, so she never satisfies the ST search condition): she realizes
// the paper's remark that "both Fred and Pat (DBA) collaborated with ST and
// BA people", which makes Fred and Pat simulation-equivalent under a
// label-only view without disturbing Examples 1–3.
type People struct {
	Bob, Walt, Bill, Jean, Dan, Mat, Pat, Fred, Eva, Tess graph.NodeID
}

// PaperGraph builds the Fig. 1 collaboration network G, without the update
// edge e1. Node labels are fields (SA, SD, BA, ST, GD); attributes carry
// name, specialty and experience (years).
func PaperGraph() (*graph.Graph, People) {
	g := graph.New(9)
	add := func(name, field, specialty string, years int64) graph.NodeID {
		return g.AddNode(field, graph.Attrs{
			"name":       graph.String(name),
			"specialty":  graph.String(specialty),
			"experience": graph.Int(years),
		})
	}
	p := People{
		Bob:  add("Bob", "SA", "System Architect", 7),
		Walt: add("Walt", "SA", "System Architect", 5),
		Bill: add("Bill", "GD", "Graphic Designer", 2),
		Jean: add("Jean", "BA", "Business Analyst", 3),
		Dan:  add("Dan", "SD", "Programmer", 3),
		Mat:  add("Mat", "SD", "Programmer", 4),
		Pat:  add("Pat", "SD", "DBA", 3),
		Fred: add("Fred", "SD", "DBA", 2),
		Eva:  add("Eva", "ST", "Tester", 2),
		Tess: add("Tess", "ST", "Tester", 1),
	}
	edges := [][2]graph.NodeID{
		{p.Bob, p.Dan}, {p.Bob, p.Mat}, {p.Bob, p.Bill},
		{p.Bill, p.Pat}, {p.Pat, p.Jean}, {p.Dan, p.Eva},
		{p.Mat, p.Dan}, {p.Pat, p.Eva}, {p.Eva, p.Pat},
		{p.Walt, p.Bill}, {p.Walt, p.Fred}, {p.Fred, p.Jean},
		{p.Fred, p.Tess}, {p.Tess, p.Fred},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			panic(err) // static data; cannot fail
		}
	}
	return g, p
}

// E1 returns the update edge of Example 3: its insertion makes Fred reach
// Eva within 2 hops, adding exactly (SD, Fred) to M(Q,G).
func E1(p People) graph.Edge { return graph.Edge{From: p.Fred, To: p.Pat} }

// BenchQueries returns n distinct Fig. 1-shaped queries — experience
// thresholds and first-edge bounds vary so no two share a result-cache
// key: the workload of BenchmarkBatchExecutor (bench_test.go).
func BenchQueries(n int) []*pattern.Pattern {
	qs := make([]*pattern.Pattern, n)
	for i := range qs {
		q, err := pattern.Parse(fmt.Sprintf(`
node SA [label = "SA", experience >= %d] output
node SD [label = "SD", experience >= 2]
node BA [label = "BA", experience >= 3]
node ST [label = "ST", experience >= 2]
edge SA -> SD bound %d
edge SA -> BA bound 3
edge SD -> ST bound 2
edge ST -> SD bound 1
`, 1+i%6, 1+i/6))
		if err != nil {
			panic(err) // static template; cannot fail
		}
		qs[i] = q
	}
	return qs
}

// PaperQueryDSL is the Fig. 1 pattern query in DSL syntax.
const PaperQueryDSL = `
# Fig. 1: hire a system architect with a proven team around them.
node SA [label = "SA", experience >= 5] output
node SD [label = "SD", experience >= 2]
node BA [label = "BA", experience >= 3]
node ST [label = "ST", experience >= 2]
edge SA -> SD bound 2
edge SA -> BA bound 3
edge SD -> ST bound 2
edge ST -> SD bound 1
`

// PaperQuery builds the Fig. 1 pattern query Q: an SA expert (>= 5 years,
// the output node) who led SD experts within 2 hops and a BA within 3,
// where the SDs collaborated with an ST within 2 hops and the ST with an SD
// directly.
func PaperQuery() *pattern.Pattern {
	q, err := pattern.Parse(PaperQueryDSL)
	if err != nil {
		panic(err) // static data; cannot fail
	}
	return q
}
