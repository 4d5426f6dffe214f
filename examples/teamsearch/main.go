// Teamsearch reproduces the paper's running example end to end: the Fig. 1
// collaboration network and query, the exact match relation of Example 1,
// the ranking of Example 2 (f(SA,Bob) = 9/5 beats f(SA,Walt) = 7/3), and
// the incremental update of Example 3 (inserting e1 admits exactly
// (SD, Fred)) — all through the engine, with the result graph exported as
// Graphviz DOT.
//
//	go run ./examples/teamsearch
package main

import (
	"fmt"
	"log"
	"os"

	"expfinder"
	"expfinder/internal/dataset"
	"expfinder/internal/viz"
)

func main() {
	g, people := dataset.PaperGraph()
	q := dataset.PaperQuery()

	eng := expfinder.NewEngine(expfinder.EngineOptions{})
	if err := eng.AddGraph("paper", g); err != nil {
		log.Fatal(err)
	}
	// Register the hiring query so updates are maintained incrementally.
	if err := eng.RegisterQuery("paper", q); err != nil {
		log.Fatal(err)
	}

	res, err := eng.Query("paper", q, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Example 1 — M(Q,G) via %s (%s):\n", res.Plan, res.Source)
	fmt.Println(res.Relation.Format(q, g, "name"))

	fmt.Println("\nExample 2 — social-impact ranking of SA candidates:")
	for i, r := range res.TopK {
		name, _ := g.Attr(r.Node, "name")
		fmt.Printf("  %d. %-5s f = %.4f\n", i+1, name.Str(), r.Rank)
	}

	fmt.Println("\nExample 3 — Dan's project wraps up and Fred starts pairing with Pat:")
	e1 := dataset.E1(people)
	deltas, err := eng.ApplyUpdates("paper", []expfinder.Update{
		expfinder.InsertEdge(e1.From, e1.To),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range deltas {
		for _, p := range d.Added {
			name, _ := g.Attr(p.Node, "name")
			fmt.Printf("  + (%s, %s) found incrementally, without re-running Q\n",
				q.Node(p.PNode).Name, name.Str())
		}
	}

	// Export the post-update result graph with the top expert highlighted.
	res, err = eng.Query("paper", q, 1)
	if err != nil {
		log.Fatal(err)
	}
	f, err := os.Create("teamsearch-result.dot")
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := eng.WithGraph("paper", func(g *expfinder.Graph) error {
		rg := expfinder.BuildResultGraph(g, q, res.Relation)
		return viz.WriteTopK(f, g, rg, res.TopK, viz.Options{})
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nresult graph written to teamsearch-result.dot (render with `dot -Tsvg`)")
}
