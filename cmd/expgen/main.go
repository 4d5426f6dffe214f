// Command expgen generates synthetic social networks and writes them to a
// file or stdout — the demo's "synthetic graph generator" as a standalone
// tool, useful for piping into other systems or building benchmark corpora.
//
// Usage:
//
//	expgen -kind collab -nodes 10000 -degree 8 -seed 1 -o graph.efb
//	expgen -kind twitter -nodes 50000 -format json -o - | jq '.nodes | length'
//
// The binary format is the exact graph image (the write-ahead log's
// snapshot codec), so a .efb dropped into a store's graphs/ directory
// loads as is; JSON is the interchange format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"expfinder"
	"expfinder/internal/storage"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "expgen:", err)
		os.Exit(1)
	}
}

func run() error {
	kind := flag.String("kind", "collab", "generator: collab, twitter, er, ba")
	nodes := flag.Int("nodes", 10000, "node count")
	degree := flag.Float64("degree", 8, "average degree")
	seed := flag.Int64("seed", 1, "random seed")
	format := flag.String("format", "binary", "output format: json or binary")
	out := flag.String("o", "-", "output file (- for stdout)")
	statsOnly := flag.Bool("stats", false, "print statistics instead of the graph")
	flag.Parse()

	g, err := expfinder.Generate(expfinder.GeneratorKind(*kind), expfinder.GeneratorConfig{
		Nodes: *nodes, AvgDegree: *degree, Seed: *seed,
	})
	if err != nil {
		return err
	}
	if *statsOnly {
		st := g.ComputeStats()
		fmt.Printf("kind=%s nodes=%d edges=%d maxOut=%d maxIn=%d\n",
			*kind, st.Nodes, st.Edges, st.MaxOutDeg, st.MaxInDeg)
		return nil
	}
	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	switch *format {
	case "json":
		return g.WriteJSON(w)
	case "binary":
		return storage.WriteGraphImage(w, g)
	default:
		return fmt.Errorf("unknown format %q", *format)
	}
}
