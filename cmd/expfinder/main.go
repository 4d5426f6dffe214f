// Command expfinder is the command-line interface to the ExpFinder system:
// manage stored graphs, run pattern queries with top-K ranking, apply
// updates, compress graphs, and export visualizations.
//
// Usage:
//
//	expfinder [-store DIR] <command> [flags]
//
// Commands:
//
//	demo                      run the paper's Fig. 1 example end to end
//	generate                  generate a synthetic graph into the store
//	list                      list stored graphs
//	stats    -graph NAME      print graph statistics
//	query    -graph NAME -q FILE [-k K] [-dot FILE]   evaluate a pattern query
//	update   -graph NAME -op insert|delete -from N -to N
//	compress -graph NAME [-scheme S] [-view a,b]      report compression
//	dot      -graph NAME [-drilldown]                 export graph as DOT
//	convert  -graph NAME -format json|binary          rewrite storage format
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"expfinder"
	"expfinder/internal/dataset"
	"expfinder/internal/storage"
	"expfinder/internal/viz"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "expfinder:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	global := flag.NewFlagSet("expfinder", flag.ContinueOnError)
	storeDir := global.String("store", defaultStoreDir(), "graph store directory")
	global.Usage = usage
	if err := global.Parse(args); err != nil {
		return err
	}
	rest := global.Args()
	if len(rest) == 0 {
		usage()
		return fmt.Errorf("missing command")
	}
	cmd, cmdArgs := rest[0], rest[1:]
	switch cmd {
	case "demo":
		return cmdDemo()
	case "generate":
		return cmdGenerate(*storeDir, cmdArgs)
	case "list":
		return cmdList(*storeDir)
	case "stats":
		return cmdStats(*storeDir, cmdArgs)
	case "query":
		return cmdQuery(*storeDir, cmdArgs)
	case "update":
		return cmdUpdate(*storeDir, cmdArgs)
	case "compress":
		return cmdCompress(*storeDir, cmdArgs)
	case "dot":
		return cmdDOT(*storeDir, cmdArgs)
	case "convert":
		return cmdConvert(*storeDir, cmdArgs)
	case "import":
		return cmdImport(*storeDir, cmdArgs)
	default:
		usage()
		return fmt.Errorf("unknown command %q", cmd)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage: expfinder [-store DIR] <command> [flags]

commands:
  demo        run the paper's Fig. 1 example end to end
  generate    generate a synthetic graph into the store
  list        list stored graphs
  stats       print graph statistics
  query       evaluate a pattern query with top-K ranking
  update      apply an edge insertion/deletion
  compress    compress a graph and report the ratio
  dot         export a graph as Graphviz DOT
  convert     rewrite a stored graph in another format
  import      import a SNAP-style edge list (+ optional node CSV)
`)
}

func defaultStoreDir() string {
	if dir := os.Getenv("EXPFINDER_STORE"); dir != "" {
		return dir
	}
	return "expfinder-store"
}

func openStore(dir string) (*expfinder.Store, error) { return expfinder.OpenStore(dir) }

// cmdDemo reproduces Examples 1–3 of the paper on the built-in dataset.
func cmdDemo() error {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	fmt.Println("Pattern query (Fig. 1):")
	fmt.Println(indent(q.String()))

	rel := expfinder.Match(g, q)
	fmt.Println("Example 1 - match relation M(Q,G):")
	fmt.Println(indent(rel.Format(q, g, "name")))

	top := expfinder.TopK(g, q, rel, 0)
	fmt.Println("\nExample 2 - ranked SA experts (lower = stronger social impact):")
	for i, r := range top {
		name, _ := g.Attr(r.Node, "name")
		fmt.Printf("  %d. %-5s rank %.4f (connected to %d team members)\n",
			i+1, name.Str(), r.Rank, r.Connected)
	}

	fmt.Println("\nExample 3 - incremental update: insert e1 = (Fred, Pat)")
	m := expfinder.NewIncrementalMatcher(g, q)
	e1 := dataset.E1(p)
	added, removed, err := m.Apply([]expfinder.Update{expfinder.InsertEdge(e1.From, e1.To)})
	if err != nil {
		return err
	}
	for _, pr := range added {
		name, _ := g.Attr(pr.Node, "name")
		fmt.Printf("  + (%s, %s)\n", q.Node(pr.PNode).Name, name.Str())
	}
	for _, pr := range removed {
		name, _ := g.Attr(pr.Node, "name")
		fmt.Printf("  - (%s, %s)\n", q.Node(pr.PNode).Name, name.Str())
	}
	return nil
}

func indent(s string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	return "  " + strings.Join(lines, "\n  ")
}

func cmdGenerate(storeDir string, args []string) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	name := fs.String("name", "", "graph name (required)")
	kind := fs.String("kind", "collab", "generator: collab, twitter, er, ba")
	nodes := fs.Int("nodes", 10000, "node count")
	degree := fs.Float64("degree", 8, "average degree")
	seed := fs.Int64("seed", 1, "random seed")
	format := fs.String("format", "binary", "storage format: json or binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("generate: -name is required")
	}
	g, err := expfinder.Generate(expfinder.GeneratorKind(*kind), expfinder.GeneratorConfig{
		Nodes: *nodes, AvgDegree: *degree, Seed: *seed,
	})
	if err != nil {
		return err
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	f, err := parseFormat(*format)
	if err != nil {
		return err
	}
	if err := store.SaveGraph(*name, g, f); err != nil {
		return err
	}
	fmt.Printf("generated %q: %d nodes, %d edges (%s, seed %d)\n",
		*name, g.NumNodes(), g.NumEdges(), *kind, *seed)
	return nil
}

func parseFormat(s string) (expfinder.StoreFormat, error) {
	switch s {
	case "json":
		return expfinder.FormatJSON, nil
	case "binary":
		return expfinder.FormatBinary, nil
	default:
		return 0, fmt.Errorf("unknown format %q", s)
	}
}

func cmdList(storeDir string) error {
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	names, err := store.ListGraphs()
	if err != nil {
		return err
	}
	for _, n := range names {
		g, err := store.LoadGraph(n)
		if err != nil {
			fmt.Printf("%-20s (unreadable: %v)\n", n, err)
			continue
		}
		fmt.Printf("%-20s %8d nodes %10d edges\n", n, g.NumNodes(), g.NumEdges())
	}
	return nil
}

func cmdStats(storeDir string, args []string) error {
	fs := flag.NewFlagSet("stats", flag.ContinueOnError)
	name := fs.String("graph", "", "graph name (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	g, err := store.LoadGraph(*name)
	if err != nil {
		return err
	}
	st := g.ComputeStats()
	fmt.Printf("nodes: %d\nedges: %d\nmax out-degree: %d\nmax in-degree: %d\n",
		st.Nodes, st.Edges, st.MaxOutDeg, st.MaxInDeg)
	labels := make([]string, 0, len(st.Labels))
	for l := range st.Labels {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	for _, l := range labels {
		fmt.Printf("label %-6s %d\n", l, st.Labels[l])
	}
	return nil
}

func cmdQuery(storeDir string, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	name := fs.String("graph", "", "graph name (required)")
	qFile := fs.String("q", "", "pattern DSL file (required; - for stdin)")
	k := fs.Int("k", 10, "top-K experts to report (0 = all)")
	dotOut := fs.String("dot", "", "write the result graph as DOT to this file")
	metricName := fs.String("metric", "avg-distance", "ranking metric: avg-distance, closeness, degree, pagerank")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *qFile == "" {
		return fmt.Errorf("query: -graph and -q are required")
	}
	var dsl []byte
	var err error
	if *qFile == "-" {
		dsl, err = io.ReadAll(os.Stdin)
	} else {
		dsl, err = os.ReadFile(*qFile)
	}
	if err != nil {
		return err
	}
	q, err := expfinder.ParseQuery(string(dsl))
	if err != nil {
		return err
	}
	var metric expfinder.RankMetric // nil: the paper's avg-distance
	switch *metricName {
	case "avg-distance":
	case "closeness":
		metric = expfinder.MetricCloseness
	case "degree":
		metric = expfinder.MetricDegree
	case "pagerank":
		metric = expfinder.MetricPageRank
	default:
		return fmt.Errorf("unknown metric %q", *metricName)
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	g, err := store.LoadGraph(*name)
	if err != nil {
		return err
	}
	eng := expfinder.NewEngine(expfinder.EngineOptions{})
	if err := eng.AddGraph(*name, g); err != nil {
		return err
	}
	res, err := eng.Execute(context.Background(), expfinder.BatchQuery{Graph: *name, Pattern: q, K: *k, Metric: metric})
	if err != nil {
		return err
	}
	fmt.Printf("plan: %s  source: %s  elapsed: %s\n", res.Plan, res.Source, res.Elapsed)
	fmt.Printf("matches: %d pairs over %d pattern nodes\n", res.Relation.Size(), q.NumNodes())
	fmt.Println(res.Relation.Format(q, g, "name"))
	fmt.Printf("top-%d experts for %s:\n", *k, q.Node(q.Output()).Name)
	for i, r := range res.TopK {
		label := fmt.Sprintf("#%d", r.Node)
		if v, ok := g.Attr(r.Node, "name"); ok {
			label = v.Str()
		}
		fmt.Printf("  %d. %-12s rank %.4f (connected %d)\n", i+1, label, r.Rank, r.Connected)
	}
	if *dotOut != "" {
		f, err := os.Create(*dotOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := eng.WithGraph(*name, func(g *expfinder.Graph) error {
			rg := expfinder.BuildResultGraph(g, q, res.Relation)
			return viz.WriteTopK(f, g, rg, res.TopK, viz.Options{})
		}); err != nil {
			return err
		}
		fmt.Printf("result graph written to %s\n", *dotOut)
	}
	return nil
}

func cmdUpdate(storeDir string, args []string) error {
	fs := flag.NewFlagSet("update", flag.ContinueOnError)
	name := fs.String("graph", "", "graph name (required)")
	op := fs.String("op", "insert", "insert or delete")
	from := fs.Int64("from", -1, "source node id")
	to := fs.Int64("to", -1, "target node id")
	format := fs.String("format", "binary", "storage format to rewrite")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *from < 0 || *to < 0 {
		return fmt.Errorf("update: -graph, -from and -to are required")
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	g, err := store.LoadGraph(*name)
	if err != nil {
		return err
	}
	switch *op {
	case "insert":
		err = g.AddEdge(expfinder.NodeID(*from), expfinder.NodeID(*to))
	case "delete":
		err = g.RemoveEdge(expfinder.NodeID(*from), expfinder.NodeID(*to))
	default:
		return fmt.Errorf("unknown op %q", *op)
	}
	if err != nil {
		return err
	}
	f, err := parseFormat(*format)
	if err != nil {
		return err
	}
	if err := store.SaveGraph(*name, g, f); err != nil {
		return err
	}
	fmt.Printf("%sed edge (%d, %d) on %q\n", *op, *from, *to, *name)
	return nil
}

func cmdCompress(storeDir string, args []string) error {
	fs := flag.NewFlagSet("compress", flag.ContinueOnError)
	name := fs.String("graph", "", "graph name (required)")
	scheme := fs.String("scheme", "bisimulation", "bisimulation or simeq")
	view := fs.String("view", "", "comma-separated attribute view (empty = label only; 'all' = every attribute)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" {
		return fmt.Errorf("compress: -graph is required")
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	g, err := store.LoadGraph(*name)
	if err != nil {
		return err
	}
	var sc expfinder.CompressionScheme
	switch *scheme {
	case "bisimulation":
		sc = expfinder.Bisimulation
	case "simeq":
		sc = expfinder.SimulationEquivalence
	default:
		return fmt.Errorf("unknown scheme %q", *scheme)
	}
	var v expfinder.AttrView
	switch *view {
	case "all":
		v = nil
	case "":
		v = expfinder.AttrView{}
	default:
		v = expfinder.AttrView(strings.Split(*view, ","))
	}
	c := expfinder.CompressGraphWithView(g, sc, v)
	fmt.Printf("original:   %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())
	fmt.Printf("compressed: %d nodes, %d edges\n", c.Graph().NumNodes(), c.Graph().NumEdges())
	fmt.Printf("reduction:  %.1f%%\n", c.Ratio()*100)
	return nil
}

func cmdDOT(storeDir string, args []string) error {
	fs := flag.NewFlagSet("dot", flag.ContinueOnError)
	name := fs.String("graph", "", "graph name (required)")
	drill := fs.Bool("drilldown", false, "include all attributes")
	maxNodes := fs.Int("max", 500, "truncate output after this many nodes")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	g, err := store.LoadGraph(*name)
	if err != nil {
		return err
	}
	return viz.WriteGraph(os.Stdout, g, viz.Options{DrillDown: *drill, MaxNodes: *maxNodes})
}

// cmdImport loads a real-world edge list (SNAP format: "src dst" lines, #
// comments) plus an optional node attribute CSV (header id,label,attr...)
// into the store.
func cmdImport(storeDir string, args []string) error {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	name := fs.String("name", "", "graph name (required)")
	edgesFile := fs.String("edges", "", "edge list file (required)")
	nodesFile := fs.String("nodes", "", "node attribute CSV (optional)")
	comma := fs.Bool("comma", false, "edge list is comma-separated")
	strict := fs.Bool("strict", false, "fail on duplicate edges and self-loops")
	format := fs.String("format", "binary", "storage format: json or binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *name == "" || *edgesFile == "" {
		return fmt.Errorf("import: -name and -edges are required")
	}
	ef, err := os.Open(*edgesFile)
	if err != nil {
		return err
	}
	defer ef.Close()
	g, idMap, err := storage.ReadEdgeList(ef, storage.EdgeListOptions{
		Comma: *comma, SkipDuplicates: !*strict, SkipSelfLoops: !*strict,
	})
	if err != nil {
		return err
	}
	if *nodesFile != "" {
		nf, err := os.Open(*nodesFile)
		if err != nil {
			return err
		}
		defer nf.Close()
		if err := storage.ApplyNodeTable(nf, g, idMap); err != nil {
			return err
		}
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	f, err := parseFormat(*format)
	if err != nil {
		return err
	}
	if err := store.SaveGraph(*name, g, f); err != nil {
		return err
	}
	fmt.Printf("imported %q: %d nodes, %d edges\n", *name, g.NumNodes(), g.NumEdges())
	return nil
}

func cmdConvert(storeDir string, args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	name := fs.String("graph", "", "graph name (required)")
	format := fs.String("format", "binary", "target format: json or binary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	store, err := openStore(storeDir)
	if err != nil {
		return err
	}
	g, err := store.LoadGraph(*name)
	if err != nil {
		return err
	}
	f, err := parseFormat(*format)
	if err != nil {
		return err
	}
	return store.SaveGraph(*name, g, f)
}
