package expfinder_test

// One testing.B benchmark per experiment of the paper's evaluation — the
// `go test -bench` counterparts of cmd/benchrunner's e1..e7 sweep tables —
// followed by the ablations of this implementation's design choices.

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"expfinder"
	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/isomorphism"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/simulation"
	"expfinder/internal/strongsim"
)

var (
	sinkRelation *match.Relation
	sinkRanked   []rank.Ranked
	sinkInt      int
)

func benchGraph(b *testing.B, kind generator.Kind, n int) *graph.Graph {
	b.Helper()
	g, err := generator.Generate(kind, generator.Config{Nodes: n, AvgDegree: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func flattenBounds(q *pattern.Pattern) *pattern.Pattern {
	flat := pattern.New()
	for i := 0; i < q.NumNodes(); i++ {
		n := q.Node(pattern.NodeIdx(i))
		flat.MustAddNode(n.Name, n.Pred)
	}
	for _, e := range q.Edges() {
		flat.MustAddEdge(e.From, e.To, 1)
	}
	if err := flat.SetOutput(q.Output()); err != nil {
		panic(err)
	}
	return flat
}

// BenchmarkE1PaperExample measures the full paper pipeline on Fig. 1:
// bounded simulation + result graph + ranking.
func BenchmarkE1PaperExample(b *testing.B) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rel := bsim.Compute(g, q)
		sinkRanked = rank.TopK(g, q, rel, 1)
	}
}

// BenchmarkE2QueryEngine sweeps graph sizes for both plans (the demo's
// query-engine performance claim).
func BenchmarkE2QueryEngine(b *testing.B) {
	q := dataset.PaperQuery()
	qSim := flattenBounds(q)
	for _, n := range []int{1000, 5000, 10000} {
		g := benchGraph(b, generator.KindCollab, n)
		b.Run(fmt.Sprintf("simulation/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRelation = simulation.Compute(g, qSim)
			}
		})
		b.Run(fmt.Sprintf("bounded/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkRelation = bsim.Compute(g, q)
			}
		})
	}
}

// BenchmarkE3Incremental compares incremental maintenance against batch
// recomputation at representative churn rates.
func BenchmarkE3Incremental(b *testing.B) {
	const n = 3000
	q := dataset.PaperQuery()
	for _, churnPct := range []int{1, 10, 30} {
		base := benchGraph(b, generator.KindCollab, n)
		nOps := base.NumEdges() * churnPct / 100
		opsSrc := base.Clone()
		r := rand.New(rand.NewSource(42))
		ops := makeBenchOps(r, opsSrc, nOps)

		b.Run(fmt.Sprintf("incremental/churn=%d%%", churnPct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := base.Clone()
				m := incremental.NewMatcher(g, q)
				b.StartTimer()
				if _, _, err := m.Apply(ops); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("batch/churn=%d%%", churnPct), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := base.Clone()
				applyOps(b, g, ops)
				b.StartTimer()
				sinkRelation = bsim.Compute(g, q)
			}
		})
	}
}

func makeBenchOps(r *rand.Rand, g *graph.Graph, nOps int) []incremental.Update {
	nodes := g.Nodes()
	var ops []incremental.Update
	for len(ops) < nOps {
		u := nodes[r.Intn(len(nodes))]
		v := nodes[r.Intn(len(nodes))]
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if g.RemoveEdge(u, v) == nil {
				ops = append(ops, incremental.Delete(u, v))
			}
		} else if g.AddEdge(u, v) == nil {
			ops = append(ops, incremental.Insert(u, v))
		}
	}
	return ops
}

func applyOps(b *testing.B, g *graph.Graph, ops []incremental.Update) {
	b.Helper()
	for _, op := range ops {
		var err error
		if op.Insert {
			err = g.AddEdge(op.From, op.To)
		} else {
			err = g.RemoveEdge(op.From, op.To)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE4Compression measures quotient construction and the query
// speedup on the quotient.
func BenchmarkE4Compression(b *testing.B) {
	const n = 3000
	q := dataset.PaperQuery()
	view := compress.View{"experience"}
	for _, kind := range []generator.Kind{generator.KindCollab, generator.KindTwit} {
		g := benchGraph(b, kind, n)
		b.Run(fmt.Sprintf("build/%s", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c := compress.CompressWithView(g, compress.Bisimulation, view)
				sinkInt = c.Graph().NumNodes()
			}
		})
		c := compress.CompressWithView(g, compress.Bisimulation, view)
		b.Run(fmt.Sprintf("query-direct/%s", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkRelation = bsim.Compute(g, q)
			}
		})
		b.Run(fmt.Sprintf("query-compressed/%s", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkRelation = c.Decompress(bsim.Compute(c.Graph(), q))
			}
		})
	}
}

// BenchmarkE5CompressMaintain compares quotient maintenance with rebuild.
func BenchmarkE5CompressMaintain(b *testing.B) {
	const n = 3000
	for _, batch := range []int{1, 100, 1000} {
		b.Run(fmt.Sprintf("maintain/batch=%d", batch), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := benchGraph(b, generator.KindCollab, n)
				c := compress.CompressWithView(g, compress.Bisimulation, compress.View{"experience"})
				opsSrc := g.Clone()
				r := rand.New(rand.NewSource(int64(i)))
				iops := makeBenchOps(r, opsSrc, batch)
				cops := make([]compress.Update, len(iops))
				for j, op := range iops {
					cops[j] = compress.Update{Insert: op.Insert, From: op.From, To: op.To}
				}
				b.StartTimer()
				if err := c.Maintain(cops); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("rebuild", func(b *testing.B) {
		g := benchGraph(b, generator.KindCollab, n)
		for i := 0; i < b.N; i++ {
			c := compress.CompressWithView(g, compress.Bisimulation, compress.View{"experience"})
			sinkInt = c.Graph().NumNodes()
		}
	})
}

// BenchmarkE6TopK measures ranked expert selection over result graphs of
// increasing size.
func BenchmarkE6TopK(b *testing.B) {
	q := dataset.PaperQuery()
	for _, n := range []int{1000, 5000} {
		g := benchGraph(b, generator.KindCollab, n)
		rel := bsim.Compute(g, q)
		rg := match.BuildResultGraph(g, q, rel)
		for _, k := range []int{1, 10} {
			b.Run(fmt.Sprintf("n=%d/k=%d", n, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					sinkRanked = rank.TopKWithResultGraph(rg, q, rel, k)
				}
			})
		}
	}
}

// BenchmarkE7Baselines compares bounded simulation against plain
// simulation and the subgraph-isomorphism baseline on the same workload.
func BenchmarkE7Baselines(b *testing.B) {
	g := benchGraph(b, generator.KindCollab, 300)
	q := dataset.PaperQuery()
	qSim := flattenBounds(q)
	b.Run("isomorphism", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := isomorphism.Find(g, qSim, isomorphism.Options{MaxSteps: 5_000_000})
			sinkInt = res.Steps
		}
	})
	b.Run("simulation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = simulation.Compute(g, qSim)
		}
	})
	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = bsim.Compute(g, q)
		}
	})
}

// Ablation benches for this implementation's design choices.

// BenchmarkAblationParallel quantifies the parallel support-counting
// ablation of bounded simulation.
func BenchmarkAblationParallel(b *testing.B) {
	g := benchGraph(b, generator.KindCollab, 10000)
	q := dataset.PaperQuery()
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sinkRelation = bsim.ComputeParallel(g, q, workers)
			}
		})
	}
}

// BenchmarkAblationWorklistVsNaive quantifies the worklist/counter design
// against the naive fixpoint on a size where both finish.
func BenchmarkAblationWorklistVsNaive(b *testing.B) {
	g := benchGraph(b, generator.KindCollab, 500)
	q := dataset.PaperQuery()
	b.Run("worklist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = bsim.Compute(g, q)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = bsim.ComputeNaive(g, q)
		}
	})
}

// BenchmarkAblationCache quantifies the result cache: identical query
// against a cold pipeline vs the cache hit path.
func BenchmarkAblationCache(b *testing.B) {
	g := benchGraph(b, generator.KindCollab, 3000)
	q := dataset.PaperQuery()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = bsim.Compute(g, q)
		}
	})
	b.Run("hit", func(b *testing.B) {
		eng := expfinder.NewEngine(expfinder.EngineOptions{})
		if err := eng.AddGraph("g", g); err != nil {
			b.Fatal(err)
		}
		if _, err := eng.Query("g", q, 1); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := eng.Query("g", q, 1)
			if err != nil {
				b.Fatal(err)
			}
			sinkRelation = res.Relation
		}
	})
}

// BenchmarkAblationSemantics compares the match semantics ladder on one
// workload: simulation ⊂ dual ⊂ ... with bounded variants.
func BenchmarkAblationSemantics(b *testing.B) {
	g := benchGraph(b, generator.KindCollab, 1000)
	q := dataset.PaperQuery()
	qSim := flattenBounds(q)
	b.Run("simulation", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = simulation.Compute(g, qSim)
		}
	})
	b.Run("bounded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = bsim.Compute(g, q)
		}
	})
	b.Run("dual", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sinkRelation = strongsim.Dual(g, q)
		}
	})
}

// BenchmarkBatchExecutor measures the parallel batch query executor
// against serial dispatch on the generator's 100k-edge collaboration
// graph (39000 nodes, ~101k edges) — the ISSUE 1 speedup baseline.
// Every iteration answers the same 8 distinct queries through a fresh
// engine, keeping the result cache out of the measurement; only the
// Parallelism knob varies between sub-benchmarks.
func BenchmarkBatchExecutor(b *testing.B) {
	g := benchGraph(b, generator.KindCollab, 39000)
	queries := dataset.BenchQueries(8)
	reqs := make([]engine.QueryRequest, len(queries))
	for i, q := range queries {
		reqs[i] = engine.QueryRequest{Graph: "g", Pattern: q, K: 5}
	}
	for _, workers := range []int{1, 2, 4, 8} {
		name := fmt.Sprintf("workers=%d", workers)
		if workers == 1 {
			name = "serial"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				eng := engine.New(engine.Options{Parallelism: workers})
				if err := eng.AddGraph("g", g); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				for _, oc := range eng.QueryBatch(context.Background(), reqs) {
					if oc.Err != nil {
						b.Fatal(oc.Err)
					}
				}
			}
		})
	}
}

// BenchmarkFacadeMatch exercises the public API entry point.
func BenchmarkFacadeMatch(b *testing.B) {
	g, err := expfinder.Generate(expfinder.GenCollaboration,
		expfinder.GeneratorConfig{Nodes: 1000, AvgDegree: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkRelation = expfinder.Match(g, q)
	}
}
