package engine

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/match"
	"expfinder/internal/partition"
	"expfinder/internal/rank"
	"expfinder/internal/simulation"
	"expfinder/internal/strongsim"
	"expfinder/internal/testutil"
	"expfinder/internal/trace"
)

// TestDualIsAFirstClassQuery: a dual query runs the whole pipeline — one
// engine.query span naming its plan, the kernel's spans under eval.dual —
// its answer is cached under its own key beside the bounded answer for the
// same pattern, and a repeat is a hit.
func TestDualIsAFirstClassQuery(t *testing.T) {
	e, _ := newPaperEngine(t)
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	dual := QueryRequest{Graph: "paper", Pattern: q, K: 2, Semantics: match.Dual}

	tracer := trace.New(trace.Options{Sample: 1})
	ctx, tr := tracer.Start(context.Background(), "t", "test", true)
	miss, err := e.Execute(ctx, dual)
	if err != nil {
		t.Fatal(err)
	}
	tj := tracer.Finish(tr)
	if miss.Plan != PlanDual || miss.Source != SourceDirect {
		t.Errorf("dual miss: plan/source = %v/%v, want dual-simulation/direct", miss.Plan, miss.Source)
	}
	if want := strongsim.DualNaive(g, q); !miss.Relation.Equal(want) {
		t.Errorf("dual relation = %v, want %v", miss.Relation, want)
	}
	if sp := tj.Find("engine.query"); sp == nil || sp.Attrs["plan"] != string(PlanDual) || sp.Attrs["result_bytes"] == nil {
		t.Errorf("engine.query span of a dual miss = %+v, want plan=dual-simulation and result_bytes", sp)
	}
	if sp := tj.Find("eval.dual"); sp == nil || len(sp.Children) != 3 || sp.Children[2].Name != "bsim.propagate" {
		t.Errorf("eval.dual span = %+v, want the kernel's three phases under it", sp)
	}

	hit, err := e.Execute(context.Background(), dual)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Plan != PlanDual || hit.Source != SourceCache || hit.Relation != miss.Relation {
		t.Errorf("repeated dual query: plan/source = %v/%v, same entry %v; want dual-simulation/cache/true",
			hit.Plan, hit.Source, hit.Relation == miss.Relation)
	}
	bounded, err := e.Query("paper", q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Source != SourceDirect || bounded.Plan != PlanBounded || bounded.Relation.Equal(miss.Relation) {
		t.Errorf("bounded query after dual: plan/source = %v/%v, relation %v; want its own direct answer",
			bounded.Plan, bounded.Source, bounded.Relation)
	}
	if st := e.CacheStats(); st.Entries != 2 || st.Hits != 1 {
		t.Errorf("cache holds %d entries after %d hits, want 2 entries (one per semantics) and 1 hit", st.Entries, st.Hits)
	}
}

// TestDualIgnoresBoundedMaintainers: a registered matcher and a quotient
// maintain the bounded-simulation relation, and a partitioning and a
// distance index are kept in step with the graph; with any or all of them
// attached and fresh a dual query is still answered by the kernel on the
// original graph, equal to the defining fixpoint. The bounded query reads
// the matcher or the quotient, and attaching a partitioning or an index
// alone leaves its plan, source and answer as on a bare graph.
func TestDualIgnoresBoundedMaintainers(t *testing.T) {
	attach := map[string]func(e *Engine, q *QueryRequest) error{
		"matcher": func(e *Engine, q *QueryRequest) error { return e.RegisterQuery(q.Graph, q.Pattern) },
		"quotient": func(e *Engine, q *QueryRequest) error {
			_, err := e.CompressGraph(q.Graph, compress.Bisimulation, compress.View{"experience"})
			return err
		},
		"partitions": func(e *Engine, q *QueryRequest) error {
			_, err := e.PartitionGraph(q.Graph, partition.Options{Parts: 3, Strategy: partition.StrategyGreedy})
			return err
		},
		"index": func(e *Engine, q *QueryRequest) error {
			_, err := e.BuildIndex(q.Graph, distindex.Options{})
			return err
		},
	}
	bounded := map[string]Source{"matcher": SourceIncremental, "quotient": SourceCompressed,
		"partitions": SourceDirect, "index": SourceDirect, "all": SourceIncremental}
	for _, kind := range []string{"matcher", "quotient", "partitions", "index", "all"} {
		t.Run(kind, func(t *testing.T) {
			r := rand.New(rand.NewSource(7))
			for trial := 0; trial < 20; trial++ {
				g := testutil.RandomGraph(r, 40+r.Intn(80), 100+r.Intn(300))
				if kind == "quotient" {
					g = payingGraph(t, 40+r.Intn(80), r.Int63())
				}
				q := testutil.RandomPattern(r, 2+r.Intn(3))
				e := New(Options{})
				if err := e.AddGraph("g", g); err != nil {
					t.Fatal(err)
				}
				req := QueryRequest{Graph: "g", Pattern: q}
				for name, fn := range attach {
					if kind == name || kind == "all" {
						if err := fn(e, &req); err != nil {
							t.Fatal(err)
						}
					}
				}
				res, err := e.Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if res.Plan != routePlan(q, match.Bounded) || res.Source != bounded[kind] {
					t.Fatalf("trial %d: bounded plan/source = %v/%v, want %v/%v", trial, res.Plan, res.Source, routePlan(q, match.Bounded), bounded[kind])
				}
				if want := bsim.Compute(g, q); !res.Relation.Equal(want) {
					t.Fatalf("trial %d: bounded relation = %v, want %v", trial, res.Relation, want)
				}
				req.Semantics = match.Dual
				res, err = e.Execute(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				if res.Plan != PlanDual || res.Source != SourceDirect {
					t.Fatalf("trial %d: dual plan/source = %v/%v, want dual-simulation/direct", trial, res.Plan, res.Source)
				}
				if want := strongsim.DualNaive(g, q); !res.Relation.Equal(want) {
					t.Fatalf("trial %d: dual relation = %v, want %v", trial, res.Relation, want)
				}
			}
		})
	}
}

// TestPlainSimulationRunsOnTheKernel: the "simulation" plan is a name for
// all-bounds-1 patterns, not a second evaluator; its answers, direct and
// over a quotient, equal the reference simulation algorithm's. The graphs
// are collaboration graphs, whose quotients pay.
func TestPlainSimulationRunsOnTheKernel(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		g := payingGraph(t, 30+r.Intn(60), r.Int63())
		q := testutil.RandomSimPattern(r, 1+r.Intn(4))
		want := simulation.Compute(g, q)
		for _, scheme := range []*compress.Scheme{nil, ptr(compress.Bisimulation), ptr(compress.SimulationEquivalence)} {
			e := New(Options{})
			if err := e.AddGraph("g", g.Clone()); err != nil {
				t.Fatal(err)
			}
			source := SourceDirect
			if scheme != nil {
				source = SourceCompressed
				if _, err := e.CompressGraph("g", *scheme, compress.View{"experience"}); err != nil {
					t.Fatal(err)
				}
			}
			tracer := trace.New(trace.Options{Sample: 1})
			ctx, tr := tracer.Start(context.Background(), "t", "test", true)
			res, err := e.QueryCtx(ctx, "g", q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Plan != PlanSimulation || res.Source != source || !res.Relation.Equal(want) {
				t.Fatalf("trial %d scheme %v: plan/source = %v/%v, relation %v; want simulation/%v, %v",
					trial, scheme, res.Plan, res.Source, res.Relation, source, want)
			}
			stage := map[Source]string{SourceDirect: "eval.simulation", SourceCompressed: "eval.compressed"}[source]
			if sp := tracer.Finish(tr).Find(stage); sp == nil || len(sp.Children) == 0 || sp.Children[0].Name != "bsim.init_cands" {
				t.Fatalf("trial %d scheme %v: %s span = %+v, want the kernel's phases under it", trial, scheme, stage, sp)
			}
		}
	}
}

func ptr[T any](v T) *T { return &v }

// TestMetricIsRankedInsideThePipeline: a non-default metric is ranked from
// the cached answer on every request — miss and hit alike — under a
// rank.topk span of the engine.query span, and the default metric still
// hands out the entry's own ranking.
func TestMetricIsRankedInsideThePipeline(t *testing.T) {
	e, _ := newPaperEngine(t)
	q := dataset.PaperQuery()
	for _, sem := range []match.Semantics{match.Bounded, match.Dual} {
		for i, source := range []Source{SourceDirect, SourceCache} {
			tracer := trace.New(trace.Options{Sample: 1})
			ctx, tr := tracer.Start(context.Background(), "t", "test", true)
			res, err := e.Execute(ctx, QueryRequest{Graph: "paper", Pattern: q, K: 1, Semantics: sem, Metric: rank.PageRank{}})
			if err != nil {
				t.Fatal(err)
			}
			if res.Source != source {
				t.Fatalf("sem %d request %d: source %v, want %v", sem, i, res.Source, source)
			}
			if want := rank.TopKByMetricWithResultGraph(res.ResultGraph, q, res.Relation, 1, rank.PageRank{}); !reflect.DeepEqual(res.TopK, want) {
				t.Errorf("sem %d request %d: top-K %v, want the pagerank ranking %v", sem, i, res.TopK, want)
			}
			var metrics []any
			tj := tracer.Finish(tr)
			tj.Walk(func(sp *trace.SpanJSON) {
				if sp.Name == "rank.topk" {
					metrics = append(metrics, sp.Attrs["metric"])
				}
			})
			// A miss ranks twice: the entry's default ranking, then the metric.
			if want := [][]any{{nil, "pagerank"}, {"pagerank"}}[i]; !reflect.DeepEqual(metrics, want) {
				t.Errorf("sem %d request %d: rank.topk spans carry metrics %v, want %v", sem, i, metrics, want)
			}
		}
		def, err := e.Execute(context.Background(), QueryRequest{Graph: "paper", Pattern: q, K: 1, Semantics: sem})
		if err != nil {
			t.Fatal(err)
		}
		if want := rank.TopKWithResultGraph(def.ResultGraph, q, def.Relation, 1); def.Source != SourceCache || !reflect.DeepEqual(def.TopK, want) {
			t.Errorf("sem %d default metric: source %v top-K %v, want a hit ranked %v", sem, def.Source, def.TopK, want)
		}
	}
}
