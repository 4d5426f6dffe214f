package engine

import (
	"context"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/match"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

// BenchmarkPlanByShape is the plan × shape table: the kernel and every
// accelerator built for a bounded query, on the repository benchmark's graph,
// over one pattern from each of its families and the Fig. 1 hiring query.
// The bounded and compressed cells are one (*Engine).evaluate call — no
// cache, no result graph, no ranking. No query reads the distance index or
// the partitioning, so their cells call the index-backed kernel
// (bsim.Evaluate with the index as its oracle) and the partition-parallel
// evaluator (partition.EvalCtx) directly. The accelerators are built as
// bench/ builds them (complete index, 2 greedy fragments, bisimulation
// quotient over the experience view). Each cell's relation is compared to
// the bounded cell's before the clock starts; a cell is skipped only when its
// accelerator cannot answer the shape exactly (the quotient's view does not
// cover the deep shape's specialty predicates).
func BenchmarkPlanByShape(b *testing.B) {
	ctx := context.Background()
	e := New(Options{})
	// evaluateFrom is a cell answered by evaluate, which must take the
	// given source.
	evaluateFrom := func(want Source) func(*testing.B, *managed, *pattern.Pattern) *match.Relation {
		return func(b *testing.B, mg *managed, q *pattern.Pattern) *match.Relation {
			rel, source, err := e.evaluate(ctx, mg, q, PlanBounded)
			if err != nil {
				b.Fatal(err)
			}
			if source != want {
				b.Skipf("answered from %q: the accelerator cannot take this shape", source)
			}
			return rel
		}
	}
	plans := []struct {
		name string
		eval func(*testing.B, *managed, *pattern.Pattern) *match.Relation
	}{
		{"bounded", evaluateFrom(SourceDirect)},
		{"indexed", func(b *testing.B, mg *managed, q *pattern.Pattern) *match.Relation {
			return bsim.Evaluate(ctx, mg.g, q, match.Bounded, e.evalWorkers(), mg.idx)
		}},
		{"partitioned", func(b *testing.B, mg *managed, q *pattern.Pattern) *match.Relation {
			rel, _, err := partition.EvalCtx(ctx, mg.g, q, mg.part, match.Bounded)
			if err != nil {
				b.Fatal(err)
			}
			return rel
		}},
		{"compressed", evaluateFrom(SourceCompressed)},
	}
	shapes := []struct{ name, dsl string }{
		{"broad", testutil.BroadDSL},
		{"deep", testutil.DeepDSL},
		{"star", testutil.StarDSL},
		{"shallow", testutil.ShallowDSL},
		{"fig1", dataset.PaperQueryDSL},
	}

	// One read-only graph under four names, each with one accelerator.
	for _, pl := range plans {
		if err := e.AddGraph(pl.name, testutil.CollabGraph()); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := e.BuildIndex("indexed", distindex.Options{}); err != nil {
		b.Fatal(err)
	}
	if _, err := e.PartitionGraph("partitioned", partition.Options{Parts: 2, Strategy: partition.StrategyGreedy}); err != nil {
		b.Fatal(err)
	}
	if _, err := e.CompressGraph("compressed", compress.Bisimulation, compress.View{"experience"}); err != nil {
		b.Fatal(err)
	}

	ref, err := e.lookup("bounded")
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range shapes {
		q := testutil.MustParse(sh.dsl)
		want, _, err := e.evaluate(ctx, ref, q, PlanBounded)
		if err != nil {
			b.Fatal(err)
		}
		for _, pl := range plans {
			b.Run(sh.name+"/"+pl.name, func(b *testing.B) {
				mg, err := e.lookup(pl.name)
				if err != nil {
					b.Fatal(err)
				}
				mg.mu.RLock()
				defer mg.mu.RUnlock()
				if rel := pl.eval(b, mg, q); !rel.Equal(want) {
					b.Fatalf("relation differs from the bounded plan's:\n got %s\nwant %s", rel, want)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.eval(b, mg, q)
				}
			})
		}
	}
}
