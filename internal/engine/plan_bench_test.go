package engine

import (
	"context"
	"testing"

	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/partition"
	"expfinder/internal/testutil"
)

// BenchmarkPlanByShape is the plan × shape table: every evaluator the engine
// can route a bounded query to, on the repository benchmark's graph, over one
// pattern from each of its families and the Fig. 1 hiring query. A cell is one
// (*Engine).evaluate call — no cache, no result graph, no ranking — forced
// onto the cell's plan whatever routePlan would have picked, with the
// accelerators built as bench/ builds them (complete index, 2 greedy
// fragments, bisimulation quotient over the experience view). Each cell's
// relation is compared to the bounded plan's before the clock starts; a cell
// is skipped only when its accelerator cannot answer the shape exactly (the
// quotient's view does not cover the deep shape's specialty predicates).
func BenchmarkPlanByShape(b *testing.B) {
	plans := []struct {
		name   string
		plan   Plan
		source Source
	}{
		{"bounded", PlanBounded, SourceDirect},
		{"indexed", PlanIndexed, SourceIndexed},
		{"partitioned", PlanPartitioned, SourcePartitioned},
		{"compressed", PlanBounded, SourceCompressed},
	}
	shapes := []struct{ name, dsl string }{
		{"broad", testutil.BroadDSL},
		{"deep", testutil.DeepDSL},
		{"star", testutil.StarDSL},
		{"shallow", testutil.ShallowDSL},
		{"fig1", dataset.PaperQueryDSL},
	}

	// One read-only graph under four names, each with one accelerator.
	e := New(Options{})
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

	ctx := context.Background()
	ref, err := e.lookup("bounded")
	if err != nil {
		b.Fatal(err)
	}
	for _, sh := range shapes {
		q := testutil.MustParse(sh.dsl)
		want, _, _, err := e.evaluate(ctx, ref, q, PlanBounded)
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
				rel, source, _, err := e.evaluate(ctx, mg, q, pl.plan)
				if err != nil {
					b.Fatal(err)
				}
				if source != pl.source {
					b.Skipf("answered from %q: the %s accelerator cannot take this shape", source, pl.name)
				}
				if !rel.Equal(want) {
					b.Fatalf("relation differs from the bounded plan's:\n got %s\nwant %s", rel, want)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, _, _, err := e.evaluate(ctx, mg, q, pl.plan); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
