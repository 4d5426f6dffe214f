package bsim

import (
	"context"
	"sync"
	"testing"

	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

type shape struct {
	name string
	q    *pattern.Pattern
}

// collab is the repository benchmark's dataset with the two shapes
// internal/match/bench_test.go uses plus the star and the shallow one.
var collab = sync.OnceValues(func() (*graph.Graph, []shape) {
	var shapes []shape
	for _, in := range []struct{ name, dsl string }{{"broad", testutil.BroadDSL}, {"deep", testutil.DeepDSL}, {"star", testutil.StarDSL}, {"shallow", testutil.ShallowDSL}} {
		shapes = append(shapes, shape{in.name, testutil.MustParse(in.dsl)})
	}
	return testutil.CollabGraph(), shapes
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

// BenchmarkDualCollab sets dual simulation beside bounded simulation on the
// same patterns: what the parent counters add to each pass. The star is
// the shape where counting at all loses to early-exit witness checks.
func BenchmarkDualCollab(b *testing.B) {
	g, shapes := collab()
	for _, sh := range shapes {
		for _, sem := range []struct {
			name string
			sem  match.Semantics
		}{{"dual", match.Dual}, {"bounded", match.Bounded}} {
			b.Run(sh.name+"/"+sem.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = Evaluate(context.Background(), g, sh.q, sem.sem, 1, nil)
				}
				b.ReportMetric(float64(benchSink.Size()), "pairs")
			})
		}
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
