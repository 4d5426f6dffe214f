package match_test

import (
	"reflect"
	"sync"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/testutil"
)

// minAllocs is the fewest allocations one call of f makes over a few
// tries: a GC between tries may empty the scratch pool and charge one call
// for regrowing it.
func minAllocs(f func()) float64 {
	f() // warm the pool
	lo := testing.AllocsPerRun(1, f)
	for i := 0; i < 9; i++ {
		lo = min(lo, testing.AllocsPerRun(1, f))
	}
	return lo
}

// TestBuildResultGraphAllocs holds the builder to a fixed number of
// allocations per call: the frozen arrays and one sorted match list per
// pattern node, nothing per source match, visited node or result edge.
func TestBuildResultGraphAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, fs := benchInputs()
	for _, f := range fs {
		// The same pattern over a tenth of the matches must cost the same.
		tenth := match.NewRelation(f.q.NumNodes())
		for i, p := range f.rel.Pairs() {
			if i%10 == 0 {
				tenth.Add(p.PNode, p.Node)
			}
		}
		ceiling := float64(20 + 4*f.q.NumNodes())
		for _, rel := range []*match.Relation{tenth, f.rel} {
			got := minAllocs(func() { sinkRG = match.BuildResultGraph(g, f.q, rel) })
			if got > ceiling {
				t.Errorf("%s, %d pairs: %v allocs per build, ceiling %v", f.name, rel.Size(), got, ceiling)
			}
		}
	}
}

// TestConcurrentBuildersSharePool builds and searches result graphs from
// many goroutines at once; they draw builders and search scratch from the
// same pools, and every one must get the answer a lone caller gets.
func TestConcurrentBuildersSharePool(t *testing.T) {
	g, fs := benchInputs()
	type answer struct {
		rg   *match.ResultGraph
		dist map[graph.NodeID]int
	}
	solve := func(f fixture) answer {
		rg := match.BuildResultGraph(g, f.q, f.rel)
		return answer{rg, rg.Distances(f.rel.MatchesOf(f.q.Output())[0], false)}
	}
	want := make([]answer, len(fs))
	for i, f := range fs {
		want[i] = solve(f)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (w + i) % len(fs)
				if got := solve(fs[k]); !reflect.DeepEqual(got, want[k]) {
					t.Errorf("worker %d: concurrent build of %q differs from the serial one", w, fs[k].name)
				}
			}
		}()
	}
	wg.Wait()
}
