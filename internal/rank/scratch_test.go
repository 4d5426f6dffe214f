package rank

import (
	"reflect"
	"sync"
	"testing"

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

// TestTopKAllocs holds ranking to a fixed number of allocations per call:
// the sorted match list, its node indices, the impacts and the result
// slice, nothing per output match, per Dijkstra run or per batched walk.
func TestTopKAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	_, fs := benchInputs()
	for _, f := range fs {
		// Ranking a tenth of the output matches must cost the same.
		tenth := match.NewRelation(f.q.NumNodes())
		for i, v := range f.rel.MatchesOf(f.q.Output()) {
			if i%10 == 0 {
				tenth.Add(f.q.Output(), v)
			}
		}
		for _, rel := range []*match.Relation{tenth, f.rel} {
			got := minAllocs(func() { sinkRanked = TopKWithResultGraph(f.rg, f.q, rel, 0) })
			const ceiling = 12
			if got > ceiling {
				t.Errorf("%s, %d output matches: %v allocs per ranking, ceiling %d",
					f.name, rel.CountOf(f.q.Output()), got, ceiling)
			}
		}
	}
}

// TestConcurrentRankersSharePool ranks over shared result graphs from many
// goroutines at once; they draw search scratch from one pool, and every
// one must get the ranking a lone caller gets.
func TestConcurrentRankersSharePool(t *testing.T) {
	_, fs := benchInputs()
	want := make([][]Ranked, len(fs))
	for i, f := range fs {
		want[i] = TopKWithResultGraph(f.rg, f.q, f.rel, 0)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k := (w + i) % len(fs)
				got := TopKByMetricWithResultGraph(fs[k].rg, fs[k].q, fs[k].rel, 0, AvgDistance{})
				if i%2 == 0 {
					got = TopKWithResultGraph(fs[k].rg, fs[k].q, fs[k].rel, 0)
				}
				if !reflect.DeepEqual(got, want[k]) {
					t.Errorf("worker %d: concurrent ranking of %q differs from the serial one", w, fs[k].name)
				}
			}
		}()
	}
	wg.Wait()
}
