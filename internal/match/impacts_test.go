package match_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

// randomResultGraph draws a result graph with the shapes the batched walk
// has to get right: a testutil.ChainGraph, so that `*` pattern edges become
// result edges as heavy as a chain is long right next to weight-1 ones;
// pattern self-edges and 2-cycles, so
// that result self-loops and short cycles run through the sources; and
// sparse relations, which leave nodes nothing reaches. n is the number of
// data nodes.
func randomResultGraph(r *rand.Rand, n int) *match.ResultGraph {
	g := testutil.ChainGraph(r, n, 2+r.Intn(12), n)
	nq := 1 + r.Intn(4)
	q := pattern.New()
	for i := 0; i < nq; i++ {
		q.MustAddNode(fmt.Sprintf("n%d", i), pattern.Predicate{})
	}
	bounds := []int{1, 1, 2, 4, pattern.Unbounded}
	for i := 1 + r.Intn(3*nq); i > 0; i-- {
		_ = q.AddEdge(pattern.NodeIdx(r.Intn(nq)), pattern.NodeIdx(r.Intn(nq)), bounds[r.Intn(len(bounds))])
	}
	rel := match.NewRelation(nq)
	density := []float64{0.1, 0.4, 0.9}[r.Intn(3)]
	for u := 0; u < nq; u++ {
		for v := 0; v < n; v++ {
			if r.Float64() < density {
				rel.Add(pattern.NodeIdx(u), graph.NodeID(v))
			}
		}
	}
	return match.BuildResultGraph(g, q, rel)
}

// pick draws k node indices of rg without repeats, each replaced now and
// then by -1, the index of a match that is not a node.
func pick(r *rand.Rand, rg *match.ResultGraph, k int) []int32 {
	sources := make([]int32, 0, k)
	for _, i := range r.Perm(rg.NumNodes())[:min(k, rg.NumNodes())] {
		if r.Intn(10) == 0 {
			i = -1
		}
		sources = append(sources, int32(i))
	}
	return sources
}

// impactsOneByOne is the reference: two Dijkstras per source.
func impactsOneByOne(rg *match.ResultGraph, s *match.Scratch, sources []int32) []match.Impact {
	want := make([]match.Impact, len(sources))
	for k, i := range sources {
		if i >= 0 {
			want[k] = rg.Impact(s, int(i))
		}
	}
	return want
}

// TestImpactBatchAgainstDijkstra pins the batched walk to Impact (which
// internal/rank's differential test pins to the map-based reference) from
// one source to a full word of them, and Impacts, which chooses between the
// two, from none to several batches.
func TestImpactBatchAgainstDijkstra(t *testing.T) {
	s := match.AcquireScratch()
	defer s.Release()
	heaviest, unreached := 0, 0
	for seed := int64(0); seed < 300; seed++ {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		if seed%3 == 0 {
			n = 65 + r.Intn(200)
		}
		rg := randomResultGraph(r, n)
		heaviest = max(heaviest, rg.MaxWeight())
		for _, k := range []int{1, 2, 1 + r.Intn(8), 1 + r.Intn(64), 64} {
			sources := pick(r, rg, k)
			got, want := make([]match.Impact, len(sources)), impactsOneByOne(rg, s, sources)
			rg.ImpactBatch(s, sources, got)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %v: ImpactBatch(%v) = %v, want %v", seed, rg, sources, got, want)
			}
			if !s.BatchClean() {
				t.Fatalf("seed %d, %v: ImpactBatch(%v) left the scratch dirty", seed, rg, sources)
			}
			for k, im := range got {
				if sources[k] >= 0 && im.Connected == 0 {
					unreached++
				}
			}
		}
		sources := pick(r, rg, r.Intn(n+1))
		got, want := make([]match.Impact, len(sources)), impactsOneByOne(rg, s, sources)
		rg.Impacts(s, sources, got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d, %v: Impacts(%v) = %v, want %v", seed, rg, sources, got, want)
		}
	}
	if heaviest < 8 || unreached == 0 {
		t.Errorf("inputs too tame: heaviest edge %d, %d isolated sources", heaviest, unreached)
	}
}

// TestImpactBatchCyclesThroughSources spells out the corner the random
// inputs hit only by chance: self-loops on both sources, a 2-cycle between
// them, a heavy edge beside a light path, a duplicate source, a node
// nothing touches.
func TestImpactBatchCyclesThroughSources(t *testing.T) {
	// Data graph: 0 <-> 1 (2-cycle), 0 -> 0 and 1 -> 1 (self-loops),
	// 1 -> 2 -> 3 -> 4 (chain), 5 isolated.
	g := graph.New(6)
	for i := 0; i < 6; i++ {
		g.AddNode("A", nil)
	}
	for _, e := range [][2]graph.NodeID{{0, 1}, {1, 0}, {0, 0}, {1, 1}, {1, 2}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.New()
	q.MustAddNode("A", pattern.Predicate{})
	q.MustAddEdge(0, 0, pattern.Unbounded)
	rel := match.NewRelation(1)
	for _, v := range []graph.NodeID{0, 1, 2, 4, 5} { // 3 is no match: 2 -> 4 weighs 2, 0 -> 4 weighs 4
		rel.Add(0, v)
	}
	rg := match.BuildResultGraph(g, q, rel)
	if w, ok := rg.Weight(0, 4); !ok || w != 4 {
		t.Fatalf("Weight(0,4) = (%d,%v), want (4,true)", w, ok)
	}
	if w, ok := rg.Weight(0, 0); !ok || w != 1 {
		t.Fatalf("Weight(0,0) = (%d,%v), want (1,true)", w, ok)
	}
	s := match.AcquireScratch()
	defer s.Release()
	sources := []int32{0, 1, 0, 4, -1} // nodes are indexed in id order here; 4 is node 5
	got := make([]match.Impact, len(sources))
	rg.ImpactBatch(s, sources, got)
	// From 0: 1 at 1, 2 at 2, 4 at 4; into 0: 1 at 1. From 1: 0 at 1, 2 at 1,
	// 4 at 3; into 1: 0 at 1.
	want := []match.Impact{{Sum: 8, Connected: 3}, {Sum: 6, Connected: 3}, {Sum: 8, Connected: 3}, {}, {}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ImpactBatch(%v) = %v, want %v", sources, got, want)
	}
	if one := impactsOneByOne(rg, s, sources); !reflect.DeepEqual(one, want) {
		t.Errorf("Impact one by one = %v, want %v", one, want)
	}
}

// TestImpactBatchReusesScratch walks the benchmark's large result graphs
// and then tiny ones (fewer nodes, lighter edges, so a shorter stride over
// the same ring) on one Scratch: every answer must be what a fresh Scratch
// gives, and the Scratch must come out clean each time.
func TestImpactBatchReusesScratch(t *testing.T) {
	_, fs := benchInputs()
	var rgs []*match.ResultGraph
	for _, f := range fs {
		rgs = append(rgs, match.BuildResultGraph(testutil.CollabGraph(), f.q, f.rel))
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		rgs = append(rgs, randomResultGraph(r, 3+r.Intn(30)))
	}
	rgs = append(rgs, rgs[1], rgs[0]) // and large again after small
	shared := match.AcquireScratch()
	defer shared.Release()
	for i, rg := range rgs {
		sources := pick(r, rg, 64)
		got, want := make([]match.Impact, len(sources)), make([]match.Impact, len(sources))
		rg.ImpactBatch(shared, sources, got)
		rg.ImpactBatch(new(match.Scratch), sources, want)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("graph %d (%v): a reused scratch gives %v, a fresh one %v", i, rg, got, want)
		}
		if !shared.BatchClean() {
			t.Fatalf("graph %d (%v): the walk left the scratch dirty", i, rg)
		}
	}
	// A walk that panics half way (a caller's out-of-range index, after the
	// sources before it were seeded) must not poison the next one.
	rg := rgs[0]
	sources := pick(r, rg, 64)
	func() {
		defer func() { _ = recover() }()
		rg.ImpactBatch(shared, append(sources[:10:10], int32(rg.NumNodes())), make([]match.Impact, 11))
		t.Error("an out-of-range source did not panic")
	}()
	got, want := make([]match.Impact, len(sources)), make([]match.Impact, len(sources))
	rg.ImpactBatch(shared, sources, got)
	rg.ImpactBatch(new(match.Scratch), sources, want)
	if !reflect.DeepEqual(got, want) || !shared.BatchClean() {
		t.Errorf("after a panicked walk the scratch gives %v, a fresh one %v", got, want)
	}
}

// TestImpactsInParallel ranks over shared frozen result graphs from
// parallel subtests, each on its own pooled Scratch; run under -race.
func TestImpactsInParallel(t *testing.T) {
	_, fs := benchInputs()
	for _, f := range fs {
		rg := match.BuildResultGraph(testutil.CollabGraph(), f.q, f.rel)
		var sources []int32
		for _, v := range f.rel.MatchesOf(f.q.Output())[:80] {
			i, _ := rg.IndexOf(v)
			sources = append(sources, int32(i))
		}
		want := impactsOneByOne(rg, new(match.Scratch), sources)
		for w := 0; w < 4; w++ {
			t.Run(fmt.Sprintf("%s/%d", f.name, w), func(t *testing.T) {
				t.Parallel()
				s := match.AcquireScratch()
				defer s.Release()
				got := make([]match.Impact, len(sources))
				rg.Impacts(s, sources, got)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("parallel Impacts differ from the serial Dijkstras")
				}
			})
		}
	}
}
