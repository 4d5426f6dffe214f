package distindex

import (
	"fmt"
	"math/rand"
	"testing"

	"expfinder/internal/generator"
	"expfinder/internal/graph"
)

// randomGraph builds a small random digraph; roughly every third one
// gets self-loops (quotient graphs produce them).
func randomGraph(r *rand.Rand, n, m int, selfLoops bool) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode("N", nil)
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if u == v && !selfLoops {
			continue
		}
		_ = g.AddEdge(u, v)
	}
	return g
}

// trueWithin is the ground truth: bounded BFS over the graph.
func trueWithin(g *graph.Graph, u, v graph.NodeID, bound int) bool {
	found := false
	g.VisitOutBall(u, bound, func(w graph.NodeID, _ int) bool {
		if w == v {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkAllPairs compares every (u, v, bound) answer against BFS truth.
func checkAllPairs(t *testing.T, g *graph.Graph, ix *Index, tag string) {
	t.Helper()
	n := g.MaxID()
	for ui := 0; ui < n; ui++ {
		for vi := 0; vi < n; vi++ {
			u, v := graph.NodeID(ui), graph.NodeID(vi)
			for _, bound := range []int{-1, 0, 1, 2, 3, 5} {
				got := ix.WithinOut(u, v, bound)
				want := trueWithin(g, u, v, bound)
				if got != want {
					t.Fatalf("%s: WithinOut(%d, %d, %d) = %v, want %v", tag, u, v, bound, got, want)
				}
			}
			if d, want := ix.Distance(u, v), g.Distance(u, v); d != want {
				t.Fatalf("%s: Distance(%d, %d) = %d, want %d", tag, u, v, d, want)
			}
		}
	}
}

func TestCompleteIndexExactOnRandomGraphs(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(14)
		g := randomGraph(r, n, r.Intn(3*n+1), trial%3 == 0)
		ix := Build(g, Options{})
		st := ix.Stats()
		if !st.Complete || !st.Fresh {
			t.Fatalf("default build must be complete and fresh: %+v", st)
		}
		checkAllPairs(t, g, ix, fmt.Sprintf("trial %d", trial))
		if st2 := ix.Stats(); st2.Fallbacks != 0 {
			t.Fatalf("trial %d: complete index took %d BFS fallbacks", trial, st2.Fallbacks)
		}
	}
}

func TestPartialIndexExactViaFallback(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(12)
		g := randomGraph(r, n, r.Intn(3*n+1), trial%3 == 1)
		for _, k := range []int{1, 2, n / 2} {
			ix := Build(g, Options{Landmarks: k})
			if ix.Stats().Complete {
				t.Fatalf("trial %d: %d landmarks over %d nodes reported complete", trial, k, n)
			}
			checkAllPairs(t, g, ix, fmt.Sprintf("trial %d k=%d", trial, k))
		}
	}
}

func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	g, err := generator.Collaboration(generator.Config{Nodes: 400, AvgDegree: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	base := Build(g, Options{Workers: 1})
	for _, w := range []int{2, 4, 8} {
		ix := Build(g, Options{Workers: w})
		if len(ix.ord) != len(base.ord) {
			t.Fatalf("workers=%d: %d landmarks vs %d", w, len(ix.ord), len(base.ord))
		}
		for i := range base.ord {
			if ix.ord[i] != base.ord[i] {
				t.Fatalf("workers=%d: landmark order diverges at %d", w, i)
			}
		}
		for v := range base.lin {
			if fmt.Sprint(ix.lin[v]) != fmt.Sprint(base.lin[v]) || fmt.Sprint(ix.lout[v]) != fmt.Sprint(base.lout[v]) {
				t.Fatalf("workers=%d: labels diverge at node %d", w, v)
			}
		}
	}
}

func TestOutOfBandMutationFallsBack(t *testing.T) {
	g := graph.New(3)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	c := g.AddNode("C", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	ix := Build(g, Options{})
	// Mutate behind the index's back, including a node past the labeled
	// id space: queries must keep being exact by falling back, and must
	// not index the labels out of range.
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	d := g.AddNode("D", nil)
	if err := g.AddEdge(c, d); err != nil {
		t.Fatal(err)
	}
	if ix.Stats().Fresh {
		t.Fatal("index fresh after an out-of-band mutation")
	}
	if !ix.WithinOut(a, c, 2) || !ix.WithinOut(a, d, 3) || ix.WithinOut(a, d, 2) {
		t.Fatal("stale index must still answer exactly via fallback")
	}
	if ix.Distance(a, d) != 3 || ix.Stats().Fallbacks == 0 {
		t.Fatalf("stale index: distance %d, stats %+v", ix.Distance(a, d), ix.Stats())
	}
}

func TestDegreeOrderedLandmarkSelection(t *testing.T) {
	// A star: the hub has the highest degree and must be the first landmark.
	g := graph.New(6)
	hub := g.AddNode("H", nil)
	for i := 0; i < 5; i++ {
		v := g.AddNode("S", nil)
		if err := g.AddEdge(hub, v); err != nil {
			t.Fatal(err)
		}
	}
	ix := Build(g, Options{Landmarks: 2})
	if ix.ord[0] != hub {
		t.Fatalf("first landmark = %d, want hub %d", ix.ord[0], hub)
	}
	// Ties (the spokes all have degree 1) break by id.
	if ix.ord[1] != 1 {
		t.Fatalf("second landmark = %d, want lowest-id spoke 1", ix.ord[1])
	}
}

func TestStatsCounters(t *testing.T) {
	g, _ := generator.Collaboration(generator.Config{Nodes: 60, AvgDegree: 4, Seed: 3})
	ix := Build(g, Options{})
	st := ix.Stats()
	if st.Entries == 0 || st.Bytes == 0 || st.Landmarks != g.NumNodes() {
		t.Fatalf("implausible stats: %+v", st)
	}
	ix.WithinOut(0, 1, 3)
	if got := ix.Stats(); got.Queries != 1 || got.Proved+got.Refuted+got.Fallbacks != 1 {
		t.Fatalf("counter mismatch: %+v", got)
	}
}

func BenchmarkBuildCollab2k(b *testing.B) {
	g, err := generator.Collaboration(generator.Config{Nodes: 2000, AvgDegree: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Build(g, Options{})
	}
}

func BenchmarkWithinOut(b *testing.B) {
	g, err := generator.Collaboration(generator.Config{Nodes: 2000, AvgDegree: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ix := Build(g, Options{})
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		u := nodes[i%len(nodes)]
		v := nodes[(i*7+13)%len(nodes)]
		ix.WithinOut(u, v, 3)
	}
}

func BenchmarkWithinOutVsBoundedBFS(b *testing.B) {
	g, err := generator.Collaboration(generator.Config{Nodes: 2000, AvgDegree: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	ix := Build(g, Options{})
	nodes := g.Nodes()
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ix.WithinOut(nodes[i%len(nodes)], nodes[(i*31+7)%len(nodes)], -1)
		}
	})
	b.Run("bfs", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			trueWithinBench(g, nodes[i%len(nodes)], nodes[(i*31+7)%len(nodes)], -1)
		}
	})
}

func trueWithinBench(g *graph.Graph, u, v graph.NodeID, bound int) bool {
	found := false
	g.VisitOutBall(u, bound, func(w graph.NodeID, _ int) bool {
		if w == v {
			found = true
			return false
		}
		return true
	})
	return found
}
