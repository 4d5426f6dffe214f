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

func TestInsertRepairKeepsIndexExact(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(12)
		g := randomGraph(r, n, r.Intn(2*n+1), false)
		opts := Options{}
		if trial%2 == 1 {
			opts.Landmarks = 1 + r.Intn(n)
		}
		ix := Build(g, opts)
		// A few batches of random insertions, each synced through the index.
		for round := 0; round < 3; round++ {
			var ops []Update
			for i := 0; i < 1+r.Intn(4); i++ {
				u := graph.NodeID(r.Intn(n))
				v := graph.NodeID(r.Intn(n))
				if u == v {
					continue
				}
				if g.AddEdge(u, v) == nil {
					ops = append(ops, Update{Insert: true, From: u, To: v})
				}
			}
			ix.Sync(ops)
			if !ix.Fresh(g) {
				t.Fatalf("trial %d round %d: index not fresh after insert sync", trial, round)
			}
			checkAllPairs(t, g, ix, fmt.Sprintf("trial %d round %d", trial, round))
			entries := 0
			for i := range ix.lin {
				entries += len(ix.lin[i]) + len(ix.lout[i])
			}
			if st := ix.Stats(); st.Entries != entries {
				t.Fatalf("trial %d round %d: incremental entry count %d, actual %d", trial, round, st.Entries, entries)
			}
		}
	}
}

func TestDeleteInvalidatesButStaysExact(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	g := randomGraph(r, 10, 25, false)
	ix := Build(g, Options{})
	edges := g.Edges()
	e := edges[r.Intn(len(edges))]
	if err := g.RemoveEdge(e.From, e.To); err != nil {
		t.Fatal(err)
	}
	ix.Sync([]Update{{Insert: false, From: e.From, To: e.To}})
	if ix.Fresh(g) {
		t.Fatal("index fresh after a deletion")
	}
	// Not fresh, but still exact: everything goes through the fallback.
	checkAllPairs(t, g, ix, "post-delete")
	if ix.Stats().Fallbacks == 0 {
		t.Fatal("stale index should be answering via fallback")
	}
}

func TestNodeAddedThenConnected(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := randomGraph(r, 8, 16, false)
	ix := Build(g, Options{})
	// Two new nodes, then edges stitching them in — including a direct
	// new-node -> new-node edge, whose only cover is the new landmarks.
	n1 := g.AddNode("N", nil)
	ix.SyncNodeAdded(n1)
	n2 := g.AddNode("N", nil)
	ix.SyncNodeAdded(n2)
	var ops []Update
	for _, e := range [][2]graph.NodeID{{0, n1}, {n1, n2}, {n2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
		ops = append(ops, Update{Insert: true, From: e[0], To: e[1]})
	}
	ix.Sync(ops)
	if !ix.Fresh(g) {
		t.Fatal("index not fresh after node-add + insert sync")
	}
	checkAllPairs(t, g, ix, "node-added")
}

func TestAttrChangeKeepsIndexFresh(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	ix := Build(g, Options{})
	if err := g.SetAttr(a, "experience", graph.Int(9)); err != nil {
		t.Fatal(err)
	}
	if ix.Fresh(g) {
		t.Fatal("index cannot know about the out-of-band version bump yet")
	}
	ix.SyncAttrChanged(a)
	if !ix.Fresh(g) {
		t.Fatal("attribute sync should refresh the version")
	}
	if !ix.WithinOut(a, b, 1) {
		t.Fatal("a -> b within 1")
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
	// Mutate behind the index's back: queries must keep being exact by
	// falling back, even though Fresh is false.
	if err := g.AddEdge(b, c); err != nil {
		t.Fatal(err)
	}
	if ix.Fresh(g) {
		t.Fatal("index fresh after unsynced mutation")
	}
	if !ix.WithinOut(a, c, 2) {
		t.Fatal("stale index must still answer exactly via fallback")
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

func TestSyncWithUnsyncedNodeInvalidates(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := randomGraph(r, 6, 10, false)
	ix := Build(g, Options{})
	// Library misuse: a node added without SyncNodeAdded, then an edge to
	// it synced. The index must invalidate, not panic — and keep
	// answering exactly via the fallback.
	id := g.AddNode("N", nil)
	if err := g.AddEdge(0, id); err != nil {
		t.Fatal(err)
	}
	ix.Sync([]Update{{Insert: true, From: 0, To: id}})
	if ix.Fresh(g) {
		t.Fatal("index fresh after an insert touching an unsynced node")
	}
	checkAllPairs(t, g, ix, "unsynced-node")
}
