package partition

import (
	"errors"
	"math/rand"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

// checkConsistent recomputes every derived structure (sizes, internal and
// cut edge counts, ghost refcounts) from the owner table and the graph,
// and compares with the maintained state — the invariant every build and
// every incremental Sync must preserve.
func checkConsistent(t *testing.T, pt *Partitioning) {
	t.Helper()
	g := pt.g
	size := make([]int, pt.parts)
	internal := make([]int, pt.parts)
	cutAt := make([]int, pt.parts)
	ghosts := make([]map[graph.NodeID]int32, pt.parts)
	for f := range ghosts {
		ghosts[f] = map[graph.NodeID]int32{}
	}
	cut := 0
	for id := 0; id < g.MaxID(); id++ {
		f := pt.owner[id]
		if !g.Has(graph.NodeID(id)) {
			if f != -1 {
				t.Fatalf("tombstone %d has owner %d", id, f)
			}
			continue
		}
		if f < 0 || int(f) >= pt.parts {
			t.Fatalf("live node %d has bad owner %d", id, f)
		}
		size[f]++
	}
	g.ForEachEdge(func(e graph.Edge) {
		fu, fv := pt.owner[e.From], pt.owner[e.To]
		if fu == fv {
			internal[fu]++
			return
		}
		cut++
		cutAt[fu]++
		cutAt[fv]++
		ghosts[fu][e.To]++
		ghosts[fv][e.From]++
	})
	if cut != pt.cut {
		t.Fatalf("cut = %d, recomputed %d", pt.cut, cut)
	}
	for f := 0; f < pt.parts; f++ {
		if size[f] != pt.size[f] {
			t.Fatalf("fragment %d size = %d, recomputed %d", f, pt.size[f], size[f])
		}
		if internal[f] != pt.internal[f] {
			t.Fatalf("fragment %d internal = %d, recomputed %d", f, pt.internal[f], internal[f])
		}
		if cutAt[f] != pt.cutAt[f] {
			t.Fatalf("fragment %d cutAt = %d, recomputed %d", f, pt.cutAt[f], cutAt[f])
		}
		if len(ghosts[f]) != len(pt.ghosts[f]) {
			t.Fatalf("fragment %d ghosts = %d, recomputed %d", f, len(pt.ghosts[f]), len(ghosts[f]))
		}
		for id, rc := range ghosts[f] {
			if pt.ghosts[f][id] != rc {
				t.Fatalf("fragment %d ghost %d refcount = %d, recomputed %d", f, id, pt.ghosts[f][id], rc)
			}
		}
	}
}

func TestPartitionStrategies(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(r, 120, 400)
	for _, strat := range []Strategy{StrategyHash, StrategyGreedy} {
		pt, err := Partition(g, Options{Parts: 5, Strategy: strat})
		if err != nil {
			t.Fatalf("%s: %v", strat, err)
		}
		checkConsistent(t, pt)
		if !pt.Fresh(g) {
			t.Fatalf("%s: fresh partitioning reports stale", strat)
		}
		st := pt.Stats()
		if st.Parts != 5 || st.Nodes != g.NumNodes() || st.Edges != g.NumEdges() {
			t.Fatalf("%s: stats = %+v", strat, st)
		}
		total := 0
		for _, fs := range st.Fragments {
			total += fs.Nodes
		}
		if total != g.NumNodes() {
			t.Fatalf("%s: fragment sizes sum to %d, want %d", strat, total, g.NumNodes())
		}
	}
	// Greedy respects its hard capacity cap and should beat hash on cut
	// edges for a graph with any locality at all.
	pg, _ := Partition(g, Options{Parts: 5, Strategy: StrategyGreedy})
	capPer := (g.NumNodes() + 4) / 5
	for f, fs := range pg.Stats().Fragments {
		if fs.Nodes > capPer {
			t.Fatalf("greedy fragment %d holds %d nodes, cap %d", f, fs.Nodes, capPer)
		}
	}
}

func TestPartitionEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(r, 12, 30)

	one, err := Partition(g, Options{Parts: 1})
	if err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, one)
	if st := one.Stats(); st.CutEdges != 0 || st.Fragments[0].Ghosts != 0 {
		t.Fatalf("P=1 stats = %+v", st)
	}

	many, err := Partition(g, Options{Parts: g.NumNodes() + 7, Strategy: StrategyHash})
	if err != nil {
		t.Fatal(err)
	}
	checkConsistent(t, many)

	if _, err := Partition(g, Options{Strategy: "zoned"}); !errors.Is(err, ErrBadStrategy) {
		t.Fatalf("bad strategy error = %v", err)
	}

	def, err := Partition(g, Options{}) // Parts and Strategy defaulted
	if err != nil {
		t.Fatal(err)
	}
	if def.Parts() < 1 {
		t.Fatalf("defaulted parts = %d", def.Parts())
	}

	// A hostile fragment count is clamped, not allocated.
	huge, err := Partition(g, Options{Parts: 1 << 30, Strategy: StrategyHash})
	if err != nil {
		t.Fatal(err)
	}
	if huge.Parts() != MaxParts {
		t.Fatalf("huge parts clamped to %d, want %d", huge.Parts(), MaxParts)
	}
	checkConsistent(t, huge)
}

// TestSyncIncremental drives a partitioning through edge churn and checks
// the maintained state equals a from-scratch recomputation after every
// batch, with Fresh holding throughout.
func TestSyncIncremental(t *testing.T) {
	for _, strat := range []Strategy{StrategyHash, StrategyGreedy} {
		r := rand.New(rand.NewSource(23))
		g := testutil.RandomGraph(r, 60, 180)
		pt, err := Partition(g, Options{Parts: 4, Strategy: strat})
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 8; round++ {
			for _, op := range testutil.RandomOps(r, g, 15) {
				pt.Sync([]Update{{Insert: op.Insert, From: op.From, To: op.To}})
			}
			if !pt.Fresh(g) {
				t.Fatalf("%s: stale after edge churn", strat)
			}
			checkConsistent(t, pt)
		}
	}
}
