package stats

import (
	"math/rand"
	"sync"
	"testing"

	"expfinder/internal/graph"
)

// applyBatch mirrors the engine's applyUpdates contract: ops apply to
// the graph one by one; on the first failure the applied prefix rolls
// back and the stats get a RefreshVersion (content unchanged, version
// advanced). On success the stats Sync exactly the applied ops.
func applyBatch(g *graph.Graph, st *Graph, ops []Update) bool {
	for i, op := range ops {
		var err error
		if op.Insert {
			err = g.AddEdge(op.From, op.To)
		} else {
			err = g.RemoveEdge(op.From, op.To)
		}
		if err != nil {
			for j := i - 1; j >= 0; j-- {
				if ops[j].Insert {
					_ = g.RemoveEdge(ops[j].From, ops[j].To)
				} else {
					_ = g.AddEdge(ops[j].From, ops[j].To)
				}
			}
			st.RefreshVersion(g)
			return false
		}
	}
	st.Sync(g, ops)
	return true
}

// removeNode mirrors the engine's two-phase RemoveNode: detach incident
// edges through the edge path, then drop the isolated node.
func removeNode(t *testing.T, g *graph.Graph, st *Graph, id graph.NodeID) {
	t.Helper()
	var ops []Update
	for _, v := range g.Out(id) {
		ops = append(ops, Update{Insert: false, From: id, To: v})
	}
	for _, u := range g.In(id) {
		if u != id {
			ops = append(ops, Update{Insert: false, From: u, To: id})
		}
	}
	for _, op := range ops {
		if err := g.RemoveEdge(op.From, op.To); err != nil {
			t.Fatalf("detach %d->%d: %v", op.From, op.To, err)
		}
	}
	st.Sync(g, ops)
	if err := g.RemoveNode(id); err != nil {
		t.Fatalf("remove node %d: %v", id, err)
	}
	st.SyncNodeRemoved(g, id)
}

var testLabels = []string{"HR", "AI", "DB", "SE", "Bio"}

// TestIncrementalMatchesRecount drives random mutation streams —
// edge batches (some failing mid-batch and rolling back), node
// additions, removals, attribute updates — through the incremental
// maintenance path and checks after every step that the maintained
// counters equal a from-scratch recount, without paying a rebuild.
func TestIncrementalMatchesRecount(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.New(0)
		st := NewGraph(g)
		var alive []graph.NodeID
		for i := 0; i < 20; i++ {
			id := g.AddNode(testLabels[r.Intn(len(testLabels))], nil)
			st.SyncNodeAdded(g, id)
			alive = append(alive, id)
		}
		pick := func() graph.NodeID { return alive[r.Intn(len(alive))] }
		rollbacks := 0
		for step := 0; step < 200; step++ {
			switch r.Intn(12) {
			case 0:
				id := g.AddNode(testLabels[r.Intn(len(testLabels))], nil)
				st.SyncNodeAdded(g, id)
				alive = append(alive, id)
			case 1:
				if len(alive) > 2 {
					i := r.Intn(len(alive))
					removeNode(t, g, st, alive[i])
					alive = append(alive[:i], alive[i+1:]...)
				}
			case 2:
				if err := g.SetAttr(pick(), "w", graph.Int(int64(step))); err == nil {
					st.SyncAttrChanged(g)
				}
			case 3:
				// A batch built to fail mid-way: valid inserts followed by a
				// duplicate of the first — exercises the rollback path.
				from, to := pick(), pick()
				ops := []Update{
					{Insert: true, From: from, To: to},
					{Insert: true, From: from, To: to},
				}
				if applyBatch(g, st, ops) {
					t.Fatalf("seed %d step %d: duplicate-insert batch applied", seed, step)
				}
				rollbacks++
			default:
				n := 1 + r.Intn(4)
				ops := make([]Update, 0, n)
				for i := 0; i < n; i++ {
					ops = append(ops, Update{Insert: r.Intn(3) > 0, From: pick(), To: pick()})
				}
				applyBatch(g, st, ops)
			}
			snap := st.Snapshot(g)
			if want := Compute(g); !snap.Equal(want) {
				t.Fatalf("seed %d step %d: incremental snapshot diverged from recount\n got: %+v\nwant: %+v",
					seed, step, snap, want)
			}
		}
		if rollbacks == 0 {
			t.Fatalf("seed %d: rollback path never exercised", seed)
		}
		// Every comparison above must have come from incremental
		// maintenance: the only recount is the one NewGraph paid.
		if n := st.Rebuilds(); n != 1 {
			t.Fatalf("seed %d: %d rebuilds; incremental path should never go stale", seed, n)
		}
	}
}

// TestSnapshotRebuildsWhenStale mutates the graph behind the stats'
// back and checks the stale stamp forces a recount instead of serving
// the old counters.
func TestSnapshotRebuildsWhenStale(t *testing.T) {
	g := graph.New(0)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	st := NewGraph(g)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	// No Sync: the stats still describe the edgeless graph.
	snap := st.Snapshot(g)
	if snap.Edges != 1 {
		t.Fatalf("stale snapshot served: %d edges, want 1", snap.Edges)
	}
	if st.Rebuilds() != 2 {
		t.Fatalf("rebuilds = %d, want 2 (build + stale recount)", st.Rebuilds())
	}
	if !snap.Equal(Compute(g)) {
		t.Fatal("rebuilt snapshot diverged from recount")
	}
}

// TestConcurrentReadersRaceClean runs snapshot readers against a
// mutating writer under the engine's locking discipline (writer holds
// a write lock, readers read locks); go test -race is the assertion.
func TestConcurrentReadersRaceClean(t *testing.T) {
	g := graph.New(0)
	st := NewGraph(g)
	var mu sync.RWMutex
	var ids []graph.NodeID
	mu.Lock()
	for i := 0; i < 10; i++ {
		id := g.AddNode(testLabels[i%len(testLabels)], nil)
		st.SyncNodeAdded(g, id)
		ids = append(ids, id)
	}
	mu.Unlock()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				mu.RLock()
				snap := st.Snapshot(g)
				mu.RUnlock()
				if snap.Nodes < 10 {
					t.Errorf("snapshot lost nodes: %d", snap.Nodes)
					return
				}
				_ = st.Rebuilds()
			}
		}()
	}
	r := rand.New(rand.NewSource(42))
	for step := 0; step < 500; step++ {
		mu.Lock()
		from, to := ids[r.Intn(len(ids))], ids[r.Intn(len(ids))]
		applyBatch(g, st, []Update{{Insert: r.Intn(2) == 0, From: from, To: to}})
		mu.Unlock()
	}
	close(done)
	wg.Wait()
	mu.RLock()
	defer mu.RUnlock()
	if snap := st.Snapshot(g); !snap.Equal(Compute(g)) {
		t.Fatal("post-race snapshot diverged from recount")
	}
}
