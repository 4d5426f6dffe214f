package stats

import (
	"math/rand"
	"sync"
	"testing"

	"expfinder/internal/generator"
	"expfinder/internal/graph"
)

// applyBatch applies ops to the graph one by one; on the first failure
// the applied prefix rolls back (content unchanged, version advanced)
// and the stats are left stale. On success the stats Sync exactly the
// applied ops.
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
			return false
		}
	}
	st.Sync(g, ops)
	return true
}

var testLabels = []string{"HR", "AI", "DB", "SE", "Bio"}

// TestIncrementalMatchesRecount drives random edge-batch streams (some
// failing mid-batch and rolling back) through Sync and checks after
// every step that the snapshot equals a from-scratch recount. Some
// batches touch one node several times, an insert and a delete of the
// same edge included, so Sync must net each node's ops. Sync
// keeps the counters fresh; only a rollback, which moves the version
// without a Sync, costs the next read a recount.
func TestIncrementalMatchesRecount(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		g := graph.New(0)
		var alive []graph.NodeID
		for i := 0; i < 20; i++ {
			alive = append(alive, g.AddNode(testLabels[r.Intn(len(testLabels))], nil))
		}
		st := NewGraph(g)
		pick := func() graph.NodeID { return alive[r.Intn(len(alive))] }
		rollbacks, repeats, stale := 0, 0, 0
		for step := 0; step < 200; step++ {
			before := g.Version()
			var ops []Update
			if r.Intn(12) == 0 {
				// A batch built to fail mid-way: a valid insert followed by
				// its duplicate — exercises the rollback path.
				from, to := pick(), pick()
				ops = []Update{{Insert: true, From: from, To: to}, {Insert: true, From: from, To: to}}
				rollbacks++
			} else if r.Intn(4) == 0 {
				// One node touched several times in one batch: a fresh edge
				// inserted and deleted again, then more edges out of and
				// into the same node, so its ±1s net over the batch.
				hub := pick()
				to := pick()
				for g.HasEdge(hub, to) {
					to = pick()
				}
				ops = []Update{{Insert: true, From: hub, To: to}, {Insert: false, From: hub, To: to}}
				for i := 1 + r.Intn(3); i > 0; i-- {
					if other := pick(); r.Intn(2) == 0 {
						ops = append(ops, Update{Insert: !g.HasEdge(hub, other), From: hub, To: other})
					} else {
						ops = append(ops, Update{Insert: !g.HasEdge(other, hub), From: other, To: hub})
					}
				}
				repeats++
			} else {
				for i := 1 + r.Intn(4); i > 0; i-- {
					ops = append(ops, Update{Insert: r.Intn(3) > 0, From: pick(), To: pick()})
				}
			}
			if !applyBatch(g, st, ops) && g.Version() != before {
				stale++
			}
			snap := st.Snapshot(g)
			if want := Compute(g); !snap.Equal(want) {
				t.Fatalf("seed %d step %d: incremental snapshot diverged from recount\n got: %+v\nwant: %+v",
					seed, step, snap, want)
			}
		}
		if rollbacks == 0 || repeats == 0 {
			t.Fatalf("seed %d: %d rollbacks, %d repeated-node batches; want both", seed, rollbacks, repeats)
		}
		// The recounts are NewGraph's and one per batch that moved the
		// version and then rolled back.
		if n := st.Rebuilds(); n != uint64(1+stale) {
			t.Fatalf("seed %d: %d rebuilds, want %d", seed, n, 1+stale)
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
	var mu sync.RWMutex
	var ids []graph.NodeID
	for i := 0; i < 10; i++ {
		ids = append(ids, g.AddNode(testLabels[i%len(testLabels)], nil))
	}
	st := NewGraph(g)
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

// BenchmarkSync syncs a 16-edge insert batch and the batch deleting the
// same edges on a 2,000-node collaboration graph, the batch size the
// ingest benchmark replays. The graph holds the batch's edges throughout,
// so each iteration measures two Syncs and no graph write.
func BenchmarkSync(b *testing.B) {
	g, err := generator.Collaboration(generator.Config{Nodes: 2000, AvgDegree: 8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var ins, del []Update
	for len(ins) < 16 {
		from, to := graph.NodeID(r.Intn(2000)), graph.NodeID(r.Intn(2000))
		if from == to || g.HasEdge(from, to) {
			continue
		}
		if err := g.AddEdge(from, to); err != nil {
			b.Fatal(err)
		}
		ins = append(ins, Update{Insert: true, From: from, To: to})
		del = append(del, Update{From: from, To: to})
	}
	st := NewGraph(g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Sync(g, ins)
		st.Sync(g, del)
	}
}
