package incremental

import (
	"errors"
	"math/rand"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

// These tests pin the node-level repair paths every standing query in the
// engine relies on — node removals and attribute changes arriving in the
// middle of an edge update stream — and the ErrStale signal that tells a
// coordinator the matcher can no longer be repaired in place.

// removeNodeLikeEngine replays the engine's node-removal sequence against
// a lone matcher: detach incident edges through the coordinated Sync
// path, clear the node's candidacy, drop the node, refresh the version.
func removeNodeLikeEngine(t *testing.T, g *graph.Graph, m *Matcher, id graph.NodeID) {
	t.Helper()
	var ops []Update
	for _, v := range g.Out(id) {
		ops = append(ops, Delete(id, v))
	}
	for _, u := range g.In(id) {
		if u != id {
			ops = append(ops, Delete(u, id))
		}
	}
	for _, op := range ops {
		if err := g.RemoveEdge(op.From, op.To); err != nil {
			t.Fatalf("detach %+v: %v", op, err)
		}
	}
	if _, _, err := m.Sync(ops); err != nil {
		t.Fatalf("sync detach: %v", err)
	}
	m.SyncNodeRemoving(id)
	if err := g.RemoveNode(id); err != nil {
		t.Fatal(err)
	}
	m.RefreshVersion()
}

// randomStream builds nOps feasible edge updates against scratch.
func randomStream(r *rand.Rand, scratch *graph.Graph, nOps int) []Update {
	nodes := scratch.Nodes()
	var ops []Update
	for len(ops) < nOps {
		u := nodes[r.Intn(len(nodes))]
		v := nodes[r.Intn(len(nodes))]
		if u == v {
			continue
		}
		if scratch.HasEdge(u, v) {
			if scratch.RemoveEdge(u, v) == nil {
				ops = append(ops, Delete(u, v))
			}
		} else if scratch.AddEdge(u, v) == nil {
			ops = append(ops, Insert(u, v))
		}
	}
	return ops
}

// TestNodeRemovalMidStream interleaves node removals with edge churn and
// checks the maintained relation equals a batch recomputation after every
// step — the exactness subscribers depend on, since the engine repairs
// standing queries through coordinated removals instead of recomputing.
func TestNodeRemovalMidStream(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(400 + trial)))
		g := testutil.RandomGraph(r, 50, 220)
		q := testutil.RandomPattern(r, 3)
		m := NewMatcher(g, q)
		for round := 0; round < 8; round++ {
			if round%3 == 2 {
				nodes := g.Nodes()
				removeNodeLikeEngine(t, g, m, nodes[r.Intn(len(nodes))])
			} else {
				ops := randomStream(r, g.Clone(), 1+r.Intn(5))
				if _, _, err := m.Apply(ops); err != nil {
					t.Fatalf("trial %d round %d: %v", trial, round, err)
				}
			}
			if want := bsim.Compute(g, q); !m.Relation().Equal(want) {
				t.Fatalf("trial %d round %d: relation diverged\n got %v\nwant %v",
					trial, round, m.Relation(), want)
			}
		}
	}
}

// TestAttrChangeMidStream interleaves attribute flips with edge churn,
// checking both the maintained relation and the exactness of the reported
// deltas.
func TestAttrChangeMidStream(t *testing.T) {
	for trial := 0; trial < 10; trial++ {
		r := rand.New(rand.NewSource(int64(600 + trial)))
		g := testutil.RandomGraph(r, 50, 220)
		q := testutil.RandomPattern(r, 3)
		m := NewMatcher(g, q)
		for round := 0; round < 8; round++ {
			before := m.Relation()
			if round%2 == 1 {
				nodes := g.Nodes()
				id := nodes[r.Intn(len(nodes))]
				if err := g.SetAttr(id, "experience", graph.Int(int64(r.Intn(10)))); err != nil {
					t.Fatal(err)
				}
				if _, _, err := m.SyncAttrChanged(id); err != nil {
					t.Fatal(err)
				}
			} else {
				ops := randomStream(r, g.Clone(), 1+r.Intn(5))
				if _, _, err := m.Apply(ops); err != nil {
					t.Fatal(err)
				}
			}
			after := m.Relation()
			if want := bsim.Compute(g, q); !after.Equal(want) {
				t.Fatalf("trial %d round %d: relation diverged", trial, round)
			}
			// The normalized diff of snapshots must replay cleanly — this
			// is exactly how subscription deltas are derived.
			added, removed := before.Diff(after)
			replay := before.Clone()
			for _, p := range removed {
				replay.Remove(p.PNode, p.Node)
			}
			for _, p := range added {
				replay.Add(p.PNode, p.Node)
			}
			if !replay.Equal(after) {
				t.Fatalf("trial %d round %d: snapshot diff does not replay", trial, round)
			}
		}
	}
}

// TestStaleMatcherSignalsRecompute pins the contract behind the engine's
// rebuild fallback: a graph mutated outside the matcher's coordinated
// paths refuses further Apply calls with ErrStale, and a rebuilt matcher
// restores the exact relation.
func TestStaleMatcherSignalsRecompute(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	g := testutil.RandomGraph(r, 40, 160)
	q := testutil.RandomPattern(r, 3)
	m := NewMatcher(g, q)

	// Uncoordinated mutation: the version moves, the matcher must balk.
	nodes := g.Nodes()
	if err := g.SetAttr(nodes[0], "experience", graph.Int(9)); err != nil {
		t.Fatal(err)
	}
	ops := randomStream(r, g.Clone(), 3)
	if _, _, err := m.Apply(ops); !errors.Is(err, ErrStale) {
		t.Fatalf("stale Apply: err = %v, want ErrStale", err)
	}

	// The fallback: rebuild from the current graph and continue streaming.
	m = NewMatcher(g, q)
	if _, _, err := m.Apply(ops); err != nil {
		t.Fatal(err)
	}
	if want := bsim.Compute(g, q); !m.Relation().Equal(want) {
		t.Fatalf("rebuilt matcher diverged:\n got %v\nwant %v", m.Relation(), want)
	}
}
