package graph

import "testing"

func TestEmptyGraphOperations(t *testing.T) {
	g := New(0)
	if g.NumNodes() != 0 || g.NumEdges() != 0 || g.MaxID() != 0 {
		t.Error("empty graph not empty")
	}
	if got := g.Nodes(); len(got) != 0 {
		t.Errorf("Nodes = %v", got)
	}
	if got := g.Edges(); len(got) != 0 {
		t.Errorf("Edges = %v", got)
	}
	st := g.ComputeStats()
	if st.Nodes != 0 || st.Edges != 0 || st.MaxOutDeg != 0 {
		t.Errorf("stats = %+v", st)
	}
	// Traversals on unknown nodes are safe no-ops.
	if d := g.Distance(0, 1); d != Unreachable {
		t.Errorf("Distance on empty = %d", d)
	}
	if b := g.OutBall(0, 3); len(b.Dist) != 0 {
		t.Errorf("OutBall on empty = %v", b.Dist)
	}
	if !g.Equal(New(0)) {
		t.Error("two empty graphs not Equal")
	}
}

func TestNegativeAndHugeIDs(t *testing.T) {
	g := New(1)
	g.AddNode("X", nil)
	if g.Has(-1) || g.Has(1<<20) {
		t.Error("Has accepted out-of-range ids")
	}
	if g.Label(-1) != "" {
		t.Error("Label on negative id")
	}
	if _, ok := g.Attr(-1, "x"); ok {
		t.Error("Attr on negative id")
	}
	if err := g.RemoveNode(-1); err != ErrNoNode {
		t.Errorf("RemoveNode(-1) err = %v", err)
	}
	if err := g.RemoveEdge(-1, 0); err != ErrNoNode {
		t.Errorf("RemoveEdge bad err = %v", err)
	}
}

func TestResetNode(t *testing.T) {
	g := New(2)
	a := g.AddNode("Old", Attrs{"k": Int(1)})
	b := g.AddNode("B", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	v0 := g.Version()
	if err := g.ResetNode(a, "New", Attrs{"j": String("x")}); err != nil {
		t.Fatal(err)
	}
	n := g.MustNode(a)
	if n.Label != "New" {
		t.Errorf("label = %q", n.Label)
	}
	if _, ok := n.Attrs["k"]; ok {
		t.Error("old attrs survived ResetNode")
	}
	if !g.HasEdge(a, b) {
		t.Error("ResetNode dropped edges")
	}
	if g.Version() == v0 {
		t.Error("ResetNode did not bump version")
	}
	if err := g.ResetNode(99, "X", nil); err != ErrNoNode {
		t.Errorf("ResetNode bad id err = %v", err)
	}
}

func TestMustNodePanicsOnTombstone(t *testing.T) {
	g := New(1)
	a := g.AddNode("X", nil)
	if err := g.RemoveNode(a); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNode did not panic on tombstone")
		}
	}()
	g.MustNode(a)
}

func TestForEachEdgeSkipsTombstoneEndpoints(t *testing.T) {
	g := New(3)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	c := g.AddNode("C", nil)
	for _, e := range [][2]NodeID{{a, b}, {b, c}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.RemoveNode(b); err != nil {
		t.Fatal(err)
	}
	count := 0
	g.ForEachEdge(func(Edge) { count++ })
	if count != 0 {
		t.Errorf("edges after removing middle node = %d, want 0", count)
	}
}
