package graph

import (
	"errors"
	"testing"
)

// buildDiamond returns a small DAG: a->b, a->c, b->d, c->d.
func buildDiamond(t *testing.T) (*Graph, [4]NodeID) {
	t.Helper()
	g := New(4)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	c := g.AddNode("C", nil)
	d := g.AddNode("D", nil)
	for _, e := range [][2]NodeID{{a, b}, {a, c}, {b, d}, {c, d}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", e[0], e[1], err)
		}
	}
	return g, [4]NodeID{a, b, c, d}
}

func TestAddNodeAssignsDenseIDs(t *testing.T) {
	g := New(0)
	for i := 0; i < 10; i++ {
		if id := g.AddNode("L", nil); id != NodeID(i) {
			t.Fatalf("AddNode #%d returned id %d", i, id)
		}
	}
	if g.NumNodes() != 10 {
		t.Fatalf("NumNodes = %d, want 10", g.NumNodes())
	}
}

func TestAddEdgeRejectsDuplicatesAndSelfLoops(t *testing.T) {
	g := New(2)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("first AddEdge: %v", err)
	}
	if err := g.AddEdge(a, b); !errors.Is(err, ErrDupEdge) {
		t.Errorf("duplicate AddEdge err = %v, want ErrDupEdge", err)
	}
	if err := g.AddEdge(a, 99); !errors.Is(err, ErrNoNode) {
		t.Errorf("bad node AddEdge err = %v, want ErrNoNode", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
}

func TestSelfLoops(t *testing.T) {
	// Quotient graphs need self-loops; they must behave under traversal,
	// removal, and reachability.
	g := New(2)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if err := g.AddEdge(a, a); err != nil {
		t.Fatalf("self-loop AddEdge: %v", err)
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(a, a) || g.NumEdges() != 2 {
		t.Fatal("self-loop not recorded")
	}
	if d := g.Distance(a, a); d != 1 {
		t.Errorf("Distance(a,a) with self-loop = %d, want 1", d)
	}
	ball := g.OutBall(a, 3)
	if ball.Dist[a] != 1 {
		t.Errorf("self-loop missing from out-ball: %v", ball.Dist)
	}
	if g.Distance(b, b) != Unreachable {
		t.Error("plain node must not reach itself")
	}
	// Removing the node removes both edges.
	if err := g.RemoveNode(a); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Errorf("NumEdges after removing self-loop node = %d", g.NumEdges())
	}
	// Removing a self-loop edge alone also works.
	g2 := New(1)
	x := g2.AddNode("X", nil)
	if err := g2.AddEdge(x, x); err != nil {
		t.Fatal(err)
	}
	if err := g2.RemoveEdge(x, x); err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 0 {
		t.Error("self-loop not removed")
	}
}

func TestRemoveEdge(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.RemoveEdge(ids[0], ids[1]); err != nil {
		t.Fatalf("RemoveEdge: %v", err)
	}
	if g.HasEdge(ids[0], ids[1]) {
		t.Error("edge still present after RemoveEdge")
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if err := g.RemoveEdge(ids[0], ids[1]); !errors.Is(err, ErrNoEdge) {
		t.Errorf("second RemoveEdge err = %v, want ErrNoEdge", err)
	}
}

func TestRemoveNodeDropsIncidentEdges(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.RemoveNode(ids[1]); err != nil { // b: a->b, b->d
		t.Fatalf("RemoveNode: %v", err)
	}
	if g.Has(ids[1]) {
		t.Error("node still live after RemoveNode")
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Errorf("(n,m) = (%d,%d), want (3,2)", g.NumNodes(), g.NumEdges())
	}
	if g.HasEdge(ids[0], ids[1]) || g.HasEdge(ids[1], ids[3]) {
		t.Error("incident edges survived RemoveNode")
	}
	// The tombstoned id must not be resurrected by new nodes.
	fresh := g.AddNode("X", nil)
	if fresh == ids[1] {
		t.Error("tombstoned id was reused")
	}
}

func TestVersionBumpsOnEveryMutation(t *testing.T) {
	g := New(0)
	v0 := g.Version()
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if g.Version() == v0 {
		t.Error("AddNode did not bump version")
	}
	v1 := g.Version()
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if g.Version() == v1 {
		t.Error("AddEdge did not bump version")
	}
	v2 := g.Version()
	if err := g.SetAttr(a, "k", Int(1)); err != nil {
		t.Fatal(err)
	}
	if g.Version() == v2 {
		t.Error("SetAttr did not bump version")
	}
}

func TestOutInAdjacencyConsistency(t *testing.T) {
	g, ids := buildDiamond(t)
	if got := len(g.Out(ids[0])); got != 2 {
		t.Errorf("OutDegree(a) = %d, want 2", got)
	}
	if got := len(g.In(ids[3])); got != 2 {
		t.Errorf("InDegree(d) = %d, want 2", got)
	}
	// Every out-edge must have a matching in-edge.
	g.ForEachEdge(func(e Edge) {
		found := false
		for _, u := range g.In(e.To) {
			if u == e.From {
				found = true
			}
		}
		if !found {
			t.Errorf("edge %v missing from reverse adjacency", e)
		}
	})
}

func TestCloneIsDeep(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.SetAttr(ids[0], "exp", Int(7)); err != nil {
		t.Fatal(err)
	}
	c := g.Clone()
	if !g.Equal(c) {
		t.Fatal("clone not Equal to original")
	}
	// Mutate the clone; the original must not change.
	if err := c.SetAttr(ids[0], "exp", Int(3)); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveEdge(ids[0], ids[1]); err != nil {
		t.Fatal(err)
	}
	if v, _ := g.Attr(ids[0], "exp"); v.IntVal() != 7 {
		t.Error("clone mutation leaked into original attrs")
	}
	if !g.HasEdge(ids[0], ids[1]) {
		t.Error("clone mutation leaked into original edges")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	g1, _ := buildDiamond(t)
	g2, ids := buildDiamond(t)
	if !g1.Equal(g2) {
		t.Fatal("identical graphs not Equal")
	}
	if err := g2.SetAttr(ids[2], "x", Bool(true)); err != nil {
		t.Fatal(err)
	}
	if g1.Equal(g2) {
		t.Error("Equal ignored attribute difference")
	}
	g3, ids3 := buildDiamond(t)
	if err := g3.RemoveEdge(ids3[2], ids3[3]); err != nil {
		t.Fatal(err)
	}
	if err := g3.AddEdge(ids3[3], ids3[2]); err != nil {
		t.Fatal(err)
	}
	if g1.Equal(g3) {
		t.Error("Equal ignored edge direction difference")
	}
}

func TestNodeLookupOnTombstone(t *testing.T) {
	g, ids := buildDiamond(t)
	if err := g.RemoveNode(ids[2]); err != nil {
		t.Fatal(err)
	}
	if _, ok := g.Node(ids[2]); ok {
		t.Error("Node returned a tombstone")
	}
	if g.Label(ids[2]) != "" {
		t.Error("Label returned data for tombstone")
	}
	if err := g.SetAttr(ids[2], "k", Int(1)); !errors.Is(err, ErrNoNode) {
		t.Errorf("SetAttr on tombstone err = %v, want ErrNoNode", err)
	}
}

func TestComputeStats(t *testing.T) {
	g, _ := buildDiamond(t)
	st := g.ComputeStats()
	if st.Nodes != 4 || st.Edges != 4 {
		t.Errorf("stats (n,m) = (%d,%d), want (4,4)", st.Nodes, st.Edges)
	}
	if st.MaxOutDeg != 2 || st.MaxInDeg != 2 {
		t.Errorf("stats degrees = (%d,%d), want (2,2)", st.MaxOutDeg, st.MaxInDeg)
	}
	if st.Labels["A"] != 1 || st.Labels["D"] != 1 {
		t.Errorf("stats labels = %v", st.Labels)
	}
}

func TestEdgesDeterministicOrder(t *testing.T) {
	g, _ := buildDiamond(t)
	e1 := g.Edges()
	e2 := g.Edges()
	if len(e1) != len(e2) {
		t.Fatal("Edges length changed between calls")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("Edges order unstable at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}
