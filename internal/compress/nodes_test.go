package compress

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

func TestSyncNodeAddedCreatesSingleton(t *testing.T) {
	g, _ := dataset.PaperGraph()
	c := CompressWithView(g, Bisimulation, View{"experience"})
	before := c.Graph().NumNodes()
	id := g.AddNode("SD", graph.Attrs{"experience": graph.Int(3), "name": graph.String("New")})
	if err := c.SyncNodeAdded(id); err != nil {
		t.Fatal(err)
	}
	if c.Graph().NumNodes() != before+1 {
		t.Errorf("blocks = %d, want %d", c.Graph().NumNodes(), before+1)
	}
	if c.BlockOf(id) == graph.Invalid {
		t.Error("added node has no block")
	}
	checkInvariants(t, c)
}

func TestSyncNodeRemovingDropsEmptyBlock(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	c := CompressWithView(g, Bisimulation, View{"experience"})
	// Engine-style: detach Bill's edges, sync, then remove the node.
	var ops []Update
	for _, v := range g.Out(p.Bill) {
		ops = append(ops, Delete(p.Bill, v))
	}
	for _, u := range g.In(p.Bill) {
		ops = append(ops, Delete(u, p.Bill))
	}
	if err := c.Maintain(ops); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncNodeRemoving(p.Bill); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(p.Bill); err != nil {
		t.Fatal(err)
	}
	c.RefreshVersion()
	checkInvariants(t, c)
	// Queries stay exact.
	direct := bsim.Compute(g, q)
	if !c.Decompress(bsim.Compute(c.Graph(), q)).Equal(direct) {
		t.Error("quotient diverged after node removal")
	}
}

func TestSyncAttrChangedSplitsAndRefreshes(t *testing.T) {
	// Twin leaves under a hub; changing one twin's viewed attribute must
	// split the block and restabilize the hub's signature.
	g := graph.New(3)
	hub := g.AddNode("H", nil)
	l1 := g.AddNode("X", graph.Attrs{"experience": graph.Int(3)})
	l2 := g.AddNode("X", graph.Attrs{"experience": graph.Int(3)})
	if err := g.AddEdge(hub, l1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(hub, l2); err != nil {
		t.Fatal(err)
	}
	c := CompressWithView(g, Bisimulation, View{"experience"})
	if c.Graph().NumNodes() != 2 {
		t.Fatalf("setup: blocks = %d, want 2", c.Graph().NumNodes())
	}
	if err := g.SetAttr(l1, "experience", graph.Int(9)); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAttrChanged(l1, "experience"); err != nil {
		t.Fatal(err)
	}
	if c.BlockOf(l1) == c.BlockOf(l2) {
		t.Error("attribute divergence did not split the twins")
	}
	checkInvariants(t, c)
	// The quotient node for l1 carries the new attribute.
	n := c.Graph().MustNode(c.BlockOf(l1))
	if exp := n.Attrs["experience"]; exp.IntVal() != 9 {
		t.Errorf("quotient attrs stale: %v", exp)
	}
	// Singleton path: change it again; block count stays, attrs refresh.
	blocks := c.Graph().NumNodes()
	if err := g.SetAttr(l1, "experience", graph.Int(5)); err != nil {
		t.Fatal(err)
	}
	if err := c.SyncAttrChanged(l1, "experience"); err != nil {
		t.Fatal(err)
	}
	if c.Graph().NumNodes() != blocks {
		t.Error("singleton attr change altered block count")
	}
	checkInvariants(t, c)
}

// TestAttrOutsideViewSplitsNothing: writing an attribute the view does not
// distinguish leaves the blocks as they are; a viewed one still splits.
func TestAttrOutsideViewSplitsNothing(t *testing.T) {
	g := graph.New(3)
	hub := g.AddNode("H", nil)
	l1 := g.AddNode("X", graph.Attrs{"experience": graph.Int(3), "name": graph.String("a")})
	l2 := g.AddNode("X", graph.Attrs{"experience": graph.Int(3), "name": graph.String("b")})
	for _, v := range []graph.NodeID{l1, l2} {
		if err := g.AddEdge(hub, v); err != nil {
			t.Fatal(err)
		}
	}
	c := CompressWithView(g, Bisimulation, View{"experience"})
	if c.Graph().NumNodes() != 2 {
		t.Fatalf("setup: blocks = %d, want 2", c.Graph().NumNodes())
	}
	for _, w := range []struct {
		key    string
		val    graph.Value
		blocks int
	}{
		{"name", graph.String("c"), 2},
		{"experience", graph.Int(9), 3},
	} {
		if err := g.SetAttr(l1, w.key, w.val); err != nil {
			t.Fatal(err)
		}
		if err := c.SyncAttrChanged(l1, w.key); err != nil {
			t.Fatal(err)
		}
		if got := c.Graph().NumNodes(); got != w.blocks {
			t.Errorf("after a %s write: %d blocks, want %d", w.key, got, w.blocks)
		}
		if err := c.Maintain(nil); err != nil {
			t.Errorf("after a %s write: %v", w.key, err)
		}
		checkInvariants(t, c)
	}
}

func TestNodeOpsRejectedForSimEq(t *testing.T) {
	g, p := dataset.PaperGraph()
	c := Compress(g, SimulationEquivalence)
	if err := c.SyncNodeAdded(p.Bob); err != ErrNoMaintenance {
		t.Errorf("SyncNodeAdded err = %v", err)
	}
	if err := c.SyncNodeRemoving(p.Bob); err != ErrNoMaintenance {
		t.Errorf("SyncNodeRemoving err = %v", err)
	}
	if err := c.SyncAttrChanged(p.Bob, "experience"); err != ErrNoMaintenance {
		t.Errorf("SyncAttrChanged err = %v", err)
	}
}

// Property: random interleavings of node additions, attr changes, edge
// updates and removals keep the quotient exact and internally consistent.
func TestQuickNodeOpsKeepQuotientExact(t *testing.T) {
	cfg := &quick.Config{MaxCount: 15}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 15, 35)
		q := testutil.RandomPattern(r, 1+r.Intn(3))
		c := Compress(g, Bisimulation)
		for step := 0; step < 10; step++ {
			switch r.Intn(4) {
			case 0:
				id := g.AddNode(testutil.Labels[r.Intn(len(testutil.Labels))],
					graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))})
				if err := c.SyncNodeAdded(id); err != nil {
					return false
				}
			case 1:
				nodes := g.Nodes()
				id := nodes[r.Intn(len(nodes))]
				if err := g.SetAttr(id, "experience", graph.Int(int64(r.Intn(10)))); err != nil {
					return false
				}
				if err := c.SyncAttrChanged(id, "experience"); err != nil {
					return false
				}
			case 2:
				ops := testutil.RandomOps(r, g, 1)
				if err := c.Sync([]Update{{Insert: ops[0].Insert, From: ops[0].From, To: ops[0].To}}); err != nil {
					return false
				}
			case 3:
				nodes := g.Nodes()
				if len(nodes) < 5 {
					continue
				}
				id := nodes[r.Intn(len(nodes))]
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
						return false
					}
				}
				if err := c.Sync(ops); err != nil {
					return false
				}
				if err := c.SyncNodeRemoving(id); err != nil {
					return false
				}
				if err := g.RemoveNode(id); err != nil {
					return false
				}
				c.RefreshVersion()
			}
			direct := bsim.Compute(g, q)
			if !c.Decompress(bsim.Compute(c.Graph(), q)).Equal(direct) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}
