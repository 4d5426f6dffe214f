package compress

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

// checkInvariants validates the full bookkeeping of a maintained quotient:
// partition stability, membership consistency, and edge multiplicities.
func checkInvariants(t *testing.T, c *Compressed) {
	t.Helper()
	// Every live source node in exactly one block.
	seen := map[graph.NodeID]bool{}
	for _, b := range c.Graph().Nodes() {
		ms := c.Members(b)
		if len(ms) == 0 {
			t.Fatalf("block %d has no members", b)
		}
		sig := ""
		for i, v := range ms {
			if seen[v] {
				t.Fatalf("node %d in two blocks", v)
			}
			seen[v] = true
			if c.BlockOf(v) != b {
				t.Fatalf("BlockOf(%d) = %d, want %d", v, c.BlockOf(v), b)
			}
			s := c.memberSuccSig(v)
			if i == 0 {
				sig = s
			} else if s != sig {
				t.Fatalf("block %d unstable after maintenance", b)
			}
		}
	}
	if len(seen) != c.src.NumNodes() {
		t.Fatalf("blocks cover %d of %d nodes", len(seen), c.src.NumNodes())
	}
	// Edge multiplicities must equal a fresh count.
	fresh := map[[2]graph.NodeID]int{}
	c.src.ForEachEdge(func(e graph.Edge) {
		fresh[[2]graph.NodeID{c.BlockOf(e.From), c.BlockOf(e.To)}]++
	})
	if len(fresh) != len(c.edgeCnt) {
		t.Fatalf("edgeCnt has %d entries, recount has %d", len(c.edgeCnt), len(fresh))
	}
	for k, n := range fresh {
		if c.edgeCnt[k] != n {
			t.Fatalf("edgeCnt[%v] = %d, want %d", k, c.edgeCnt[k], n)
		}
		if !c.Graph().HasEdge(k[0], k[1]) {
			t.Fatalf("quotient missing edge %v", k)
		}
	}
	if c.Graph().NumEdges() != len(fresh) {
		t.Fatalf("quotient has %d edges, want %d", c.Graph().NumEdges(), len(fresh))
	}
}

func TestMaintainPaperE1(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	c := CompressWithView(g, Bisimulation, View{"experience"})
	e1 := dataset.E1(p)
	if err := c.Maintain([]Update{Insert(e1.From, e1.To)}); err != nil {
		t.Fatalf("Maintain: %v", err)
	}
	checkInvariants(t, c)
	direct := bsim.Compute(g, q)
	expanded := c.Decompress(bsim.Compute(c.Graph(), q))
	if !expanded.Equal(direct) {
		t.Errorf("maintained quotient gives wrong matches:\n%v\nvs\n%v", expanded, direct)
	}
}

func TestMaintainSplitsOnDivergence(t *testing.T) {
	// Two twins in one block; adding an out-edge to one forces a split.
	g := graph.New(3)
	a := g.AddNode("X", nil)
	b := g.AddNode("X", nil)
	tgt := g.AddNode("T", nil)
	c := Compress(g, Bisimulation)
	if c.BlockOf(a) != c.BlockOf(b) {
		t.Fatal("twins should start merged")
	}
	if err := c.Maintain([]Update{Insert(a, tgt)}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if c.BlockOf(a) == c.BlockOf(b) {
		t.Error("divergent twins should split")
	}
}

func TestMaintainCascadesToPredecessors(t *testing.T) {
	// p1 -> a, p2 -> b, twins a,b; splitting a/b must also split p1/p2.
	g := graph.New(5)
	p1 := g.AddNode("P", nil)
	p2 := g.AddNode("P", nil)
	a := g.AddNode("X", nil)
	b := g.AddNode("X", nil)
	tgt := g.AddNode("T", nil)
	if err := g.AddEdge(p1, a); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(p2, b); err != nil {
		t.Fatal(err)
	}
	c := Compress(g, Bisimulation)
	if c.BlockOf(p1) != c.BlockOf(p2) {
		t.Fatal("predecessors should start merged")
	}
	if err := c.Maintain([]Update{Insert(a, tgt)}); err != nil {
		t.Fatal(err)
	}
	checkInvariants(t, c)
	if c.BlockOf(a) == c.BlockOf(b) {
		t.Error("twins should split")
	}
	if c.BlockOf(p1) == c.BlockOf(p2) {
		t.Error("split must cascade to predecessors")
	}
}

func TestMaintainRejectsSimEq(t *testing.T) {
	g, p := dataset.PaperGraph()
	c := Compress(g, SimulationEquivalence)
	err := c.Maintain([]Update{Insert(p.Fred, p.Pat)})
	if !errors.Is(err, ErrNoMaintenance) {
		t.Errorf("err = %v, want ErrNoMaintenance", err)
	}
}

func TestMaintainRejectsStale(t *testing.T) {
	g, p := dataset.PaperGraph()
	c := Compress(g, Bisimulation)
	if err := g.AddEdge(p.Fred, p.Pat); err != nil {
		t.Fatal(err)
	}
	err := c.Maintain([]Update{Delete(p.Fred, p.Pat)})
	if !errors.Is(err, ErrStale) {
		t.Errorf("err = %v, want ErrStale", err)
	}
}

func TestRebuildRecoarsens(t *testing.T) {
	// Insert then delete an edge: maintenance may leave the partition
	// finer than necessary; Rebuild must restore the original block count.
	g := graph.New(3)
	a := g.AddNode("X", nil)
	g.AddNode("X", nil)
	tgt := g.AddNode("T", nil)
	c := Compress(g, Bisimulation)
	before := c.Graph().NumNodes()
	if err := c.Maintain([]Update{Insert(a, tgt)}); err != nil {
		t.Fatal(err)
	}
	if err := c.Maintain([]Update{Delete(a, tgt)}); err != nil {
		t.Fatal(err)
	}
	// Still correct (possibly finer).
	checkInvariants(t, c)
	c.Rebuild()
	checkInvariants(t, c)
	if c.Graph().NumNodes() != before {
		t.Errorf("Rebuild block count = %d, want %d", c.Graph().NumNodes(), before)
	}
}

func TestRebuildPreservesView(t *testing.T) {
	// Regression: Rebuild must re-coarsen under the quotient's original
	// attribute view, not the full-attribute default. Two leaves share
	// everything except the non-viewed "name" attribute.
	g := graph.New(3)
	hub := g.AddNode("H", graph.Attrs{"name": graph.String("hub")})
	l1 := g.AddNode("X", graph.Attrs{"name": graph.String("a"), "experience": graph.Int(3)})
	l2 := g.AddNode("X", graph.Attrs{"name": graph.String("b"), "experience": graph.Int(3)})
	if err := g.AddEdge(hub, l1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(hub, l2); err != nil {
		t.Fatal(err)
	}
	c := CompressWithView(g, Bisimulation, View{"experience"})
	before := c.Graph().NumNodes()
	if before != 2 {
		t.Fatalf("view quotient should merge the twin leaves (got %d blocks)", before)
	}
	c.Rebuild()
	if c.Graph().NumNodes() != before {
		t.Errorf("Rebuild blocks = %d, want %d (view lost?)", c.Graph().NumNodes(), before)
	}
	if c.AttrView() == nil {
		t.Error("Rebuild dropped the attribute view")
	}
}

// The central maintenance property: after any random update batch, the
// maintained quotient still answers bounded simulation queries exactly, and
// all internal invariants hold.
func TestQuickMaintainPreservesQueries(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 20, 50)
		q := testutil.RandomPattern(r, 1+r.Intn(3))
		c := Compress(g, Bisimulation)
		mirror := g.Clone()
		ops := testutil.RandomOps(r, mirror, 12)
		batch := make([]Update, len(ops))
		for i, op := range ops {
			batch[i] = Update{Insert: op.Insert, From: op.From, To: op.To}
		}
		if err := c.Maintain(batch); err != nil {
			return false
		}
		if !g.Equal(mirror) {
			return false
		}
		direct := bsim.Compute(g, q)
		expanded := c.Decompress(bsim.Compute(c.Graph(), q))
		return expanded.Equal(direct)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Invariant-focused variant with many sequential unit updates.
func TestMaintainManySequentialUpdates(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(r, 25, 60)
	c := Compress(g, Bisimulation)
	mirror := g.Clone()
	for i := 0; i < 40; i++ {
		ops := testutil.RandomOps(r, mirror, 1)
		if err := c.Maintain([]Update{{Insert: ops[0].Insert, From: ops[0].From, To: ops[0].To}}); err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		checkInvariants(t, c)
	}
	if !g.Equal(mirror) {
		t.Error("maintained graph diverged from mirror")
	}
}

// TestMaintenanceIsDeterministic: the same quotient fed the same updates
// assigns every node the same block and ends with the same quotient edges.
func TestMaintenanceIsDeterministic(t *testing.T) {
	g, err := generator.Collaboration(generator.Config{Nodes: 600, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var batches [][]Update
	writes := testutil.NewEdgeStream(g.Clone(), 5)
	for i := 0; i < 50; i++ {
		batches = append(batches, writes.Batch(16))
	}
	run := func() *Compressed {
		src := g.Clone()
		c := CompressWithView(src, Bisimulation, View{"experience"})
		for _, ops := range batches {
			if err := c.Maintain(ops); err != nil {
				t.Fatal(err)
			}
		}
		return c
	}
	a, b := run(), run()
	for _, v := range g.Nodes() {
		if a.BlockOf(v) != b.BlockOf(v) {
			t.Fatalf("node %d: block %d in one run, %d in the other", v, a.BlockOf(v), b.BlockOf(v))
		}
	}
	if ea, eb := a.Graph().Edges(), b.Graph().Edges(); !reflect.DeepEqual(ea, eb) {
		t.Fatalf("quotient edges differ: %d vs %d", len(ea), len(eb))
	}
	checkInvariants(t, a)
}
