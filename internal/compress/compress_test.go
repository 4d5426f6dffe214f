package compress

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/pattern"
	"expfinder/internal/simulation"
	"expfinder/internal/testutil"
)

func TestBisimQuotientSmallerNeverLarger(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	g := testutil.RandomGraph(r, 40, 100)
	c := Compress(g, Bisimulation)
	if c.Graph().NumNodes() > g.NumNodes() {
		t.Errorf("quotient has more nodes (%d) than source (%d)", c.Graph().NumNodes(), g.NumNodes())
	}
	if c.Ratio() < 0 {
		t.Errorf("Ratio = %v < 0", c.Ratio())
	}
}

func TestBlocksPartitionTheGraph(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	g := testutil.RandomGraph(r, 30, 80)
	c := Compress(g, Bisimulation)
	seen := map[graph.NodeID]bool{}
	for _, b := range c.Graph().Nodes() {
		for _, v := range c.Members(b) {
			if seen[v] {
				t.Fatalf("node %d appears in two blocks", v)
			}
			seen[v] = true
			if c.BlockOf(v) != b {
				t.Fatalf("BlockOf(%d) = %d, want %d", v, c.BlockOf(v), b)
			}
		}
	}
	if len(seen) != g.NumNodes() {
		t.Errorf("blocks cover %d nodes, want %d", len(seen), g.NumNodes())
	}
}

func TestBisimBlocksShareSignature(t *testing.T) {
	// Stability: all members of a block must have identical successor
	// block sets and identical attribute signatures.
	r := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(r, 35, 90)
	c := Compress(g, Bisimulation)
	sigs := newSigKeys(nil)
	for _, b := range c.Graph().Nodes() {
		ms := c.Members(b)
		want := ""
		for i, v := range ms {
			sig := c.memberSuccSig(v)
			if i == 0 {
				want = sig
				continue
			}
			if sig != want {
				t.Fatalf("block %d members disagree on successor signature: %q vs %q", b, want, sig)
			}
		}
		// Attribute signature.
		wantAttr := ""
		for i, v := range ms {
			n := g.MustNode(v)
			sig := string(sigs.of(n))
			if i == 0 {
				wantAttr = sig
			} else if sig != wantAttr {
				t.Fatalf("block %d members disagree on attributes", b)
			}
		}
	}
}

func TestPaperFredPatMergeUnderLabelView(t *testing.T) {
	// The demo's example: Fred and Pat (both DBAs who collaborate with ST
	// and BA people) are equivalent when queries only test the field label.
	g, p := dataset.PaperGraph()
	c := CompressWithView(g, SimulationEquivalence, View{})
	if c.BlockOf(p.Fred) != c.BlockOf(p.Pat) {
		t.Errorf("Fred (block %d) and Pat (block %d) should merge under the label view",
			c.BlockOf(p.Fred), c.BlockOf(p.Pat))
	}
	if c.Graph().NumNodes() >= g.NumNodes() {
		t.Errorf("label-view quotient did not shrink: %d vs %d", c.Graph().NumNodes(), g.NumNodes())
	}
}

func TestViewCompatibility(t *testing.T) {
	q := dataset.PaperQuery() // tests label and experience
	if !(View)(nil).Compatible(q) {
		t.Error("nil view must be compatible with everything")
	}
	if !(View{"experience"}).Compatible(q) {
		t.Error("experience view should cover the paper query")
	}
	if (View{}).Compatible(q) {
		t.Error("label-only view must reject the paper query (tests experience)")
	}
	if (View{"specialty"}).Compatible(q) {
		t.Error("specialty view must reject the paper query")
	}
}

func TestDecompressPaperQuery(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	direct := bsim.Compute(g, q)

	c := CompressWithView(g, Bisimulation, View{"experience"})
	if !c.AttrView().Compatible(q) {
		t.Fatal("view should be compatible")
	}
	onQuotient := bsim.Compute(c.Graph(), q)
	expanded := c.Decompress(onQuotient)
	if !expanded.Equal(direct) {
		t.Errorf("compressed evaluation differs:\ndirect   %v\nexpanded %v", direct, expanded)
	}
}

// The central correctness property for bisimulation quotients: bounded
// simulation on the quotient + decompression equals direct evaluation.
func TestQuickBisimPreservesBoundedSimulation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 25, 70)
		q := testutil.RandomPattern(r, 1+r.Intn(3))
		c := Compress(g, Bisimulation)
		direct := bsim.Compute(g, q)
		expanded := c.Decompress(bsim.Compute(c.Graph(), q))
		return expanded.Equal(direct)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Simulation-equivalence quotients preserve plain simulation queries.
func TestQuickSimEqPreservesSimulation(t *testing.T) {
	cfg := &quick.Config{MaxCount: 40}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 20, 55)
		q := testutil.RandomSimPattern(r, 1+r.Intn(3))
		c := Compress(g, SimulationEquivalence)
		direct := simulation.Compute(g, q)
		expanded := c.Decompress(simulation.Compute(c.Graph(), q))
		return expanded.Equal(direct)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Simulation equivalence is at least as coarse as bisimulation: it never
// produces more blocks.
func TestQuickSimEqCoarserThanBisim(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 20, 50)
		bi := Compress(g, Bisimulation)
		se := Compress(g, SimulationEquivalence)
		return se.Graph().NumNodes() <= bi.Graph().NumNodes()
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// TestSimEqAllocBoundedByGroups pins the preorder's memory to the
// signature groups: each node's simulator set has one bit per member of
// its group, not one per node id. At 3,000 collab nodes under the label
// view, sets sized by node id allocated 13.5 MB; group-sized sets
// allocate under 2 MB.
func TestSimEqAllocBoundedByGroups(t *testing.T) {
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 3000, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c := CompressWithView(g, SimulationEquivalence, View{})
	runtime.ReadMemStats(&after)
	if c.Graph().NumNodes() != 1020 {
		t.Errorf("blocks = %d, want 1020", c.Graph().NumNodes())
	}
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / 1e6; mb > 4 {
		t.Errorf("simulation-equivalence compression allocated %.1f MB, want at most 4", mb)
	}
}

func TestCompressEmptyGraph(t *testing.T) {
	g := graph.New(0)
	c := Compress(g, Bisimulation)
	if c.Graph().NumNodes() != 0 || c.Ratio() != 0 {
		t.Errorf("empty graph quotient: n=%d ratio=%v", c.Graph().NumNodes(), c.Ratio())
	}
}

func TestQuotientSelfLoopsRepresentIntraBlockEdges(t *testing.T) {
	// Two identical nodes on a 2-cycle collapse into one block with a
	// self-loop, preserving cycle semantics for pattern self-edges.
	g := graph.New(2)
	a := g.AddNode("X", nil)
	b := g.AddNode("X", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(b, a); err != nil {
		t.Fatal(err)
	}
	c := Compress(g, Bisimulation)
	if c.Graph().NumNodes() != 1 {
		t.Fatalf("2-cycle of twins should collapse to 1 block, got %d", c.Graph().NumNodes())
	}
	blk := c.Graph().Nodes()[0]
	if !c.Graph().HasEdge(blk, blk) {
		t.Error("intra-block edges must become a quotient self-loop")
	}
	// A pattern self-edge still matches through the quotient.
	q := pattern.New()
	x := q.MustAddNode("X", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("X")))
	q.MustAddEdge(x, x, 2)
	if err := q.SetOutput(x); err != nil {
		t.Fatal(err)
	}
	direct := bsim.Compute(g, q)
	expanded := c.Decompress(bsim.Compute(c.Graph(), q))
	if !expanded.Equal(direct) {
		t.Errorf("self-loop quotient broke self-edge pattern: %v vs %v", expanded, direct)
	}
}

// TestBisimBuildAllocsAndIdentity pins the bisimulation build on a
// 12,000-node collab graph over the experience view: its quotient and
// every node's block are byte for byte what the build wrote when it keyed
// refinement rounds with fmt strings, and it allocates under a third of
// the 479,059 times that build did.
func TestBisimBuildAllocsAndIdentity(t *testing.T) {
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 12000, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	view := View{"experience"}
	c := CompressWithView(g, Bisimulation, view)
	qj, err := c.Graph().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write(qj)
	g.ForEachNode(func(n graph.Node) { fmt.Fprintf(h, "%d>%d;", n.ID, c.BlockOf(n.ID)) })
	if got, want := hex.EncodeToString(h.Sum(nil)), "aeab8a28700c477e7ed712f4a6430099e77a96be9ef4ca2b637eed81f58c9c61"; got != want {
		t.Errorf("quotient fingerprint %s, want %s (%d blocks)", got, want, c.Graph().NumNodes())
	}
	if testutil.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	if n := testing.AllocsPerRun(1, func() { CompressWithView(g, Bisimulation, view) }); n > 479059/3 {
		t.Errorf("bisimulation build allocated %.0f times, want at most %d", n, 479059/3)
	}
}
