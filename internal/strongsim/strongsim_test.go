package strongsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/graph"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

// chainVsCycle is the classic dual-simulation example: pattern A->B->A
// (cycle). Plain simulation lets an infinite chain ... -> a -> b -> a ...
// match; here a straight chain a1->b1->a2 matches B at b1 under simulation
// (b1 has successor a2 matching A... which needs successor matching B —
// fails eventually on finite chains) — instead we use in-degree: dual
// simulation rejects matches lacking required *parents*.
func TestDualRequiresParents(t *testing.T) {
	// Pattern: A -> B. Data: a -> b, plus an orphan b2 with no parent.
	g := graph.New(3)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	b2 := g.AddNode("B", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	q := pattern.New()
	qa := q.MustAddNode("A", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("A")))
	qb := q.MustAddNode("B", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("B")))
	q.MustAddEdge(qa, qb, 1)
	if err := q.SetOutput(qa); err != nil {
		t.Fatal(err)
	}
	// Plain (bounded) simulation keeps the orphan b2: B has no
	// out-obligations. Dual simulation rejects it: B requires an A parent.
	rel := bsim.Compute(g, q)
	if !rel.Has(qb, b2) {
		t.Fatal("setup: simulation should keep orphan b2")
	}
	dual := Dual(g, q)
	if dual.Has(qb, b2) {
		t.Error("dual simulation kept a B match with no A parent")
	}
	if !dual.Has(qa, a) || !dual.Has(qb, b) {
		t.Error("dual simulation lost the genuine match")
	}
}

func TestDualIsSubsetOfBoundedSimulation(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		g := testutil.RandomGraph(r, 20, 50)
		q := testutil.RandomPattern(r, 1+r.Intn(3))
		dual := Dual(g, q)
		sim := bsim.Compute(g, q)
		for _, p := range dual.Pairs() {
			if !sim.Has(p.PNode, p.Node) {
				t.Fatalf("trial %d: dual pair %v missing from bounded simulation", trial, p)
			}
		}
	}
}

func TestQuickDualMatchesNaive(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 18, 45)
		q := testutil.RandomPattern(r, 1+r.Intn(3))
		return Dual(g, q).Equal(DualNaive(g, q))
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestDualOnPaperGraph(t *testing.T) {
	// The Fig. 1 query under dual simulation: every pattern node gains
	// parent obligations. SA has no in-edges, so Bob/Walt keep matching;
	// SD now needs an SA ancestor within 2 OR an ST ancestor within 1 —
	// Pat has Eva->Pat (ST parent); Dan and Mat have Bob within 2.
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	dual := Dual(g, q)
	if dual.IsEmpty() {
		t.Fatal("dual simulation should still match Fig. 1")
	}
	sa, _ := q.Lookup("SA")
	if !dual.Has(sa, p.Bob) {
		t.Error("Bob lost under dual simulation")
	}
	// Dual is a subset of the bounded-simulation relation.
	sim := bsim.Compute(g, q)
	for _, pr := range dual.Pairs() {
		if !sim.Has(pr.PNode, pr.Node) {
			t.Errorf("dual pair %v not in bounded simulation", pr)
		}
	}
}

func TestDiameter(t *testing.T) {
	q := pattern.New()
	a := q.MustAddNode("A", pattern.Predicate{})
	b := q.MustAddNode("B", pattern.Predicate{})
	c := q.MustAddNode("C", pattern.Predicate{})
	q.MustAddEdge(a, b, 2)
	q.MustAddEdge(b, c, 3)
	if err := q.SetOutput(a); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(q, 3); d != 5 {
		t.Errorf("Diameter = %d, want 5 (2+3 undirected)", d)
	}
	// Unbounded edges use the cap.
	q2 := pattern.New()
	x := q2.MustAddNode("X", pattern.Predicate{})
	y := q2.MustAddNode("Y", pattern.Predicate{})
	q2.MustAddEdge(x, y, pattern.Unbounded)
	if err := q2.SetOutput(x); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(q2, 4); d != 4 {
		t.Errorf("Diameter with unbounded = %d, want 4", d)
	}
	// Single node: minimum radius 1.
	q3 := pattern.New()
	z := q3.MustAddNode("Z", pattern.Predicate{})
	if err := q3.SetOutput(z); err != nil {
		t.Fatal(err)
	}
	if d := Diameter(q3, 3); d != 1 {
		t.Errorf("Diameter of single node = %d, want 1", d)
	}
}

func TestStrongLocality(t *testing.T) {
	// Two disjoint regions: a genuine team and a far-away fake that only
	// matches via long-range composition. Pattern A->B (bound 1), diameter
	// 1: strong simulation must produce the local team only.
	g := graph.New(4)
	a1 := g.AddNode("A", nil)
	b1 := g.AddNode("B", nil)
	a2 := g.AddNode("A", nil) // isolated A: matches nothing
	b2 := g.AddNode("B", nil) // isolated B
	if err := g.AddEdge(a1, b1); err != nil {
		t.Fatal(err)
	}
	q := pattern.New()
	qa := q.MustAddNode("A", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("A")))
	qb := q.MustAddNode("B", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("B")))
	q.MustAddEdge(qa, qb, 1)
	if err := q.SetOutput(qa); err != nil {
		t.Fatal(err)
	}
	subs := Strong(g, q)
	if len(subs) != 1 {
		t.Fatalf("Strong returned %d perfect subgraphs, want 1", len(subs))
	}
	rel := subs[0].Relation
	if !rel.Has(qa, a1) || !rel.Has(qb, b1) || rel.Has(qa, a2) || rel.Has(qb, b2) {
		t.Errorf("perfect subgraph wrong: %v", rel)
	}
}

func TestStrongDeduplicatesBalls(t *testing.T) {
	// A 2-cycle of twins: balls around both nodes yield the same match
	// relation; Strong must report it once.
	g := graph.New(2)
	x := g.AddNode("X", nil)
	y := g.AddNode("X", nil)
	if err := g.AddEdge(x, y); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(y, x); err != nil {
		t.Fatal(err)
	}
	q := pattern.New()
	qx := q.MustAddNode("X", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("X")))
	q.MustAddEdge(qx, qx, 1)
	if err := q.SetOutput(qx); err != nil {
		t.Fatal(err)
	}
	subs := Strong(g, q)
	if len(subs) != 1 {
		t.Errorf("Strong returned %d subgraphs, want 1 (deduplicated)", len(subs))
	}
}

func TestStrongOnPaperGraph(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	subs := Strong(g, q)
	if len(subs) == 0 {
		t.Fatal("strong simulation found no perfect subgraphs on Fig. 1")
	}
	// Every perfect subgraph's relation must be inside the bounded
	// simulation relation (locality only restricts).
	sim := bsim.Compute(g, q)
	foundBob := false
	for _, s := range subs {
		for _, pr := range s.Relation.Pairs() {
			if !sim.Has(pr.PNode, pr.Node) {
				t.Errorf("strong pair %v outside M(Q,G)", pr)
			}
			if pr.Node == p.Bob {
				foundBob = true
			}
		}
	}
	if !foundBob {
		t.Error("no perfect subgraph contains Bob")
	}
}

// Property: dual simulation with a pattern that has no in-edges on any
// node... every pattern is a DAG extension; instead verify: dual of an
// edgeless pattern equals the predicate filter.
func TestDualEdgelessPattern(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := pattern.New()
	x := q.MustAddNode("SA", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("SA")))
	if err := q.SetOutput(x); err != nil {
		t.Fatal(err)
	}
	dual := Dual(g, q)
	if dual.CountOf(x) != 2 {
		t.Errorf("edgeless dual = %v, want the 2 SAs", dual)
	}
}
