package match

import (
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// linePattern builds pattern A -> B with the given bound over labels A, B.
func linePattern(t *testing.T, bound int) *pattern.Pattern {
	t.Helper()
	q := pattern.New()
	a := q.MustAddNode("A", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("A")))
	b := q.MustAddNode("B", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("B")))
	q.MustAddEdge(a, b, bound)
	if err := q.SetOutput(a); err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuildResultGraphWeights(t *testing.T) {
	// a -> x -> b : pattern edge bound 2 => result edge a->b with weight 2.
	g := graph.New(3)
	a := g.AddNode("A", nil)
	x := g.AddNode("X", nil)
	b := g.AddNode("B", nil)
	if err := g.AddEdge(a, x); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(x, b); err != nil {
		t.Fatal(err)
	}
	q := linePattern(t, 2)
	r := NewRelation(2)
	r.Add(0, a)
	r.Add(1, b)
	rg := BuildResultGraph(g, q, r)
	if rg.NumNodes() != 2 || rg.NumEdges() != 1 {
		t.Fatalf("result graph (n,m) = (%d,%d), want (2,1)", rg.NumNodes(), rg.NumEdges())
	}
	w, ok := rg.Weight(a, b)
	if !ok || w != 2 {
		t.Errorf("Weight(a,b) = (%d,%v), want (2,true)", w, ok)
	}
	// Intermediate node x is not part of the result graph.
	if rg.Has(x) {
		t.Error("non-match node appeared in result graph")
	}
}

func TestBuildResultGraphRespectsBounds(t *testing.T) {
	// a -> x -> y -> b is 3 hops; bound 2 must not produce a result edge.
	g := graph.New(4)
	a := g.AddNode("A", nil)
	x := g.AddNode("X", nil)
	y := g.AddNode("Y", nil)
	b := g.AddNode("B", nil)
	for _, e := range [][2]graph.NodeID{{a, x}, {x, y}, {y, b}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := linePattern(t, 2)
	r := NewRelation(2)
	r.Add(0, a)
	r.Add(1, b)
	rg := BuildResultGraph(g, q, r)
	if rg.NumEdges() != 0 {
		t.Errorf("bound 2 produced %d edges over a 3-hop path", rg.NumEdges())
	}
	// With an unbounded pattern edge the result edge appears, weighted by
	// the true shortest distance.
	qU := linePattern(t, pattern.Unbounded)
	rgU := BuildResultGraph(g, qU, r)
	if w, ok := rgU.Weight(a, b); !ok || w != 3 {
		t.Errorf("unbounded Weight(a,b) = (%d,%v), want (3,true)", w, ok)
	}
}

func TestResultGraphDijkstra(t *testing.T) {
	// Weighted diamond in the result graph: a->b (1), b->d (3), a->c (2),
	// c->d (1); shortest a->d is 3 via c.
	g := graph.New(6)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	c := g.AddNode("B", nil)
	d := g.AddNode("C", nil)
	// Build data paths of the right lengths: a->b direct; b->..->d 3 hops;
	// a->.->c 2 hops; c->d direct.
	h1 := g.AddNode("X", nil)
	h2 := g.AddNode("X", nil)
	edges := [][2]graph.NodeID{
		{a, b}, {b, h1}, {h1, h2}, {h2, d}, {a, h1}, {h1, c}, {c, d},
	}
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	q := pattern.New()
	qa := q.MustAddNode("A", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("A")))
	qb := q.MustAddNode("B", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("B")))
	qc := q.MustAddNode("C", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("C")))
	q.MustAddEdge(qa, qb, 3)
	q.MustAddEdge(qb, qc, 3)
	if err := q.SetOutput(qa); err != nil {
		t.Fatal(err)
	}
	r := NewRelation(3)
	r.Add(0, a)
	r.Add(1, b)
	r.Add(1, c)
	r.Add(2, d)
	rg := BuildResultGraph(g, q, r)
	dist := rg.Distances(a, false)
	// a->b weight 1, a->c weight 2 (via h1), b->d weight 3, c->d weight 1.
	if dist[b] != 1 || dist[c] != 2 {
		t.Errorf("dist to b,c = %d,%d want 1,2", dist[b], dist[c])
	}
	if dist[d] != 3 {
		t.Errorf("dist to d = %d, want 3 (via c)", dist[d])
	}
	// Reverse distances from d.
	rdist := rg.Distances(d, true)
	if rdist[a] != 3 {
		t.Errorf("reverse dist d<-a = %d, want 3", rdist[a])
	}
}

func TestResultGraphDeduplicatesParallelDerivations(t *testing.T) {
	// Two pattern edges inducing the same data pair produce one result edge.
	g := graph.New(2)
	a := g.AddNode("A", nil)
	b := g.AddNode("B", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	q := pattern.New()
	qa := q.MustAddNode("A", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("A")))
	qb1 := q.MustAddNode("B1", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("B")))
	qb2 := q.MustAddNode("B2", pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String("B")))
	q.MustAddEdge(qa, qb1, 1)
	q.MustAddEdge(qa, qb2, 2)
	if err := q.SetOutput(qa); err != nil {
		t.Fatal(err)
	}
	r := NewRelation(3)
	r.Add(0, a)
	r.Add(1, b)
	r.Add(2, b)
	rg := BuildResultGraph(g, q, r)
	if rg.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1 (deduplicated)", rg.NumEdges())
	}
	if pn := rg.PNodeOf(b); len(pn) != 2 {
		t.Errorf("PNodeOf(b) = %v, want both B1 and B2", pn)
	}
}
