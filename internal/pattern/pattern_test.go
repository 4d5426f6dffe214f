package pattern

import (
	"errors"
	"testing"

	"expfinder/internal/graph"
)

// paperPattern builds the reconstructed Fig. 1 query programmatically.
func paperPattern(t *testing.T) *Pattern {
	t.Helper()
	p := New()
	sa := p.MustAddNode("SA", Predicate{}.
		And(LabelAttr, OpEq, graph.String("SA")).
		And("experience", OpGe, graph.Int(5)))
	sd := p.MustAddNode("SD", Predicate{}.
		And(LabelAttr, OpEq, graph.String("SD")).
		And("experience", OpGe, graph.Int(2)))
	ba := p.MustAddNode("BA", Predicate{}.
		And(LabelAttr, OpEq, graph.String("BA")).
		And("experience", OpGe, graph.Int(3)))
	st := p.MustAddNode("ST", Predicate{}.
		And(LabelAttr, OpEq, graph.String("ST")).
		And("experience", OpGe, graph.Int(2)))
	p.MustAddEdge(sa, sd, 2)
	p.MustAddEdge(sa, ba, 3)
	p.MustAddEdge(sd, st, 2)
	p.MustAddEdge(st, sd, 1)
	if err := p.SetOutput(sa); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBuildAndValidate(t *testing.T) {
	p := paperPattern(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if p.NumNodes() != 4 || p.NumEdges() != 4 {
		t.Errorf("(nodes,edges) = (%d,%d), want (4,4)", p.NumNodes(), p.NumEdges())
	}
	if p.IsPlainSimulation() {
		t.Error("bounded query misreported as plain simulation")
	}
	max, unb := p.MaxBound()
	if max != 3 || unb {
		t.Errorf("MaxBound = (%d,%v), want (3,false)", max, unb)
	}
}

func TestValidateErrors(t *testing.T) {
	p := New()
	if err := p.Validate(); !errors.Is(err, ErrEmpty) {
		t.Errorf("empty Validate = %v, want ErrEmpty", err)
	}
	p.MustAddNode("A", Predicate{})
	if err := p.Validate(); !errors.Is(err, ErrNoOutput) {
		t.Errorf("no-output Validate = %v, want ErrNoOutput", err)
	}
}

func TestAddNodeRejectsDuplicates(t *testing.T) {
	p := New()
	p.MustAddNode("A", Predicate{})
	if _, err := p.AddNode("A", Predicate{}); !errors.Is(err, ErrDupName) {
		t.Errorf("dup AddNode err = %v, want ErrDupName", err)
	}
}

func TestAddEdgeValidation(t *testing.T) {
	p := New()
	a := p.MustAddNode("A", Predicate{})
	b := p.MustAddNode("B", Predicate{})
	if err := p.AddEdge(a, b, 0); !errors.Is(err, ErrBadBound) {
		t.Errorf("bound 0 err = %v, want ErrBadBound", err)
	}
	if err := p.AddEdge(a, 9, 1); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("bad target err = %v, want ErrNoSuchNode", err)
	}
	if err := p.AddEdge(a, b, Unbounded); err != nil {
		t.Errorf("unbounded edge rejected: %v", err)
	}
	if err := p.AddEdge(a, b, 2); !errors.Is(err, ErrDupEdge) {
		t.Errorf("dup edge err = %v, want ErrDupEdge", err)
	}
	// Self-edges are legal in patterns.
	if err := p.AddEdge(a, a, 3); err != nil {
		t.Errorf("self-edge rejected: %v", err)
	}
}

func TestPredicateEval(t *testing.T) {
	n := graph.Node{
		Label: "SA",
		Attrs: graph.Attrs{
			"experience": graph.Int(7),
			"name":       graph.String("Bob the Architect"),
		},
	}
	tests := []struct {
		cond Condition
		want bool
	}{
		{Condition{LabelAttr, OpEq, graph.String("SA")}, true},
		{Condition{LabelAttr, OpEq, graph.String("SD")}, false},
		{Condition{LabelAttr, OpNe, graph.String("SD")}, true},
		{Condition{"experience", OpGe, graph.Int(5)}, true},
		{Condition{"experience", OpGt, graph.Int(7)}, false},
		{Condition{"experience", OpLe, graph.Float(7.5)}, true},
		{Condition{"experience", OpLt, graph.Int(3)}, false},
		{Condition{"name", OpContains, graph.String("Architect")}, true},
		{Condition{"name", OpPrefix, graph.String("Bob")}, true},
		{Condition{"name", OpPrefix, graph.String("Architect")}, false},
		// Missing attribute fails everything, even !=.
		{Condition{"salary", OpNe, graph.Int(0)}, false},
		{Condition{"salary", OpEq, graph.Int(0)}, false},
		// Type-incomparable: string attr vs numeric literal.
		{Condition{"name", OpGe, graph.Int(1)}, false},
	}
	for _, tc := range tests {
		if got := tc.cond.Eval(n); got != tc.want {
			t.Errorf("%v .Eval = %v, want %v", tc.cond, got, tc.want)
		}
	}
}

func TestPredicateConjunction(t *testing.T) {
	pred := Predicate{}.
		And(LabelAttr, OpEq, graph.String("SA")).
		And("experience", OpGe, graph.Int(5))
	yes := graph.Node{Label: "SA", Attrs: graph.Attrs{"experience": graph.Int(5)}}
	no := graph.Node{Label: "SA", Attrs: graph.Attrs{"experience": graph.Int(4)}}
	if !pred.Eval(yes) {
		t.Error("conjunction rejected satisfying node")
	}
	if pred.Eval(no) {
		t.Error("conjunction accepted failing node")
	}
	if !(Predicate{}).Eval(no) {
		t.Error("empty predicate must match everything")
	}
}

func TestOutInEdges(t *testing.T) {
	p := paperPattern(t)
	sa, _ := p.Lookup("SA")
	sd, _ := p.Lookup("SD")
	if got := len(p.OutEdges(sa)); got != 2 {
		t.Errorf("OutEdges(SA) = %d, want 2", got)
	}
	if got := len(p.InEdges(sd)); got != 2 {
		t.Errorf("InEdges(SD) = %d, want 2", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	p := paperPattern(t)
	c := p.Clone()
	if c.Canon() != p.Canon() {
		t.Fatal("clone canonical form differs")
	}
	c.MustAddNode("Extra", Predicate{})
	if c.Canon() == p.Canon() {
		t.Error("mutating clone affected original canonical form")
	}
}

func TestCanonInsensitiveToCondOrder(t *testing.T) {
	build := func(swap bool) *Pattern {
		p := New()
		var pred Predicate
		if swap {
			pred = Predicate{}.And("b", OpEq, graph.Int(2)).And("a", OpEq, graph.Int(1))
		} else {
			pred = Predicate{}.And("a", OpEq, graph.Int(1)).And("b", OpEq, graph.Int(2))
		}
		idx := p.MustAddNode("X", pred)
		if err := p.SetOutput(idx); err != nil {
			panic(err)
		}
		return p
	}
	if build(false).Hash() != build(true).Hash() {
		t.Error("Hash sensitive to predicate condition order")
	}
}

func TestHashDistinguishesBounds(t *testing.T) {
	build := func(bound int) *Pattern {
		p := New()
		a := p.MustAddNode("A", Predicate{})
		b := p.MustAddNode("B", Predicate{})
		p.MustAddEdge(a, b, bound)
		if err := p.SetOutput(a); err != nil {
			panic(err)
		}
		return p
	}
	if build(1).Hash() == build(2).Hash() {
		t.Error("Hash ignored edge bound")
	}
	if build(2).Hash() == build(Unbounded).Hash() {
		t.Error("Hash ignored unbounded vs finite")
	}
}

func TestIsPlainSimulation(t *testing.T) {
	p := New()
	a := p.MustAddNode("A", Predicate{})
	b := p.MustAddNode("B", Predicate{})
	p.MustAddEdge(a, b, 1)
	if err := p.SetOutput(a); err != nil {
		t.Fatal(err)
	}
	if !p.IsPlainSimulation() {
		t.Error("all-bounds-1 pattern not detected as plain simulation")
	}
}

func TestStringRendersParsableDSL(t *testing.T) {
	p := paperPattern(t)
	back, err := Parse(p.String())
	if err != nil {
		t.Fatalf("Parse(String()): %v\n%s", err, p.String())
	}
	if back.Canon() != p.Canon() {
		t.Errorf("String/Parse round-trip changed the pattern:\n%s\nvs\n%s", p.Canon(), back.Canon())
	}
}

// TestFrozenPatternRejectsMutation: after Freeze every mutator panics,
// Hash returns the digest of the unfrozen form (a mutable Clone's), a
// second Freeze changes nothing, and the Clone itself is mutable.
func TestFrozenPatternRejectsMutation(t *testing.T) {
	p := paperPattern(t)
	want := p.Hash()
	p.Freeze()
	p.Freeze()
	for name, mutate := range map[string]func(){
		"AddNode":       func() { _, _ = p.AddNode("X", Predicate{}) },
		"AddEdge":       func() { _ = p.AddEdge(0, 1, 5) },
		"SetOutput":     func() { _ = p.SetOutput(1) },
		"UnmarshalJSON": func() { _ = p.UnmarshalJSON([]byte(`{"nodes":[{"name":"A"}],"output":"A"}`)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a frozen pattern did not panic", name)
				}
			}()
			mutate()
		}()
	}
	c := p.Clone()
	if got := p.Hash(); got != want || got != c.Hash() {
		t.Errorf("frozen Hash = %s, unfrozen %s, Clone %s", got, want, c.Hash())
	}
	if p.NumNodes() != 4 || p.NumEdges() != 4 || p.Output() != 0 {
		t.Errorf("a rejected mutation changed the frozen pattern: %s", p)
	}
	if _, err := c.AddNode("X", Predicate{}); err != nil {
		t.Errorf("AddNode on the Clone of a frozen pattern: %v", err)
	}
}
