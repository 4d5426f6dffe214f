package match

import (
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

func TestRelationBasics(t *testing.T) {
	r := NewRelation(2)
	r.Add(0, 5)
	r.Add(0, 3)
	r.Add(1, 7)
	if !r.Has(0, 5) || r.Has(1, 5) {
		t.Error("Has wrong")
	}
	if got := r.MatchesOf(0); len(got) != 2 || got[0] != 3 || got[1] != 5 {
		t.Errorf("MatchesOf(0) = %v, want sorted [3 5]", got)
	}
	if r.Size() != 3 || r.CountOf(0) != 2 {
		t.Errorf("Size/CountOf wrong: %d/%d", r.Size(), r.CountOf(0))
	}
	r.Remove(0, 5)
	if r.Has(0, 5) || r.Size() != 2 {
		t.Error("Remove failed")
	}
}

func TestNormalizeEmptiesAllOrNothing(t *testing.T) {
	r := NewRelation(2)
	r.Add(0, 1)
	// pattern node 1 has no matches -> whole relation must empty.
	r.Normalize()
	if !r.IsEmpty() {
		t.Errorf("Normalize left pairs behind: %v", r)
	}
	// A complete relation is untouched.
	r2 := NewRelation(2)
	r2.Add(0, 1)
	r2.Add(1, 2)
	r2.Normalize()
	if r2.Size() != 2 {
		t.Error("Normalize damaged a complete relation")
	}
}

// TestFrozenRelationRejectsMutation: after Freeze only a Normalize that
// has nothing to clear goes through; a clone is mutable again.
func TestFrozenRelationRejectsMutation(t *testing.T) {
	panics := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	r := NewRelation(2)
	r.Add(0, 1)
	r.Freeze()
	if !panics(func() { r.Add(1, 2) }) || !panics(func() { r.Remove(0, 1) }) {
		t.Error("Add/Remove on a frozen relation did not panic")
	}
	if !panics(func() { r.Normalize() }) {
		t.Error("a Normalize that must clear a frozen relation did not panic")
	}
	if r.Size() != 1 || !r.Has(0, 1) {
		t.Errorf("rejected mutations changed the relation: %v", r)
	}
	c := r.Clone()
	c.Add(1, 2)
	c.Freeze()
	empty := NewRelation(2)
	empty.Freeze()
	if panics(func() { c.Normalize(); empty.Normalize() }) {
		t.Error("Normalize of an already normal frozen relation panicked")
	}
}

func TestPairsSortedDeterministically(t *testing.T) {
	r := NewRelation(2)
	r.Add(1, 9)
	r.Add(0, 4)
	r.Add(0, 2)
	ps := r.Pairs()
	want := []Pair{{0, 2}, {0, 4}, {1, 9}}
	if len(ps) != len(want) {
		t.Fatalf("Pairs = %v", ps)
	}
	for i := range ps {
		if ps[i] != want[i] {
			t.Fatalf("Pairs = %v, want %v", ps, want)
		}
	}
}

func TestCloneEqualDiff(t *testing.T) {
	r := NewRelation(2)
	r.Add(0, 1)
	r.Add(1, 2)
	c := r.Clone()
	if !r.Equal(c) {
		t.Fatal("clone not equal")
	}
	c.Add(1, 3)
	c.Remove(0, 1)
	if r.Equal(c) {
		t.Error("Equal missed differences")
	}
	added, removed := r.Diff(c)
	if len(added) != 1 || added[0] != (Pair{1, 3}) {
		t.Errorf("added = %v", added)
	}
	if len(removed) != 1 || removed[0] != (Pair{0, 1}) {
		t.Errorf("removed = %v", removed)
	}
}

func TestFormatUsesNames(t *testing.T) {
	g := graph.New(1)
	v := g.AddNode("SA", graph.Attrs{"name": graph.String("Bob")})
	q := pattern.New()
	idx := q.MustAddNode("SA", pattern.Predicate{})
	if err := q.SetOutput(idx); err != nil {
		t.Fatal(err)
	}
	r := NewRelation(1)
	r.Add(idx, v)
	got := r.Format(q, g, "name")
	if got != "SA -> Bob" {
		t.Errorf("Format = %q", got)
	}
}
