package match

import (
	"encoding/json"
	"math/rand"
	"slices"
	"sync"
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

// TestFrozenOrderEqualsMapOrder: Freeze records the order MatchesOf
// sorted before it, the caller owns every returned slice, a second Freeze
// writes nothing, and the byte estimate does not move at Freeze.
func TestFrozenOrderEqualsMapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var rels []*Relation
	rels = append(rels, NewRelation(3)) // empty
	gone := NewRelation(3)              // normalized away: node 2 unmatched
	gone.Add(0, 4)
	gone.Add(1, 9)
	rels = append(rels, gone.Normalize())
	for i := 0; i < 200; i++ {
		r := NewRelation(1 + rng.Intn(5))
		for u := 0; u < r.NumPatternNodes(); u++ {
			for j := rng.Intn(60); j > 0; j-- {
				r.Add(pattern.NodeIdx(u), graph.NodeID(rng.Intn(500)))
			}
		}
		rels = append(rels, r.Normalize())
	}
	for i, r := range rels {
		n := r.NumPatternNodes()
		before := make([][]graph.NodeID, n)
		for u := range before {
			before[u] = r.MatchesOf(pattern.NodeIdx(u))
		}
		bytes := r.ApproxBytes()
		r.Freeze()
		if got := r.ApproxBytes(); got != bytes {
			t.Fatalf("relation %d: ApproxBytes %d before Freeze, %d after", i, bytes, got)
		}
		for u := 0; u < n; u++ {
			got := r.MatchesOf(pattern.NodeIdx(u))
			if !slices.Equal(got, before[u]) {
				t.Fatalf("relation %d node %d: frozen %v, mutable %v", i, u, got, before[u])
			}
			if len(got) != r.CountOf(pattern.NodeIdx(u)) {
				t.Fatalf("relation %d node %d: %d matches listed, %d held", i, u, len(got), r.CountOf(pattern.NodeIdx(u)))
			}
			for j, v := range got {
				if j > 0 && got[j-1] >= v {
					t.Fatalf("relation %d node %d: %v is not strictly ascending", i, u, got)
				}
				if !r.Has(pattern.NodeIdx(u), v) {
					t.Fatalf("relation %d node %d: %d listed but not held", i, u, v)
				}
			}
			for j := range got {
				got[j] = -1
			}
			if again := r.MatchesOf(pattern.NodeIdx(u)); !slices.Equal(again, before[u]) {
				t.Fatalf("relation %d node %d: writing a returned slice changed the next call to %v", i, u, again)
			}
		}
		order := r.sorted
		r.Freeze()
		if len(order) > 0 && &r.sorted[0] != &order[0] {
			t.Fatalf("relation %d: a second Freeze rebuilt the order", i)
		}
		for u := range order {
			if len(order[u]) > 0 && &r.sorted[u][0] != &order[u][0] {
				t.Fatalf("relation %d node %d: a second Freeze rebuilt the order", i, u)
			}
		}
	}
}

// TestFrozenOrderConcurrentReads: readers of one frozen relation share
// it without synchronizing, Freeze included; run under -race.
func TestFrozenOrderConcurrentReads(t *testing.T) {
	r := NewRelation(3)
	for v := graph.NodeID(0); v < 300; v++ {
		r.Add(pattern.NodeIdx(v%3), v*7%1000)
	}
	r.Freeze()
	want := r.Size()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				r.Freeze()
				u := pattern.NodeIdx(i % 3)
				ms := r.MatchesOf(u)
				if len(ms) != 100 || r.Size() != want || !r.Has(u, ms[i%len(ms)]) {
					t.Errorf("reader saw %d matches of %d, size %d", len(ms), u, r.Size())
					return
				}
				ms[0] = -1 // the caller owns the copy
			}
		}()
	}
	wg.Wait()
}

// TestAppendJSONEqualsMarshal: the encoded matches are the bytes
// encoding/json writes for the map[string][]int64 a response carries,
// on mutable and frozen relations, with names that need escaping or
// sort differently as bytes than as runes, and with empty sets.
func TestAppendJSONEqualsMarshal(t *testing.T) {
	names := []string{"SA", "sd", "<b>", "a&b", `q"t`, "Zoë", "名", "line\u2028", "B", "é", "\x7f", ""}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		q := pattern.New()
		for _, j := range rng.Perm(len(names))[:1+rng.Intn(5)] {
			q.MustAddNode(names[j], pattern.Predicate{})
		}
		r := NewRelation(q.NumNodes())
		for u := 0; u < q.NumNodes(); u++ {
			for k := rng.Intn(4) * rng.Intn(20); k > 0; k-- {
				r.Add(pattern.NodeIdx(u), graph.NodeID(rng.Intn(1<<20)))
			}
		}
		want := map[string][]int64{}
		for u := 0; u < q.NumNodes(); u++ {
			ids := []int64{}
			for _, v := range r.MatchesOf(pattern.NodeIdx(u)) {
				ids = append(ids, int64(v))
			}
			want[q.Node(pattern.NodeIdx(u)).Name] = ids
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		if got := r.AppendJSON([]byte("x"), q); string(got) != "x"+string(wantJSON) {
			t.Fatalf("mutable %d: %s, want %s", i, got[1:], wantJSON)
		}
		r.Freeze()
		if got := r.AppendJSON(nil, q); string(got) != string(wantJSON) {
			t.Fatalf("frozen %d: %s, want %s", i, got, wantJSON)
		}
	}
}
