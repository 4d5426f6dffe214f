package cache

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
)

func rel(pairs ...int) *match.Relation {
	r := match.NewRelation(1)
	for _, p := range pairs {
		r.Add(0, graph.NodeID(p))
	}
	return r
}

// budgetFor returns a byte budget that fits exactly n single-pair
// relations as built by rel(...).
func budgetFor(n int) int64 { return int64(n) * rel(1).ApproxBytes() }

func TestGetPut(t *testing.T) {
	c := New(budgetFor(4))
	k := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	if _, ok := c.Get(k); ok {
		t.Fatal("empty cache returned a hit")
	}
	c.Put(k, rel(1, 2))
	got, ok := c.Get(k)
	if !ok || got.Size() != 2 {
		t.Fatalf("Get = (%v, %v)", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
	if st.Bytes != rel(1, 2).ApproxBytes() {
		t.Errorf("bytes = %d, want %d", st.Bytes, rel(1, 2).ApproxBytes())
	}
	if st.BudgetBytes != budgetFor(4) {
		t.Errorf("budget = %d, want %d", st.BudgetBytes, budgetFor(4))
	}
}

func TestVersionedKeysDistinct(t *testing.T) {
	c := New(budgetFor(4))
	k1 := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	k2 := Key{GraphName: "g", GraphVersion: 2, PatternHash: "h"}
	c.Put(k1, rel(1))
	if _, ok := c.Get(k2); ok {
		t.Error("different version hit the same entry")
	}
}

// mustPanic runs f and fails unless it panics.
func mustPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s did not panic", what)
		}
	}()
	f()
}

// TestStoredRelationIsSharedAndFrozen is the no-copy contract: Put keeps
// the caller's relation, every Get returns that same pointer, and because
// it is shared it can no longer be modified — by the storer or a reader.
func TestStoredRelationIsSharedAndFrozen(t *testing.T) {
	c := New(budgetFor(2))
	k := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	original := rel(1)
	c.Put(k, original)
	got, _ := c.Get(k)
	if again, _ := c.Get(k); got != original || again != original {
		t.Fatalf("Get returned %p and %p, want the stored pointer %p both times", got, again, original)
	}
	mustPanic(t, "Add on the stored relation", func() { original.Add(0, 99) })
	mustPanic(t, "Add on a returned relation", func() { got.Add(0, 50) })
	mustPanic(t, "Remove on a returned relation", func() { got.Remove(0, 1) })
	if got.Normalize(); got.Size() != 1 || !got.Has(0, 1) {
		t.Errorf("relation changed under rejected mutations: %v", got)
	}
	private := got.Clone()
	private.Add(0, 50) // a clone is the way to a mutable copy
	if got.Has(0, 50) {
		t.Error("mutating a clone reached the cached relation")
	}
}

// fanEntry is an answer whose result graph would dominate its bytes: n
// "A" nodes each pointing at the same n "B" nodes match A -> B with n*n
// result edges (16 bytes each) against 2n relation pairs. The entry keeps
// the relation, the ranking and the encoded matches; the result graph the
// ranking was computed over is returned beside it.
func fanEntry(n int) (*Entry, *match.ResultGraph) {
	g := graph.New(2 * n)
	r := match.NewRelation(2)
	for i := 0; i < 2*n; i++ {
		label, u := "A", 0
		if i >= n {
			label, u = "B", 1
		}
		r.Add(pattern.NodeIdx(u), g.AddNode(label, nil))
	}
	for a := 0; a < n; a++ {
		for b := n; b < 2*n; b++ {
			_ = g.AddEdge(graph.NodeID(a), graph.NodeID(b)) // ids are 0..2n-1, no duplicates
		}
	}
	q, err := pattern.Parse("node A [label=A] output\nnode B [label=B]\nedge A -> B bound 1\n")
	if err != nil {
		panic(err)
	}
	rg := match.BuildResultGraph(g, q, r)
	return &Entry{Relation: r, Ranking: rank.TopKWithResultGraph(rg, q, r, 0), Matches: r.AppendJSON(nil, q)}, rg
}

// TestEntryChargedForRelationAndRanking stores whole answers: the
// accounted bytes are the relation's plus the ranking's plus the encoded
// matches', and the result graph the ranking was computed over — many
// times the relation here — is neither kept nor charged, so a budget
// smaller than one such graph holds two entries.
func TestEntryChargedForRelationAndRanking(t *testing.T) {
	const n = 32
	en, rg := fanEntry(n)
	if len(en.Matches) == 0 {
		t.Fatal("fixture: no encoded matches")
	}
	want := en.Relation.ApproxBytes() + int64(len(en.Ranking))*rankedBytes + int64(len(en.Matches))
	c := New(2*want + want/2) // room for two answers
	if rg.NumEdges() != n*n || len(en.Ranking) != n || rg.ApproxBytes() <= c.Stats().BudgetBytes {
		t.Fatalf("fixture: %d edges, %d ranked, result graph %d B vs budget %d B; want %d, %d and a graph over budget",
			rg.NumEdges(), len(en.Ranking), rg.ApproxBytes(), c.Stats().BudgetBytes, n*n, n)
	}
	k := func(i int) Key { return Key{GraphName: "g", GraphVersion: uint64(i), PatternHash: "h"} }
	c.Store(k(1), en)
	if en.Bytes != want || c.Stats().Bytes != want {
		t.Fatalf("entry charged %d (cache %d), want %d", en.Bytes, c.Stats().Bytes, want)
	}
	en2, _ := fanEntry(n)
	c.Store(k(2), en2)
	en3, _ := fanEntry(n)
	c.Store(k(3), en3)
	st := c.Stats()
	if st.Entries != 2 || st.Evictions != 1 || st.Bytes != 2*want {
		t.Errorf("after three answers: %+v, want 2 entries, 1 eviction, %d bytes", st, 2*want)
	}
	if _, ok := c.Lookup(k(1)); ok {
		t.Error("the least recently used answer survived")
	}
	got, ok := c.Lookup(k(3))
	if !ok || got.Relation.Size() != 2*n || len(got.Ranking) != n || !bytes.Equal(got.Matches, en3.Matches) {
		t.Errorf("Lookup lost parts of the entry: %+v", got)
	}
}

// TestConcurrentHitsShareOneEntry has many goroutines hit one key and read
// everything the entry holds at once, the encoded matches byte by byte.
// Under -race this is the proof that a hit hands out pointers to data
// nothing writes any more.
func TestConcurrentHitsShareOneEntry(t *testing.T) {
	c := New(0)
	k := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	stored, _ := fanEntry(8)
	want := string(stored.Matches)
	c.Store(k, stored)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				en, ok := c.Lookup(k)
				if !ok || en != stored || en.Relation != stored.Relation {
					t.Errorf("hit returned %p (ok %v), want the stored entry %p", en, ok, stored)
					return
				}
				if len(en.Relation.Pairs()) != 16 || len(en.Relation.MatchesOf(1)) != 8 || len(en.Ranking) != 8 || en.Ranking[0].Connected != 8 {
					t.Errorf("entry read back wrong: %d pairs, %d ranked", en.Relation.Size(), len(en.Ranking))
					return
				}
				if &en.Matches[0] != &stored.Matches[0] || string(en.Matches) != want {
					t.Errorf("hit read matches %.40s at %p, want the stored %.40s at %p", en.Matches, en.Matches, want, stored.Matches)
					return
				}
				if rel, _ := c.Get(k); rel != stored.Relation {
					t.Error("Get returned a different relation than Lookup")
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestLRUEvictionUnderByteBudget(t *testing.T) {
	c := New(budgetFor(2))
	k := func(i int) Key { return Key{GraphName: "g", GraphVersion: uint64(i), PatternHash: "h"} }
	c.Put(k(1), rel(1))
	c.Put(k(2), rel(2))
	// Touch k1 so k2 is the LRU.
	if _, ok := c.Get(k(1)); !ok {
		t.Fatal("k1 missing")
	}
	c.Put(k(3), rel(3))
	if _, ok := c.Get(k(2)); ok {
		t.Error("LRU entry survived eviction")
	}
	if _, ok := c.Get(k(1)); !ok {
		t.Error("recently used entry was evicted")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1", st.Evictions)
	}
}

func TestLargeEntryEvictsManySmall(t *testing.T) {
	c := New(budgetFor(4))
	k := func(i int) Key { return Key{GraphName: "g", GraphVersion: uint64(i), PatternHash: "h"} }
	for i := 1; i <= 4; i++ {
		c.Put(k(i), rel(i))
	}
	if c.Stats().Entries != 4 {
		t.Fatalf("Len = %d, want 4", c.Stats().Entries)
	}
	// One relation worth ~4 single-pair entries displaces all but itself.
	c.Put(k(5), rel(10, 11, 12, 13, 14, 15, 16, 17, 18))
	if c.Stats().Entries != 1 {
		t.Errorf("Len after oversized insert = %d, want 1", c.Stats().Entries)
	}
	if _, ok := c.Get(k(5)); !ok {
		t.Error("newest entry must survive its own insert")
	}
	if c.Stats().Bytes > budgetFor(4)+rel(1).ApproxBytes()*16 {
		t.Errorf("bytes accounting off: %d", c.Stats().Bytes)
	}
}

func TestOversizedEntryStillAdmitted(t *testing.T) {
	c := New(1) // 1-byte budget: everything is oversized
	k := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	c.Put(k, rel(1, 2, 3))
	if _, ok := c.Get(k); !ok {
		t.Error("newest entry must be admitted even over budget")
	}
	if c.Stats().Entries != 1 {
		t.Errorf("Len = %d, want 1", c.Stats().Entries)
	}
}

func TestPutSameKeyReplaces(t *testing.T) {
	c := New(budgetFor(8))
	k := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	c.Put(k, rel(1))
	c.Put(k, rel(1, 2, 3))
	got, _ := c.Get(k)
	if got.Size() != 3 {
		t.Errorf("size after replace = %d, want 3", got.Size())
	}
	if c.Stats().Entries != 1 {
		t.Errorf("Len = %d, want 1", c.Stats().Entries)
	}
	if c.Stats().Bytes != rel(1, 2, 3).ApproxBytes() {
		t.Errorf("bytes after replace = %d, want %d", c.Stats().Bytes, rel(1, 2, 3).ApproxBytes())
	}
}

func TestInvalidateGraph(t *testing.T) {
	c := New(budgetFor(8))
	for i := 0; i < 3; i++ {
		c.Put(Key{GraphName: "a", GraphVersion: uint64(i), PatternHash: "h"}, rel(i))
		c.Put(Key{GraphName: "b", GraphVersion: uint64(i), PatternHash: "h"}, rel(i))
	}
	before := c.Stats().Bytes
	c.InvalidateGraph("a")
	if c.Stats().Entries != 3 {
		t.Errorf("Len after invalidate = %d, want 3", c.Stats().Entries)
	}
	if c.Stats().Bytes >= before {
		t.Errorf("bytes not released on invalidate: %d -> %d", before, c.Stats().Bytes)
	}
	if _, ok := c.Get(Key{GraphName: "b", GraphVersion: 1, PatternHash: "h"}); !ok {
		t.Error("unrelated graph entries were dropped")
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New(budgetFor(16))
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := Key{GraphName: fmt.Sprintf("g%d", i%4), GraphVersion: uint64(i % 8), PatternHash: "h"}
				if i%3 == 0 {
					c.Put(k, rel(i))
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Bytes > budgetFor(16)+rel(1).ApproxBytes() {
		t.Errorf("cache exceeded budget: %d bytes", c.Stats().Bytes)
	}
}

func TestDefaultBudget(t *testing.T) {
	c := New(0)
	if got := c.Stats().BudgetBytes; got != DefaultBudget {
		t.Errorf("default budget = %d, want %d", got, DefaultBudget)
	}
	k1 := Key{GraphName: "g", GraphVersion: 1, PatternHash: "h"}
	c.Put(k1, rel(1))
	if c.Stats().Entries != 1 {
		t.Errorf("Len = %d, want 1", c.Stats().Entries)
	}
}
