package bsim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/match"
	"expfinder/internal/testutil"
)

// Property: attaching a distance index never changes the relation —
// neither a complete index (labels answer everything) nor a partial one
// (labels prove/refute what they can, bounded BFS covers the rest),
// across random graphs, patterns, and bounds.
func TestQuickIndexedMatchesDirect(t *testing.T) {
	cfg := &quick.Config{MaxCount: 60}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 4+r.Intn(18), r.Intn(60))
		q := testutil.RandomPattern(r, 1+r.Intn(4))
		want := Compute(g, q)
		complete := distindex.Build(g, distindex.Options{})
		if !ComputeIndexed(g, q, complete).Equal(want) {
			t.Logf("seed %d: complete index diverged", seed)
			return false
		}
		partial := distindex.Build(g, distindex.Options{Landmarks: 1 + r.Intn(3)})
		if !ComputeIndexed(g, q, partial).Equal(want) {
			t.Logf("seed %d: partial index diverged", seed)
			return false
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// Property: the indexed parallel path is deterministic and identical to
// the serial indexed and direct paths for every worker count.
func TestQuickIndexedParallelMatchesSerial(t *testing.T) {
	cfg := &quick.Config{MaxCount: 20}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 300, 900)
		q := testutil.RandomPattern(r, 1+r.Intn(3))
		ix := distindex.Build(g, distindex.Options{})
		want := Compute(g, q)
		for _, workers := range []int{1, 2, 4, 8} {
			if !Evaluate(t.Context(), g, q, match.Bounded, workers, ix).Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// The paper's Fig. 1 worked example, through the indexed path.
func TestIndexedOnPaperGraph(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	ix := distindex.Build(g, distindex.Options{})
	rel := ComputeIndexed(g, q, ix)
	if !rel.Equal(Compute(g, q)) {
		t.Fatal("indexed relation diverges on the paper graph")
	}
	if rel.Size() != 7 {
		t.Fatalf("M(Q,G) size = %d, want 7", rel.Size())
	}
}
