package replication

import (
	"errors"
	"math/rand"
	"testing"

	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/stats"
	"expfinder/internal/testutil"
)

// TestFollowerServesStats checks the follower serves current graph
// statistics after replicated replay: a snapshot-installed graph and a
// stream of replayed records must leave the follower able to serve
// stats that match a from-scratch recount — read-only, and paying one
// recount per graph version read, not one per read.
func TestFollowerServesStats(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(11))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 20, 60)); err != nil {
		t.Fatal(err)
	}
	feng, _ := newFollowerEnv(t, le.leader.Addr(), nil)
	waitConverged(t, le.eng, feng, "snapshot install")

	// Replayed records: edge batches, node add/remove, attr sets.
	for i := 0; i < 60; i++ {
		mutate(t, le.eng, "g", r)
	}
	waitConverged(t, le.eng, feng, "record replay")

	snap, err := feng.GraphStatistics("g")
	if err != nil {
		t.Fatalf("follower stats: %v", err)
	}
	var want *stats.Snapshot
	if err := feng.WithGraph("g", func(g *graph.Graph) error {
		want = stats.Compute(g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(want) {
		t.Fatalf("follower stats diverged from recount\n got: %+v\nwant: %+v", snap, want)
	}

	// The read above recounted this version; repeated reads at the
	// same version pay no further recounts.
	before, err := feng.StatsRebuilds("g")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := feng.GraphStatistics("g"); err != nil {
			t.Fatal(err)
		}
	}
	after, err := feng.StatsRebuilds("g")
	if err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatalf("follower stats reads at one version paid %d more recounts", after-before)
	}

	// And the stats surface stays read-only like everything else.
	if _, err := feng.AddNode("g", "SA", nil); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("follower write: got %v, want ErrReadOnly", err)
	}

	// Leader and follower agree on the statistics themselves.
	lsnap, err := le.eng.GraphStatistics("g")
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Equal(lsnap) {
		t.Fatal("leader and follower statistics disagree on a converged graph")
	}
}
