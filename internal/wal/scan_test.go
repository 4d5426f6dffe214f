package wal

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

// postsOf decodes payloads and returns their post-mutation versions
// (nil, with the test marked failed, on an undecodable payload).
func postsOf(t *testing.T, payloads [][]byte) []uint64 {
	t.Helper()
	posts := make([]uint64, len(payloads))
	for i, p := range payloads {
		rec, err := DecodeRecord(p)
		if err != nil {
			t.Errorf("payload %d: %v", i, err)
			return nil
		}
		posts[i] = rec.Post
	}
	return posts
}

// TestRecordsSinceScansRetainedSegments pins the catch-up scan: exactly
// the records with post > v, oldest first, across rotated segments; not
// covered below the oldest retained base (a snapshot-created graph, a
// checkpoint) or on a broken log.
func TestRecordsSinceScansRetainedSegments(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 64})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil { // empty: a bare segment based at 0
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(21))
	mutate(t, m, "g", g, r, 80)
	if st := m.Stats().Graphs[0]; st.Segments < 2 {
		t.Fatalf("want rotated segments, got %d", st.Segments)
	}

	// From version 0 the scan is the whole history: replayed onto an
	// empty graph it rebuilds g exactly, so nothing is lost or repeated.
	all, covered, err := m.RecordsSince("g", 0)
	if err != nil || !covered {
		t.Fatalf("RecordsSince(0) = covered %v, err %v", covered, err)
	}
	posts := postsOf(t, all)
	rebuilt := graph.New(0)
	for i, p := range all {
		rec, _ := DecodeRecord(p)
		if i > 0 && posts[i] <= posts[i-1] {
			t.Fatalf("posts out of order at %d: %v", i, posts)
		}
		if err := rec.Apply(rebuilt); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(imageOf(t, rebuilt), imageOf(t, g)) {
		t.Fatal("replaying the scanned history does not rebuild the graph")
	}
	// From every logged version the scan is exactly the suffix after it.
	for i, v := range posts {
		got, covered, err := m.RecordsSince("g", v)
		if err != nil || !covered {
			t.Fatalf("RecordsSince(%d) = covered %v, err %v", v, covered, err)
		}
		if !slices.Equal(postsOf(t, got), posts[i+1:]) {
			t.Fatalf("RecordsSince(%d) = %v, want %v", v, postsOf(t, got), posts[i+1:])
		}
	}

	// A checkpoint truncates: below it is not covered, at it is empty.
	ckpt := g.Version()
	if err := m.Checkpoint("g", g); err != nil {
		t.Fatal(err)
	}
	if _, covered, _ := m.RecordsSince("g", posts[len(posts)/2]); covered {
		t.Fatal("a version below the checkpoint reported covered")
	}
	mutate(t, m, "g", g, r, 10)
	after, covered, err := m.RecordsSince("g", ckpt)
	if err != nil || !covered || len(after) == 0 || postsOf(t, after)[len(after)-1] != g.Version() {
		t.Fatalf("RecordsSince(checkpoint) = %d records, covered %v, err %v", len(after), covered, err)
	}

	// A graph created non-empty starts at its snapshot: nothing below.
	h := testutil.RandomGraph(r, 10, 20)
	if err := m.Create("h", h); err != nil {
		t.Fatal(err)
	}
	if _, covered, _ := m.RecordsSince("h", h.Version()-1); covered {
		t.Fatal("a version below the initial snapshot reported covered")
	}
	if got, covered, err := m.RecordsSince("h", h.Version()); err != nil || !covered || len(got) != 0 {
		t.Fatalf("RecordsSince(current) = %d records, covered %v, err %v", len(got), covered, err)
	}

	// A broken log never serves a replay, not even from the current version.
	gl, err := m.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	gl.mu.Lock()
	gl.f.Close()
	gl.mu.Unlock()
	g.AddNode("SA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if _, covered, _ := m.RecordsSince("g", ckpt); covered {
		t.Fatal("a broken log reported covered")
	}
}

// TestRecordsSinceScanRacesCheckpoint races scans against checkpoints
// that delete the segments being scanned. Both run under the graph's
// read lock in the engine, so only the log lock keeps them apart; writes
// (exclusive) happen between rounds. A covered scan must be exactly the
// records logged after v — none lost, none repeated — and no scan may
// fail on a segment deleted under it.
func TestRecordsSinceScanRacesCheckpoint(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 32})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	var logged []uint64 // every post, in append order
	covered := 0
	for round := 0; round < 40; round++ {
		// The last checkpoint's version is the oldest segment's base: scans
		// from there read every retained segment.
		from := max(len(logged)-1, 0)
		for len(logged) < 60*(round+1) { // enough records for many segments
			before := g.Version()
			mutate(t, m, "g", g, r, 1)
			if g.Version() != before {
				logged = append(logged, g.Version())
			}
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			if err := m.Checkpoint("g", g); err != nil {
				t.Error(err)
			}
		}()
		fatalf := func(format string, args ...any) {
			<-done // the checkpoint goroutine must not outlive the test
			t.Fatalf(format, args...)
		}
		for scanning := true; scanning; {
			select {
			case <-done:
				scanning = false // one last scan, after the checkpoint
			default:
			}
			v := logged[from+r.Intn(len(logged)-from)]
			got, ok, err := m.RecordsSince("g", v)
			if err != nil {
				fatalf("round %d: RecordsSince(%d): %v", round, v, err)
			}
			if !ok {
				continue
			}
			covered++
			want := logged[slices.Index(logged, v)+1:]
			if posts := postsOf(t, got); !slices.Equal(posts, want) {
				fatalf("round %d: RecordsSince(%d) = %v, want %v", round, v, posts, want)
			}
		}
	}
	if covered == 0 {
		t.Fatal("no scan was covered; the race was never exercised")
	}
}
