package wal

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/storage"
	"expfinder/internal/testutil"
)

// imageOf renders g through the codec the crash-recovery contract is
// stated in.
func imageOf(t *testing.T, g *graph.Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := storage.WriteGraphImage(&buf, g); err != nil {
		t.Fatalf("WriteGraphImage: %v", err)
	}
	return buf.Bytes()
}

func openManager(t *testing.T, dir string, opts Options) *Manager {
	t.Helper()
	opts.Dir = dir
	m, err := Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { m.Close() })
	return m
}

// mutate drives a deterministic mix of every record kind through g and
// the manager, mirroring the engine's logging discipline.
func mutate(t *testing.T, m *Manager, name string, g *graph.Graph, r *rand.Rand, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		switch k := r.Intn(10); {
		case k < 5: // edge-update batch
			var ops []Update
			nodes := g.Nodes()
			if len(nodes) < 2 {
				continue
			}
			for j := 0; j < 1+r.Intn(4); j++ {
				u := nodes[r.Intn(len(nodes))]
				v := nodes[r.Intn(len(nodes))]
				if u == v {
					continue
				}
				if g.HasEdge(u, v) {
					if g.RemoveEdge(u, v) == nil {
						ops = append(ops, Update{Insert: false, From: u, To: v})
					}
				} else if g.AddEdge(u, v) == nil {
					ops = append(ops, Update{Insert: true, From: u, To: v})
				}
			}
			if err := m.LogUpdates(name, ops, g.Version()); err != nil {
				t.Fatalf("LogUpdates: %v", err)
			}
		case k < 7: // add node
			label := testutil.Labels[r.Intn(len(testutil.Labels))]
			attrs := graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))}
			g.AddNode(label, attrs)
			if err := m.LogRecord(context.Background(), name, &Record{Kind: RecAddNode, Post: g.Version(), Label: label, Attrs: attrs}); err != nil {
				t.Fatalf("log add node: %v", err)
			}
		case k < 8: // remove node
			nodes := g.Nodes()
			if len(nodes) < 3 {
				continue
			}
			id := nodes[r.Intn(len(nodes))]
			if err := g.RemoveNode(id); err != nil {
				t.Fatalf("RemoveNode: %v", err)
			}
			if err := m.LogRecord(context.Background(), name, &Record{Kind: RecRemoveNode, Post: g.Version(), ID: id}); err != nil {
				t.Fatalf("log remove node: %v", err)
			}
		case k < 9: // set attr
			nodes := g.Nodes()
			if len(nodes) == 0 {
				continue
			}
			id := nodes[r.Intn(len(nodes))]
			v := graph.Int(int64(r.Intn(100)))
			if err := g.SetAttr(id, "experience", v); err != nil {
				t.Fatalf("SetAttr: %v", err)
			}
			if err := m.LogRecord(context.Background(), name, &Record{Kind: RecSetAttr, Post: g.Version(), ID: id, Key: "experience", Val: v}); err != nil {
				t.Fatalf("log set attr: %v", err)
			}
		default: // bare version advance (rolled-back batch)
			g.RestoreVersion(g.Version() + 2)
			if err := m.LogRecord(context.Background(), name, &Record{Kind: RecVersion, Post: g.Version()}); err != nil {
				t.Fatalf("log version: %v", err)
			}
		}
	}
}

func TestRoundTripAllRecordKinds(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	g := testutil.RandomGraph(r, 30, 90)
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff})
	if err := m.Create("g", g); err != nil {
		t.Fatalf("Create: %v", err)
	}
	mutate(t, m, "g", g, r, 200)
	want := imageOf(t, g)
	if err := m.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	m2 := openManager(t, m.Dir(), Options{})
	rec, err := m2.Recover("g")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.TornTail {
		t.Fatal("clean shutdown reported a torn tail")
	}
	if got := imageOf(t, rec.Graph); !bytes.Equal(got, want) {
		t.Fatal("recovered image differs from the live graph's")
	}
	if rec.Graph.Version() != g.Version() {
		t.Fatalf("recovered version %d, want %d", rec.Graph.Version(), g.Version())
	}
	if !rec.HadSnapshot {
		t.Fatal("non-empty create should have left an initial snapshot")
	}
}

func TestEmptyGraphRecoversFromWALAlone(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncAlways})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatalf("Create: %v", err)
	}
	a := g.AddNode("SA", graph.Attrs{"name": graph.String("Ann")})
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA", Attrs: graph.Attrs{"name": graph.String("Ann")}}); err != nil {
		t.Fatal(err)
	}
	b := g.AddNode("SD", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SD"}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := m.LogUpdates("g", []Update{{Insert: true, From: a, To: b}}, g.Version()); err != nil {
		t.Fatal(err)
	}
	// No checkpoint ever ran: this is the WAL-with-no-snapshot case.
	snaps, _, err := listState(filepath.Join(m.Dir(), "graphs", "g"))
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) != 0 {
		t.Fatalf("expected no snapshot before first checkpoint, found %d", len(snaps))
	}
	want := imageOf(t, g)
	m.Close()

	m2 := openManager(t, m.Dir(), Options{})
	rec, err := m2.Recover("g")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if rec.HadSnapshot {
		t.Fatal("replay claimed a snapshot that never existed")
	}
	if rec.Records != 3 {
		t.Fatalf("replayed %d records, want 3", rec.Records)
	}
	if !bytes.Equal(imageOf(t, rec.Graph), want) {
		t.Fatal("recovered image differs")
	}
}

func TestCheckpointTruncatesAndSurvivesRestart(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	g := testutil.RandomGraph(r, 40, 120)
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff, SegmentBytes: 512})
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	mutate(t, m, "g", g, r, 300)
	st := m.Stats().Graphs[0]
	if st.Segments < 2 {
		t.Fatalf("expected rotation to produce multiple segments, got %d", st.Segments)
	}
	if err := m.Checkpoint("g", g); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	st = m.Stats().Graphs[0]
	if st.Segments != 1 || st.BytesSinceCheckpoint != 0 {
		t.Fatalf("checkpoint did not truncate: %+v", st)
	}
	if st.SnapshotVersion != g.Version() {
		t.Fatalf("snapshot at %d, graph at %d", st.SnapshotVersion, g.Version())
	}
	mutate(t, m, "g", g, r, 50) // more records on top of the snapshot
	want := imageOf(t, g)
	m.Close()

	m2 := openManager(t, m.Dir(), Options{})
	rec, err := m2.Recover("g")
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if !bytes.Equal(imageOf(t, rec.Graph), want) {
		t.Fatal("recovered image differs after checkpoint + tail records")
	}
	// Recovery re-checkpointed: the replayed segments are gone.
	st = m2.Stats().Graphs[0]
	if st.Segments != 1 || st.SnapshotVersion != g.Version() {
		t.Fatalf("recovery did not collapse state: %+v", st)
	}
}

func TestNeedsCheckpointThreshold(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff, CheckpointBytes: 64})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	if m.NeedsCheckpoint("g") {
		t.Fatal("fresh log should not need a checkpoint")
	}
	for i := 0; i < 20; i++ {
		g.AddNode("SA", nil)
		if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); err != nil {
			t.Fatal(err)
		}
	}
	if !m.NeedsCheckpoint("g") {
		t.Fatal("log past CheckpointBytes should need a checkpoint")
	}
}

func TestCreateRejectsLeftoverState(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	g := graph.New(0)
	g.AddNode("SA", nil)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2 := openManager(t, dir, Options{})
	if err := m2.Create("g", graph.New(0)); !errors.Is(err, ErrExists) {
		t.Fatalf("Create over leftover state: %v, want ErrExists", err)
	}
	if _, err := m2.Recover("g"); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if _, err := m2.Recover("g"); !errors.Is(err, ErrExists) {
		t.Fatalf("second Recover: %v, want ErrExists", err)
	}
}

func TestDropRemovesStateAndAllowsRecreate(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{})
	g := graph.New(0)
	g.AddNode("SA", nil)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	if err := m.Drop("g"); err != nil {
		t.Fatalf("Drop: %v", err)
	}
	names, err := m.GraphNames()
	if err != nil || len(names) != 0 {
		t.Fatalf("GraphNames after drop: %v %v", names, err)
	}
	if err := m.Create("g", g); err != nil {
		t.Fatalf("re-Create after drop: %v", err)
	}
}

func TestInvalidGraphNames(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	for _, name := range []string{"", "a/b", `a\b`, ".."} {
		if err := m.Create(name, graph.New(0)); err == nil {
			t.Fatalf("Create(%q) accepted a path-unsafe name", name)
		}
	}
}

func TestNonMonotoneVersionRejected(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	g.AddNode("SA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); err != nil {
		t.Fatal(err)
	}
	err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}) // same version again
	if !errors.Is(err, ErrNonMonotone) {
		t.Fatalf("got %v, want ErrNonMonotone", err)
	}
}

func TestClosedManagerRefusesWork(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := m.Create("h", g); !errors.Is(err, ErrClosed) {
		t.Fatalf("Create after close: %v", err)
	}
	g.AddNode("SA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Log after close: %v", err)
	}
}

func TestCorruptMiddleSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{Fsync: FsyncOff, SegmentBytes: 256})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		g.AddNode("SA", graph.Attrs{"experience": graph.Int(int64(i))})
		if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA", Attrs: graph.Attrs{"experience": graph.Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	gdir := filepath.Join(dir, "graphs", "g")
	_, segs, err := listState(gdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("need >=3 segments, got %d", len(segs))
	}
	// Flip a payload byte in a middle segment: CRC-detected damage that
	// is NOT a torn tail must fail recovery, not silently drop records.
	mid := filepath.Join(gdir, segs[1].name)
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := openManager(t, dir, Options{})
	if _, err := m2.Recover("g"); err == nil || !strings.Contains(err.Error(), segs[1].name) {
		t.Fatalf("corrupt middle segment: err=%v, want failure naming %s", err, segs[1].name)
	}
}

func TestBitRotMidFinalSegmentFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{Fsync: FsyncOff})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		g.AddNode("SA", graph.Attrs{"experience": graph.Int(int64(i))})
		if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA", Attrs: graph.Attrs{"experience": graph.Int(int64(i))}}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	gdir := filepath.Join(dir, "graphs", "g")
	_, segs, err := listState(gdir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("want 1 segment: %v %v", segs, err)
	}
	seg := filepath.Join(gdir, segs[0].name)
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Damage one frame in the MIDDLE of the only (= final) segment: valid
	// records follow, so this is bit rot, not a torn tail — recovery must
	// refuse rather than silently drop the valid suffix.
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	m2 := openManager(t, dir, Options{})
	if _, err := m2.Recover("g"); err == nil || !strings.Contains(err.Error(), "mid-segment corruption") {
		t.Fatalf("bit rot accepted as torn tail: %v", err)
	}
}

func TestTornTailIsQuarantinedNotDeleted(t *testing.T) {
	dir := t.TempDir()
	m := openManager(t, dir, Options{Fsync: FsyncOff})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		g.AddNode("SA", nil)
		if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); err != nil {
			t.Fatal(err)
		}
	}
	m.Close()
	gdir := filepath.Join(dir, "graphs", "g")
	_, segs, err := listState(gdir)
	if err != nil || len(segs) != 1 {
		t.Fatal("want 1 segment")
	}
	seg := filepath.Join(gdir, segs[0].name)
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	m2 := openManager(t, dir, Options{})
	rec, err := m2.Recover("g")
	if err != nil {
		t.Fatal(err)
	}
	if !rec.TornTail {
		t.Fatal("truncation not reported as torn")
	}
	if _, err := os.Stat(seg + ".torn"); err != nil {
		t.Fatalf("torn segment not quarantined: %v", err)
	}
	// Quarantine survives further checkpoints.
	if err := m2.Checkpoint("g", rec.Graph); err != nil {
		t.Fatal(err)
	}
	mutateG := rec.Graph
	mutateG.AddNode("SD", nil)
	if err := m2.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: mutateG.Version(), Label: "SD"}); err != nil {
		t.Fatal(err)
	}
	if err := m2.Checkpoint("g", mutateG); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(seg + ".torn"); err != nil {
		t.Fatalf("checkpoint deleted the quarantined segment: %v", err)
	}
}

func TestBrokenLogPoisonsUntilCheckpointRepairs(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	g.AddNode("SA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a write failure by closing the segment file under the log.
	gl, err := m.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	gl.mu.Lock()
	gl.f.Close()
	gl.mu.Unlock()
	g.AddNode("SD", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SD"}); err == nil {
		t.Fatal("append to a closed file succeeded")
	}
	if !m.NeedsCheckpoint("g") {
		t.Fatal("broken log must demand a checkpoint")
	}
	// Every further append refuses until the checkpoint re-syncs: silently
	// accepting records here would shift replayed node ids.
	g.AddNode("BA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "BA"}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append on broken log: %v, want ErrBroken", err)
	}
	if err := m.Checkpoint("g", g); err != nil {
		t.Fatalf("repair checkpoint: %v", err)
	}
	g.AddNode("ST", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "ST"}); err != nil {
		t.Fatalf("append after repair: %v", err)
	}
	want := imageOf(t, g)
	m.Close()
	m2 := openManager(t, m.Dir(), Options{})
	rec, err := m2.Recover("g")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(imageOf(t, rec.Graph), want) {
		t.Fatal("recovered image differs after break+repair cycle")
	}
}

func TestIntervalFsyncFailurePoisonsLog(t *testing.T) {
	m := openManager(t, t.TempDir(), Options{Fsync: FsyncOff})
	g := graph.New(0)
	if err := m.Create("g", g); err != nil {
		t.Fatal(err)
	}
	g.AddNode("SA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SA"}); err != nil {
		t.Fatal(err)
	}
	gl, err := m.lookup("g")
	if err != nil {
		t.Fatal(err)
	}
	// Force the next periodic sync to fail (closed fd) while records are
	// dirty; the failure must poison the log and surface in stats, not
	// vanish — a dropped fsync can mean acknowledged records never reach
	// disk.
	gl.mu.Lock()
	gl.f.Close()
	gl.dirty = true
	gl.mu.Unlock()
	if err := m.Flush(); err == nil {
		t.Fatal("flush over a closed fd succeeded")
	}
	st := m.Stats()
	if st.FsyncFailures == 0 {
		t.Fatal("fsync failure not counted")
	}
	if len(st.Graphs) != 1 || !st.Graphs[0].Broken {
		t.Fatalf("fsync failure did not mark the log broken: %+v", st.Graphs)
	}
	g.AddNode("SD", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "SD"}); !errors.Is(err, ErrBroken) {
		t.Fatalf("append after failed fsync: %v, want ErrBroken", err)
	}
	// Checkpoint repairs, as with append failures.
	if err := m.Checkpoint("g", g); err != nil {
		t.Fatal(err)
	}
	g.AddNode("BA", nil)
	if err := m.LogRecord(context.Background(), "g", &Record{Kind: RecAddNode, Post: g.Version(), Label: "BA"}); err != nil {
		t.Fatal(err)
	}
}
