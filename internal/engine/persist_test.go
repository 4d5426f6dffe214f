package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"time"

	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/partition"
	"expfinder/internal/stats"
	"expfinder/internal/storage"
	"expfinder/internal/testutil"
	"expfinder/internal/wal"
)

// durableEngine builds an engine persisting under dir.
func durableEngine(t *testing.T, dir string, opts wal.Options) *Engine {
	t.Helper()
	opts.Dir = dir
	m, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	e := New(Options{Persistence: m})
	t.Cleanup(func() { e.Close() })
	return e
}

func engineImage(t *testing.T, e *Engine, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.WithGraph(name, func(g *graph.Graph) error {
		return storage.WriteGraphImage(&buf, g)
	}); err != nil {
		t.Fatalf("image %q: %v", name, err)
	}
	return buf.Bytes()
}

// churn drives a deterministic mutation mix through every engine
// mutation path (the ones the WAL must cover).
func churn(t *testing.T, e *Engine, name string, r *rand.Rand, steps int) {
	t.Helper()
	for i := 0; i < steps; i++ {
		g, err := e.Graph(name)
		if err != nil {
			t.Fatal(err)
		}
		nodes := g.Nodes()
		switch k := r.Intn(10); {
		case k < 6:
			if len(nodes) < 2 {
				continue
			}
			var ops []incremental.Update
			for j := 0; j < 1+r.Intn(5); j++ {
				u := nodes[r.Intn(len(nodes))]
				v := nodes[r.Intn(len(nodes))]
				if u == v {
					continue
				}
				if g.HasEdge(u, v) {
					ops = append(ops, incremental.Delete(u, v))
				} else {
					ops = append(ops, incremental.Insert(u, v))
				}
				break // one op per batch keeps every op valid
			}
			if len(ops) == 0 {
				continue
			}
			if _, err := e.ApplyUpdates(name, ops); err != nil {
				t.Fatalf("ApplyUpdates: %v", err)
			}
		case k < 8:
			label := testutil.Labels[r.Intn(len(testutil.Labels))]
			if _, err := e.AddNode(context.Background(), name, label, graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))}); err != nil {
				t.Fatalf("AddNode: %v", err)
			}
		case k < 9:
			if len(nodes) < 4 {
				continue
			}
			if err := e.RemoveNode(context.Background(), name, nodes[r.Intn(len(nodes))]); err != nil {
				t.Fatalf("RemoveNode: %v", err)
			}
		default:
			if len(nodes) == 0 {
				continue
			}
			if err := e.SetNodeAttr(context.Background(), name, nodes[r.Intn(len(nodes))], "experience", graph.Int(int64(r.Intn(50)))); err != nil {
				t.Fatalf("SetNodeAttr: %v", err)
			}
		}
	}
}

func TestRecoverEmptyDataDir(t *testing.T) {
	e := durableEngine(t, t.TempDir(), wal.Options{})
	sum, err := e.Recover()
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if len(sum.Graphs) != 0 {
		t.Fatalf("recovered %d graphs from an empty dir", len(sum.Graphs))
	}
	// The engine is fully usable afterwards.
	if err := e.AddGraph("g", testutil.RandomGraph(rand.New(rand.NewSource(1)), 10, 20)); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverWithoutPersistenceErrors(t *testing.T) {
	e := New(Options{})
	if _, err := e.Recover(); !errors.Is(err, ErrNoPersistence) {
		t.Fatalf("got %v, want ErrNoPersistence", err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("Close without persistence: %v", err)
	}
}

func TestRecoverSnapshotWithNoWAL(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(3))
	e := durableEngine(t, dir, wal.Options{})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 25, 60)); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 40)
	if err := e.Checkpoint("g"); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	want := engineImage(t, e, "g")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Strip the (empty) post-checkpoint segment: pure snapshot on disk.
	gdir := filepath.Join(dir, "graphs", "g")
	entries, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	removedSeg := false
	for _, en := range entries {
		if strings.HasPrefix(en.Name(), "wal-") {
			if err := os.Remove(filepath.Join(gdir, en.Name())); err != nil {
				t.Fatal(err)
			}
			removedSeg = true
		}
	}
	if !removedSeg {
		t.Fatal("expected a segment to remove")
	}

	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Err != "" {
		t.Fatalf("recovery summary: %+v", sum.Graphs)
	}
	if sum.Graphs[0].Records != 0 {
		t.Fatalf("snapshot-only recovery replayed %d records", sum.Graphs[0].Records)
	}
	if !bytes.Equal(engineImage(t, e2, "g"), want) {
		t.Fatal("snapshot-only recovery diverged")
	}
}

func TestRecoverWALWithNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, wal.Options{})
	// An empty graph gets no initial snapshot; every mutation below lives
	// only in the log.
	if err := e.AddGraph("g", graph.New(0)); err != nil {
		t.Fatal(err)
	}
	a, err := e.AddNode(context.Background(), "g", "SA", graph.Attrs{"name": graph.String("Ann")})
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.AddNode(context.Background(), "g", "SD", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyUpdates("g", []incremental.Update{incremental.Insert(a, b)}); err != nil {
		t.Fatal(err)
	}
	want := engineImage(t, e, "g")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(filepath.Join(dir, "graphs", "g"))
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		if strings.HasPrefix(en.Name(), "snapshot-") {
			t.Fatalf("empty-graph create unexpectedly wrote %s", en.Name())
		}
	}

	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Err != "" || sum.Graphs[0].Records != 3 {
		t.Fatalf("recovery summary: %+v", sum.Graphs)
	}
	if !bytes.Equal(engineImage(t, e2, "g"), want) {
		t.Fatal("WAL-only recovery diverged")
	}
}

// TestRecoverDropsAcceleratorsAfterCrash: only the graph is durable. A
// graph carrying all three operator-built accelerators — a distance
// index, a partitioning and a bisimulation quotient — is checkpointed,
// written to and crashed: its data directory is copied while the engine
// is still open, so nothing is flushed, checkpointed or closed on the
// way down. The recovered engine holds none of the accelerators, its
// statistics are a fresh recount, its directory holds only snapshots
// and segments, and a bounded query answers exactly as before the crash.
func TestRecoverDropsAcceleratorsAfterCrash(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(5))
	e := durableEngine(t, dir, wal.Options{Fsync: wal.FsyncAlways})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 80, 260)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("g", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompressGraph("g", compress.Bisimulation, nil); err != nil {
		t.Fatal(err)
	}
	if err := e.Checkpoint("g"); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 40)
	q := dataset.PaperQuery()
	want, err := e.Query("g", q, 5)
	if err != nil {
		t.Fatal(err)
	}
	g, err := e.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	wantVersion, wantImage := g.Version(), engineImage(t, e, "g")
	crashed := t.TempDir()
	if err := os.CopyFS(crashed, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, crashed, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Err != "" {
		t.Fatalf("recovery summary: %+v", sum.Graphs)
	}
	g2, err := e2.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != wantVersion || !bytes.Equal(engineImage(t, e2, "g"), wantImage) {
		t.Fatal("recovered graph differs from the graph at the crash")
	}
	if _, err := e2.IndexStats("g"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("IndexStats after recovery: %v, want ErrNoIndex", err)
	}
	if _, err := e2.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("PartitionStats after recovery: %v, want ErrNoPartition", err)
	}
	if c, err := e2.Compressed("g"); err != nil || c != nil {
		t.Fatalf("Compressed after recovery: %v, %v, want none", c, err)
	}
	st, err := e2.GraphStatistics("g")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(stats.Compute(g2)) {
		t.Fatal("recovered statistics differ from a recount of the recovered graph")
	}
	entries, err := os.ReadDir(filepath.Join(crashed, "graphs", "g"))
	if err != nil {
		t.Fatal(err)
	}
	for _, en := range entries {
		n := en.Name()
		if !strings.HasPrefix(n, "snapshot-") && !strings.HasPrefix(n, "wal-") {
			t.Fatalf("graph directory holds %s: want snapshots, segments and torn segments only", n)
		}
	}
	res, err := e2.Query("g", q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.String() != want.Relation.String() || !sameRanking(res.TopK, want.TopK) {
		t.Fatalf("post-recovery answer diverged (plan %v before, %v after)", want.Plan, res.Plan)
	}
	if want.Plan != PlanBounded || res.Plan != PlanBounded || want.Source != SourceDirect || res.Source != SourceDirect || len(want.TopK) == 0 {
		t.Fatalf("plan/source %v/%v -> %v/%v with %d ranked: want bounded-simulation/direct on both sides of the crash, and matches",
			want.Plan, want.Source, res.Plan, res.Source, len(want.TopK))
	}
}

// TestRecoverIgnoresOldSideFiles: a graph directory written before
// derived state stopped being persisted may still hold index.json,
// stats.json and an interrupted .idx-* temp file beside its snapshot and
// segments. Recovery restores the same image and version, builds no
// index, recounts statistics instead of trusting the stale stats.json,
// and leaves the files alone.
func TestRecoverIgnoresOldSideFiles(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(9))
	e := durableEngine(t, dir, wal.Options{})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 30, 90)); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 30)
	g, err := e.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	wantVersion, wantImage := g.Version(), engineImage(t, e, "g")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// The formats the side files had: index re-arm metadata, a statistics
	// snapshot claiming the current version with counts that no longer
	// describe the graph, and a metadata write cut short.
	side := map[string]string{
		"index.json": fmt.Sprintf(`{"landmarks":16,"graph_version":%d}`, wantVersion),
		"stats.json": fmt.Sprintf(`{"graph_version":%d,"nodes":1,"edges":0,"out_degree_hist":[{"up_to":0,"count":1}],`+
			`"in_degree_hist":[{"up_to":0,"count":1}],"labels":{"SA":1},"label_pairs":[],"rebuilds":1}`, wantVersion),
		".idx-4127": `{"landmarks":`,
	}
	gdir := filepath.Join(dir, "graphs", "g")
	for name, body := range side {
		if err := os.WriteFile(filepath.Join(gdir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Err != "" {
		t.Fatalf("recovery summary: %+v", sum.Graphs)
	}
	g2, err := e2.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != wantVersion || !bytes.Equal(engineImage(t, e2, "g"), wantImage) {
		t.Fatal("recovered graph differs from the graph at close")
	}
	if _, err := e2.IndexStats("g"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("IndexStats after recovery: %v, want ErrNoIndex", err)
	}
	st, err := e2.GraphStatistics("g")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Equal(stats.Compute(g2)) {
		t.Fatal("recovered statistics differ from a recount of the recovered graph")
	}
	for name, body := range side {
		got, err := os.ReadFile(filepath.Join(gdir, name))
		if err != nil || string(got) != body {
			t.Fatalf("side file %s changed by recovery: %q, %v", name, got, err)
		}
	}
}

func TestDroppedIndexStaysDroppedAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(9))
	e := durableEngine(t, dir, wal.Options{})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 20, 50)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("g", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("g"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Err != "" {
		t.Fatalf("recovery summary: %+v", sum.Graphs)
	}
	if _, err := e2.IndexStats("g"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("IndexStats: %v, want ErrNoIndex", err)
	}
}

func TestEngineCrashRecoveryTornLog(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(21))
	e := durableEngine(t, dir, wal.Options{Fsync: wal.FsyncOff})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 30, 80)); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 120)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	gdir := filepath.Join(dir, "graphs", "g")
	entries, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	var segPath string
	for _, en := range entries {
		if strings.HasPrefix(en.Name(), "wal-") {
			segPath = filepath.Join(gdir, en.Name())
		}
	}
	info, err := os.Stat(segPath)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the log mid-record (any odd offset into the body is fine) and
	// recover: the engine must come back, just slightly behind.
	if err := os.Truncate(segPath, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Err != "" {
		t.Fatalf("recovery summary: %+v", sum.Graphs)
	}
	if !sum.Graphs[0].TornTail {
		t.Fatal("mid-record truncation not reported as a torn tail")
	}
	// The recovered engine accepts new work and round-trips again.
	churn(t, e2, "g", rand.New(rand.NewSource(22)), 20)
	want := engineImage(t, e2, "g")
	if err := e2.Close(); err != nil {
		t.Fatal(err)
	}
	e3 := durableEngine(t, dir, wal.Options{})
	if _, err := e3.Recover(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engineImage(t, e3, "g"), want) {
		t.Fatal("post-torn-recovery state lost on the next restart")
	}
}

// TestRecoverRestoresExactVersion pins what version-keyed consumers (the
// result cache's keys, a follower's RestoreVersion) rely on: a recovered
// graph re-enters at the exact mutation count it was closed at, not at a
// count recomputed from the replay, and with the identical image.
func TestRecoverRestoresExactVersion(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(31))
	e := durableEngine(t, dir, wal.Options{})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 30, 90)); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 30)
	g, err := e.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	wantVersion, wantImage := g.Version(), engineImage(t, e, "g")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, dir, wal.Options{})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	g2, err := e2.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	if g2.Version() != wantVersion {
		t.Fatalf("recovered at version %d, closed at %d", g2.Version(), wantVersion)
	}
	if !bytes.Equal(engineImage(t, e2, "g"), wantImage) {
		t.Fatal("recovered image differs from the image at close")
	}
}

func TestAddGraphConflictsWithPersistedState(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, wal.Options{})
	g := graph.New(0)
	g.AddNode("SA", nil)
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Un-recovered leftover state blocks silent clobbering...
	e2 := durableEngine(t, dir, wal.Options{})
	if err := e2.AddGraph("g", graph.New(0)); err == nil {
		t.Fatal("AddGraph clobbered persisted state without Recover")
	}
	// ...Recover registers it, after which the name is taken as usual...
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddGraph("g", graph.New(0)); !errors.Is(err, ErrGraphExists) {
		t.Fatalf("AddGraph after recover: %v, want ErrGraphExists", err)
	}
	// ...and RemoveGraph frees both the registry slot and the disk state.
	if err := e2.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	if err := e2.AddGraph("g", graph.New(0)); err != nil {
		t.Fatalf("AddGraph after remove: %v", err)
	}
}

func TestRemovedGraphDoesNotComeBack(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, wal.Options{})
	g := graph.New(0)
	g.AddNode("SA", nil)
	if err := e.AddGraph("keep", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := e.AddGraph("gone", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveGraph("gone"); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Graphs) != 1 || sum.Graphs[0].Name != "keep" {
		t.Fatalf("recovered %+v, want only %q", sum.Graphs, "keep")
	}
}

func TestCheckpointLoopTriggers(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(51))
	e := durableEngine(t, dir, wal.Options{
		CheckpointBytes:    128,
		CheckpointInterval: 10 * time.Millisecond,
	})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 20, 40)); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 80)
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := e.PersistenceStats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Checkpoints >= 2 { // create's initial snapshot counts as one
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpointer never fired: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestRolledBackBatchKeepsRecoveryByteIdentical(t *testing.T) {
	dir := t.TempDir()
	e := durableEngine(t, dir, wal.Options{})
	g := graph.New(0)
	a := g.AddNode("SA", nil)
	b := g.AddNode("SD", nil)
	c := g.AddNode("BA", nil)
	d := g.AddNode("ST", nil)
	for _, v := range []graph.NodeID{b, c, d} {
		if err := g.AddEdge(a, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	// A batch whose second op fails: the applied Delete(a,b) is rolled
	// back by APPEND, so out[a] ends [d,c,b] — content unchanged, order
	// not. Recovery must reproduce that order (the image codec
	// serializes adjacency order), so the rollback may not be logged as
	// a bare version bump.
	_, err := e.ApplyUpdates("g", []incremental.Update{
		incremental.Delete(a, b),
		incremental.Delete(a, graph.NodeID(99)), // fails: no such node
	})
	if err == nil {
		t.Fatal("batch with an invalid op unexpectedly succeeded")
	}
	live := engineImage(t, e, "g")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2 := durableEngine(t, dir, wal.Options{})
	if _, err := e2.Recover(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(engineImage(t, e2, "g"), live) {
		t.Fatal("live and recovered images diverge after a rolled-back batch")
	}
}

// TestFsyncPoliciesAgree applies one seeded stream of 20 edge batches, one
// of them rolled back, with no persistence and under each fsync policy. The
// policy decides when bytes reach the disk, never which: the four final
// images are byte-equal, and every durable arm, closed and recovered into a
// fresh engine, reproduces that image.
func TestFsyncPoliciesAgree(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	base := testutil.RandomGraph(r, 40, 120)
	mirror := base.Clone()
	const rolledBack = 7
	stream := make([][]incremental.Update, 20)
	for i := range stream {
		if i == rolledBack {
			// Valid ops, drawn against a copy so the mirror stays where the
			// engines will be after the rollback, then one that fails.
			stream[i] = append(engineRandomOps(r, mirror.Clone(), 3),
				incremental.Delete(0, graph.NodeID(mirror.MaxID()+1)))
			continue
		}
		stream[i] = engineRandomOps(r, mirror, 8)
	}

	arms := []struct {
		name    string
		durable bool
		policy  wal.FsyncPolicy
	}{
		{"memory", false, 0},
		{"off", true, wal.FsyncOff},
		{"interval", true, wal.FsyncInterval},
		{"always", true, wal.FsyncAlways},
	}
	var want []byte
	for _, arm := range arms {
		e, dir := New(Options{}), ""
		if arm.durable {
			dir = t.TempDir()
			e = durableEngine(t, dir, wal.Options{Fsync: arm.policy})
		}
		if err := e.AddGraph("g", base.Clone()); err != nil {
			t.Fatal(err)
		}
		for i, ops := range stream {
			if _, err := e.ApplyUpdates("g", ops); (err != nil) != (i == rolledBack) {
				t.Fatalf("%s: batch %d: err = %v", arm.name, i, err)
			}
		}
		image := engineImage(t, e, "g")
		if want == nil {
			want = image
		} else if !bytes.Equal(image, want) {
			t.Errorf("%s: final image differs from the %s arm's", arm.name, arms[0].name)
		}
		if !arm.durable {
			continue
		}
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		e2 := durableEngine(t, dir, wal.Options{})
		if _, err := e2.Recover(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(engineImage(t, e2, "g"), want) {
			t.Errorf("%s: recovered image differs from the live one", arm.name)
		}
	}
}

func TestRemoveGraphClearsUnrecoveredState(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(61))
	e := durableEngine(t, dir, wal.Options{Fsync: wal.FsyncOff, SegmentBytes: 256})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 20, 40)); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 60)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt a middle segment so recovery fails and the graph ends up
	// on disk but unregistered.
	gdir := filepath.Join(dir, "graphs", "g")
	entries, err := os.ReadDir(gdir)
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, en := range entries {
		if strings.HasPrefix(en.Name(), "wal-") && strings.HasSuffix(en.Name(), ".seg") {
			segs = append(segs, en.Name())
		}
	}
	if len(segs) < 2 {
		t.Fatalf("need >=2 segments to corrupt a middle one, got %d", len(segs))
	}
	mid := filepath.Join(gdir, segs[0])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failed()) != 1 {
		t.Fatalf("expected one failed recovery, got %+v", sum.Graphs)
	}
	// The name must not be wedged: RemoveGraph clears the on-disk state
	// even though nothing is registered, after which the name is free.
	if err := e2.RemoveGraph("g"); err != nil {
		t.Fatalf("RemoveGraph of unrecovered state: %v", err)
	}
	if err := e2.RemoveGraph("g"); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("second RemoveGraph: %v, want ErrNoGraph", err)
	}
	if err := e2.AddGraph("g", testutil.RandomGraph(r, 5, 8)); err != nil {
		t.Fatalf("AddGraph after clearing wedged state: %v", err)
	}
}
