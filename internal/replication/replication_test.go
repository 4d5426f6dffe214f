package replication

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/storage"
	"expfinder/internal/testutil"
	"expfinder/internal/wal"
)

// ---- harness ----

// leaderEnv is one leader node: engine + WAL + replication listener.
type leaderEnv struct {
	eng    *engine.Engine
	wal    *wal.Manager
	leader *Leader
}

func newLeaderEnv(t *testing.T) *leaderEnv {
	t.Helper()
	le := startLeader(t, wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	t.Cleanup(func() {
		le.leader.Close()
		le.eng.Close()
	})
	return le
}

// startLeader opens a WAL with opts and starts a leader over it; the
// caller closes the leader and then the engine.
func startLeader(t *testing.T, opts wal.Options) *leaderEnv {
	t.Helper()
	m, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Persistence: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(LeaderOptions{
		Engine:         eng,
		WAL:            m,
		Listener:       ln,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	return &leaderEnv{eng: eng, wal: m, leader: l}
}

// newFollowerEnv starts a follower engine replicating from addr. dial
// nil means plain TCP.
func newFollowerEnv(t *testing.T, addr string, dial func(string) (net.Conn, error)) (*engine.Engine, *Follower) {
	t.Helper()
	eng := engine.New(engine.Options{})
	f, err := NewFollower(FollowerOptions{
		Engine:       eng,
		Leader:       addr,
		Dial:         dial,
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f.Close()
		eng.Close()
	})
	return eng, f
}

// imageOf renders one graph's exact image via the engine's read scope.
func imageOf(t *testing.T, eng *engine.Engine, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := eng.WithGraph(name, func(g *graph.Graph) error {
		return storage.WriteGraphImage(&buf, g)
	})
	if err != nil {
		t.Fatalf("image %q: %v", name, err)
	}
	return buf.Bytes()
}

// converged reports whether follower matches leader byte-for-byte on
// every graph (names and exact images).
func converged(leader, follower *engine.Engine) bool {
	ln, fn := leader.ListGraphs(), follower.ListGraphs()
	if len(ln) != len(fn) {
		return false
	}
	for i := range ln {
		if ln[i] != fn[i] {
			return false
		}
	}
	for _, name := range ln {
		var lb, fb bytes.Buffer
		if err := leader.WithGraph(name, func(g *graph.Graph) error { return storage.WriteGraphImage(&lb, g) }); err != nil {
			return false
		}
		if err := follower.WithGraph(name, func(g *graph.Graph) error { return storage.WriteGraphImage(&fb, g) }); err != nil {
			return false
		}
		if !bytes.Equal(lb.Bytes(), fb.Bytes()) {
			return false
		}
	}
	return true
}

func waitConverged(t *testing.T, leader, follower *engine.Engine, msg string) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for !converged(leader, follower) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: follower never converged (leader graphs %v at %v, follower %v at %v)",
				msg, leader.ListGraphs(), leader.GraphVersions(), follower.ListGraphs(), follower.GraphVersions())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mutate applies one random mutation (edge batch, node add/remove, attr
// set) through the leader's public API.
func mutate(t *testing.T, eng *engine.Engine, name string, r *rand.Rand) {
	t.Helper()
	switch r.Intn(10) {
	case 0: // add node
		if _, err := eng.AddNode(context.Background(), name, testutil.Labels[r.Intn(len(testutil.Labels))],
			graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))}); err != nil {
			t.Fatal(err)
		}
	case 1: // remove a random node
		var nodes []graph.NodeID
		_ = eng.WithGraph(name, func(g *graph.Graph) error {
			nodes = g.Nodes()
			return nil
		})
		if len(nodes) <= 2 {
			return
		}
		if err := eng.RemoveNode(context.Background(), name, nodes[r.Intn(len(nodes))]); err != nil && !errors.Is(err, graph.ErrNoNode) {
			t.Fatal(err)
		}
	case 2: // set an attribute
		var nodes []graph.NodeID
		_ = eng.WithGraph(name, func(g *graph.Graph) error {
			nodes = g.Nodes()
			return nil
		})
		if len(nodes) == 0 {
			return
		}
		if err := eng.SetNodeAttr(context.Background(), name, nodes[r.Intn(len(nodes))], "experience",
			graph.Int(int64(r.Intn(10)))); err != nil {
			t.Fatal(err)
		}
	default: // edge update batch
		var ops []incremental.Update
		_ = eng.WithGraph(name, func(g *graph.Graph) error {
			work := g.Clone()
			for _, op := range testutil.RandomOps(r, work, 1+r.Intn(4)) {
				ops = append(ops, incremental.Update{Insert: op.Insert, From: op.From, To: op.To})
			}
			return nil
		})
		if len(ops) == 0 {
			return
		}
		if _, err := eng.ApplyUpdates(name, ops); err != nil {
			t.Fatal(err)
		}
	}
}

// ---- protocol ----

func TestProtocolRoundTrip(t *testing.T) {
	versions := map[string]uint64{"g": 42, "h": 0, "deep/name": 7}
	incs := map[string]uint64{"g": 11, "h": 12}
	hello, err := EncodeHello(versions, incs)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := EncodeSnapshot("g", 99, []byte{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	named, err := EncodeNamed(MsgRecord, "g", []byte{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	drop, err := EncodeNamed(MsgDrop, "g", nil)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := EncodeVersions(MsgHeartbeat, versions)
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	for _, p := range [][]byte{hello, named, drop, hb, snap} {
		if err := WriteFrame(&wire, p); err != nil {
			t.Fatal(err)
		}
	}
	br := bufio.NewReader(bytes.NewReader(wire.Bytes()))
	for i, wantType := range []byte{MsgHello, MsgRecord, MsgDrop, MsgHeartbeat, MsgSnapshot} {
		payload, err := ReadFrame(br)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		msg, err := DecodeMessage(payload)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if msg.Type != wantType {
			t.Fatalf("frame %d: type %d, want %d", i, msg.Type, wantType)
		}
		switch wantType {
		case MsgHello:
			if msg.Proto != ProtoVersion || len(msg.Graphs) != len(versions) || msg.Graphs["g"] != 42 {
				t.Fatalf("hello mangled: %+v", msg)
			}
			if len(msg.Incs) != len(incs) || msg.Incs["g"] != 11 {
				t.Fatalf("hello incarnations mangled: %+v", msg)
			}
		case MsgSnapshot:
			if msg.Name != "g" || msg.Incarnation != 99 || !bytes.Equal(msg.Data, []byte{1, 2, 3}) {
				t.Fatalf("snapshot mangled: %+v", msg)
			}
		case MsgRecord:
			if msg.Name != "g" || !bytes.Equal(msg.Data, []byte{9, 8, 7}) {
				t.Fatalf("record mangled: %+v", msg)
			}
		case MsgDrop:
			if msg.Name != "g" || len(msg.Data) != 0 {
				t.Fatalf("drop mangled: %+v", msg)
			}
		case MsgHeartbeat:
			if msg.Graphs["deep/name"] != 7 {
				t.Fatalf("heartbeat mangled: %+v", msg)
			}
		}
	}
}

func TestReadFrameRejectsDamage(t *testing.T) {
	payload, err := EncodeNamed(MsgRecord, "g", []byte("body"))
	if err != nil {
		t.Fatal(err)
	}
	var wire bytes.Buffer
	if err := WriteFrame(&wire, payload); err != nil {
		t.Fatal(err)
	}
	full := wire.Bytes()

	// Every truncation point mid-frame must fail loudly, except a cut at
	// offset 0 (clean EOF at a frame boundary).
	for cut := 1; cut < len(full); cut++ {
		br := bufio.NewReader(bytes.NewReader(full[:cut]))
		if _, err := ReadFrame(br); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("cut at %d: got %v, want ErrBadFrame", cut, err)
		}
	}
	// Every single-byte corruption must fail the checksum or the decode —
	// never pass through silently as a different valid message.
	for i := 0; i < len(full); i++ {
		damaged := append([]byte(nil), full...)
		damaged[i] ^= 0x40
		br := bufio.NewReader(bytes.NewReader(damaged))
		p, err := ReadFrame(br)
		if err != nil {
			continue
		}
		msg, err := DecodeMessage(p)
		if err != nil {
			continue
		}
		// The flipped bit landed in the length varint and re-framed the
		// stream into another CRC-valid message — astronomically unlikely
		// with a real CRC; if it decodes it must still be a record.
		if msg.Type != MsgRecord {
			t.Fatalf("corruption at %d decoded to type %d", i, msg.Type)
		}
	}
}

// ---- leader/follower lifecycle ----

func TestLeaderFollowerBasic(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(1))

	// Graph created BEFORE the follower connects: snapshot install.
	if err := le.eng.AddGraph("before", testutil.RandomGraph(r, 20, 60)); err != nil {
		t.Fatal(err)
	}
	feng, f := newFollowerEnv(t, le.leader.Addr(), nil)
	waitConverged(t, le.eng, feng, "initial snapshot")

	// Graph created AFTER: broadcast snapshot.
	if err := le.eng.AddGraph("after", testutil.RandomGraph(r, 10, 30)); err != nil {
		t.Fatal(err)
	}
	// Live mutations on both graphs: record replay.
	for i := 0; i < 40; i++ {
		mutate(t, le.eng, "before", r)
		mutate(t, le.eng, "after", r)
	}
	waitConverged(t, le.eng, feng, "live records")

	// Writes on the follower are rejected with the leader's address.
	_, err := feng.AddNode(context.Background(), "before", "SA", nil)
	if !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("follower write: got %v, want ErrReadOnly", err)
	}
	var roErr *engine.ReadOnlyError
	if !errors.As(err, &roErr) || roErr.Leader != le.leader.Addr() {
		t.Fatalf("follower write error does not name the leader: %v", err)
	}
	if _, err := feng.ApplyUpdates("before", []incremental.Update{{Insert: true, From: 0, To: 1}}); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("ApplyUpdates on follower: got %v, want ErrReadOnly", err)
	}
	if err := feng.RemoveGraph("before"); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("RemoveGraph on follower: got %v, want ErrReadOnly", err)
	}

	// A leader-side drop propagates.
	if err := le.eng.RemoveGraph("after"); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, le.eng, feng, "drop")

	// Lag is reported once heartbeats flow.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := f.Status()
		if st.Role == "follower" && st.Connected && st.RecordsApplied > 0 && len(st.LeaderVersions) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower status never settled: %+v", f.Status())
		}
		time.Sleep(5 * time.Millisecond)
	}
	lst := le.leader.Status()
	if lst.Role != "leader" || len(lst.Followers) != 1 {
		t.Fatalf("leader status: %+v", lst)
	}
}

func TestFollowerPromote(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(2))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 15, 40)); err != nil {
		t.Fatal(err)
	}
	feng, f := newFollowerEnv(t, le.leader.Addr(), nil)
	waitConverged(t, le.eng, feng, "pre-promote")

	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	if st := f.Status(); st.Role != "leader" {
		t.Fatalf("promoted follower still reports role %q", st.Role)
	}
	// Writable now.
	if _, err := feng.AddNode(context.Background(), "g", "SA", nil); err != nil {
		t.Fatalf("write after promote: %v", err)
	}
	// And the old leader rejects Promote by construction.
	if err := le.leader.Promote(); err == nil {
		t.Fatal("leader Promote must fail")
	}
}

// ---- fault injection ----

// TestMidStreamDisconnectResumes severs the replication link mid-stream
// at arbitrary byte counts (torn frame on the wire) and checks the
// follower reconnects and resumes from its applied offset via record
// replay — snapshots must not be needed when the leader's retained WAL
// covers the gap.
func TestMidStreamDisconnectResumes(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(3))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 25, 70)); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var conns []*testutil.FaultConn
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := testutil.NewFaultConn(c)
		mu.Lock()
		conns = append(conns, fc)
		mu.Unlock()
		return fc, nil
	}
	feng, f := newFollowerEnv(t, le.leader.Addr(), dial)
	waitConverged(t, le.eng, feng, "initial")

	for round := 0; round < 5; round++ {
		// Arm a read-side cut at a random byte count, then keep mutating:
		// the cut lands mid-frame somewhere in the record stream.
		mu.Lock()
		cur := conns[len(conns)-1]
		mu.Unlock()
		cur.SeverAfterRead(int64(1 + r.Intn(200)))
		for i := 0; i < 30; i++ {
			mutate(t, le.eng, "g", r)
		}
		waitConverged(t, le.eng, feng, fmt.Sprintf("round %d", round))
	}
	st := f.Status()
	if st.Reconnects == 0 {
		t.Fatal("fault injection never forced a reconnect")
	}
	if st.SnapshotsInstalled > 1 {
		t.Fatalf("WAL-covered resume took %d snapshots, want the initial one only", st.SnapshotsInstalled)
	}
}

// TestCheckpointWhileAwayFallsBackToSnapshot disconnects a follower,
// mutates, and checkpoints the leader's graph while the follower is away:
// the checkpoint truncated the log below the follower's version, so the
// reconnect must install exactly one more snapshot.
func TestCheckpointWhileAwayFallsBackToSnapshot(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(4))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 25, 70)); err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var cur *testutil.FaultConn
	var away atomic.Bool
	dial := func(addr string) (net.Conn, error) {
		if away.Load() {
			return nil, errors.New("follower kept away")
		}
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		fc := testutil.NewFaultConn(c)
		mu.Lock()
		cur = fc
		mu.Unlock()
		return fc, nil
	}
	feng, f := newFollowerEnv(t, le.leader.Addr(), dial)
	waitConverged(t, le.eng, feng, "initial")
	// The counter ticks just after an install lands, so wait for it.
	waitSnapshots := func(n uint64) uint64 {
		deadline := time.Now().Add(5 * time.Second)
		for f.Status().SnapshotsInstalled < n && time.Now().Before(deadline) {
			time.Sleep(2 * time.Millisecond)
		}
		return f.Status().SnapshotsInstalled
	}
	base := waitSnapshots(1)

	// Cut the link and keep the follower away until the checkpoint lands.
	away.Store(true)
	mu.Lock()
	cur.Sever()
	mu.Unlock()
	for i := 0; i < 100; i++ {
		mutate(t, le.eng, "g", r)
	}
	if err := le.eng.Checkpoint("g"); err != nil {
		t.Fatal(err)
	}
	away.Store(false)
	waitConverged(t, le.eng, feng, "post-checkpoint")
	if got := waitSnapshots(base + 1); got != base+1 {
		t.Fatalf("catch-up across a checkpoint took %d snapshots, want exactly one more than %d", got, base)
	}
}

// TestSlowFollowerSevered gives the leader a tiny outbox and a follower
// that drains slowly under sustained ingest: the leader must sever it
// rather than stall the mutation path, and the follower must recover by
// reconnecting.
func TestSlowFollowerSevered(t *testing.T) {
	m, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Persistence: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLeader(LeaderOptions{
		Engine:         eng,
		WAL:            m,
		Listener:       ln,
		OutboxFrames:   4, // overflow almost immediately
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		eng.Close()
	})
	r := rand.New(rand.NewSource(5))
	if err := eng.AddGraph("g", testutil.RandomGraph(r, 25, 70)); err != nil {
		t.Fatal(err)
	}

	// The first connection reads at a crawl; later ones run clean.
	var mu sync.Mutex
	slowOnce := true
	dial := func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		slow := slowOnce
		slowOnce = false
		mu.Unlock()
		if !slow {
			return c, nil
		}
		fc := testutil.NewFaultConn(c)
		fc.SetDelay(20 * time.Millisecond)
		return fc, nil
	}
	feng, _ := newFollowerEnv(t, l.Addr(), dial)
	// Sustained ingest while the follower crawls: the outbox overflows.
	deadline := time.Now().Add(10 * time.Second)
	for l.Status().Severed == 0 {
		mutate(t, eng, "g", r)
		if time.Now().After(deadline) {
			t.Fatal("slow follower was never severed")
		}
	}
	// The reconnect (clean conn) catches back up.
	waitConverged(t, eng, feng, "post-sever")
}

// TestFollowerPersistenceRestart gives the follower its own WAL: applied
// records re-log locally, so a follower restart recovers its state from
// disk and resumes from that offset.
func TestFollowerPersistenceRestart(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(6))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 20, 60)); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	state := filepath.Join(t.TempDir(), "replication-state.json")

	fm, err := wal.Open(wal.Options{Dir: fdir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	feng := engine.New(engine.Options{Persistence: fm})
	f, err := NewFollower(FollowerOptions{
		Engine: feng, Leader: le.leader.Addr(), StateFile: state,
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		mutate(t, le.eng, "g", r)
	}
	waitConverged(t, le.eng, feng, "first follower")
	f.Close()
	feng.Close()

	// Restart: recover from the follower's own WAL, then reconnect.
	fm2, err := wal.Open(wal.Options{Dir: fdir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	feng2 := engine.New(engine.Options{Persistence: fm2})
	if _, err := feng2.Recover(); err != nil {
		t.Fatal(err)
	}
	if !converged(le.eng, feng2) {
		t.Fatal("recovered follower state diverged from leader before reconnect")
	}
	for i := 0; i < 20; i++ {
		mutate(t, le.eng, "g", r)
	}
	f2, err := NewFollower(FollowerOptions{
		Engine: feng2, Leader: le.leader.Addr(), StateFile: state,
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f2.Close()
		feng2.Close()
	})
	waitConverged(t, le.eng, feng2, "restarted follower")
	if st := f2.Status(); st.SnapshotsInstalled != 0 {
		t.Fatalf("restart resumed by %d snapshots, want record replay from the recovered offset", st.SnapshotsInstalled)
	}
}

// TestFollowerRestartWithoutStateResyncsBySnapshot is the safety
// counterpart: a restarted follower with recovered graph data but no
// incarnation state must NOT be trusted for version arithmetic — the
// leader re-seeds it by snapshot even though its versions look right.
func TestFollowerRestartWithoutStateResyncsBySnapshot(t *testing.T) {
	le := newLeaderEnv(t)
	r := rand.New(rand.NewSource(7))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 15, 40)); err != nil {
		t.Fatal(err)
	}
	fdir := t.TempDir()
	fm, err := wal.Open(wal.Options{Dir: fdir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	feng := engine.New(engine.Options{Persistence: fm})
	f, err := NewFollower(FollowerOptions{
		Engine: feng, Leader: le.leader.Addr(),
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	waitConverged(t, le.eng, feng, "first follower")
	f.Close()
	feng.Close()

	fm2, err := wal.Open(wal.Options{Dir: fdir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	feng2 := engine.New(engine.Options{Persistence: fm2})
	if _, err := feng2.Recover(); err != nil {
		t.Fatal(err)
	}
	f2, err := NewFollower(FollowerOptions{
		Engine: feng2, Leader: le.leader.Addr(),
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		f2.Close()
		feng2.Close()
	})
	waitConverged(t, le.eng, feng2, "restarted follower")
	deadline := time.Now().Add(5 * time.Second)
	for f2.Status().SnapshotsInstalled == 0 {
		if time.Now().After(deadline) {
			t.Fatal("unverifiable restart state was resumed by replay, want snapshot re-seed")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestShutdownLeaksNoGoroutines starts a leader, a follower and one
// catch-up, then closes follower, leader and both engines: every
// goroutine replication started (accept, heartbeat, per-follower reader
// and writer, the follower's run loop) and the WAL's sync loop must be
// gone within a deadline.
func TestShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	le := startLeader(t, wal.Options{Dir: t.TempDir()}) // interval fsync: a sync loop runs too
	r := rand.New(rand.NewSource(8))
	if err := le.eng.AddGraph("g", testutil.RandomGraph(r, 15, 40)); err != nil {
		t.Fatal(err)
	}
	feng := engine.New(engine.Options{})
	f, err := NewFollower(FollowerOptions{
		Engine: feng, Leader: le.leader.Addr(),
		ReconnectMin: 10 * time.Millisecond, ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		mutate(t, le.eng, "g", r)
	}
	waitConverged(t, le.eng, feng, "before shutdown")

	f.Close()
	le.leader.Close()
	feng.Close()
	le.eng.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			var dump bytes.Buffer
			_ = pprof.Lookup("goroutine").WriteTo(&dump, 1)
			t.Fatalf("%d goroutines after shutdown, %d before:\n%s", runtime.NumGoroutine(), before, dump.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
