package replication

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/engine"
	"expfinder/internal/storage"
	"expfinder/internal/wal"
)

// Follower defaults.
const (
	DefaultReconnectMin    = 100 * time.Millisecond
	DefaultReconnectMax    = 5 * time.Second
	DefaultSessionDeadline = 15 * time.Second
	dialTimeout            = 5 * time.Second
)

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Engine is the local engine fed with leader state. Required. It is
	// put in read-only mode for the follower's lifetime (Promote clears
	// it).
	Engine *engine.Engine
	// Leader is the leader's replication address. Required.
	Leader string
	// Dial overrides the dialer (tests inject fault-wrapped conns).
	Dial func(addr string) (net.Conn, error)
	// ReconnectMin/Max bound the exponential redial backoff.
	ReconnectMin time.Duration
	ReconnectMax time.Duration
	// SessionDeadline severs a session with no inbound frames for this
	// long — the leader heartbeats far more often, so silence means a
	// dead link. Default DefaultSessionDeadline.
	SessionDeadline time.Duration
	// StateFile, when set, persists the per-graph incarnation ids (JSON,
	// atomic rename) so a restarted follower can resume by record replay
	// instead of re-seeding every graph by snapshot. Graph data itself is
	// recovered from the follower's own WAL; this file only records which
	// leader-side history that data belongs to. It is written strictly
	// after the state it describes is durable, so at worst it lags — and
	// a lagging incarnation merely costs one snapshot re-seed.
	StateFile string
	// Logger receives connection lifecycle records; nil discards them.
	Logger *slog.Logger
}

// Follower maintains a replication session to a leader: it dials with
// backoff, hands the leader its per-graph applied versions (the resume
// offsets), and applies whatever comes back — snapshot installs or
// record replays — through the engine's replicated-apply paths. The
// engine serves reads, queries, and subscriptions throughout; writes
// fail with the read_only envelope until Promote.
type Follower struct {
	opts FollowerOptions

	stopc    chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup

	mu             sync.Mutex
	conn           net.Conn
	connected      bool
	promoted       bool
	leaderVersions map[string]uint64
	// incs maps each local graph to the incarnation id of the leader
	// history it was seeded from; echoed in the hello so the leader knows
	// whether version arithmetic against this follower is valid.
	incs map[string]uint64

	reconnects         atomic.Uint64
	snapshotsInstalled atomic.Uint64
	recordsApplied     atomic.Uint64
}

// NewFollower puts the engine in read-only mode and starts replicating.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if opts.Engine == nil || opts.Leader == "" {
		return nil, errors.New("replication: follower needs Engine and Leader")
	}
	if opts.Dial == nil {
		opts.Dial = func(addr string) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, dialTimeout)
		}
	}
	if opts.ReconnectMin <= 0 {
		opts.ReconnectMin = DefaultReconnectMin
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = DefaultReconnectMax
	}
	if opts.SessionDeadline <= 0 {
		opts.SessionDeadline = DefaultSessionDeadline
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	f := &Follower{opts: opts, stopc: make(chan struct{}), incs: map[string]uint64{}}
	f.loadState()
	opts.Engine.SetReadOnly(opts.Leader)
	f.wg.Add(1)
	go f.run()
	return f, nil
}

// loadState restores the persisted incarnation map, pruning entries for
// graphs the engine did not recover (their incarnations are meaningless
// without the data). Errors degrade to an empty map: every graph then
// re-seeds by snapshot, which is safe.
func (f *Follower) loadState() {
	if f.opts.StateFile == "" {
		return
	}
	data, err := os.ReadFile(f.opts.StateFile)
	if err != nil {
		return
	}
	var incs map[string]uint64
	if err := json.Unmarshal(data, &incs); err != nil {
		f.opts.Logger.Warn("state_file_unreadable", "file", f.opts.StateFile, "err", err)
		return
	}
	have := f.opts.Engine.GraphVersions()
	for name, inc := range incs {
		if _, ok := have[name]; ok {
			f.incs[name] = inc
		}
	}
}

// saveState writes the incarnation map (caller holds f.mu). Atomic
// rename so a crash never leaves a torn file.
func (f *Follower) saveState() {
	if f.opts.StateFile == "" {
		return
	}
	data, err := json.Marshal(f.incs)
	if err != nil {
		return
	}
	tmp := f.opts.StateFile + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		f.opts.Logger.Error("state_write_failed", "err", err)
		return
	}
	if err := os.Rename(tmp, f.opts.StateFile); err != nil {
		f.opts.Logger.Error("state_rename_failed", "err", err)
	}
}

// setInc/dropInc update the incarnation map and persist it.
func (f *Follower) setInc(name string, inc uint64) {
	f.mu.Lock()
	f.incs[name] = inc
	f.saveState()
	f.mu.Unlock()
}

func (f *Follower) dropInc(name string) {
	f.mu.Lock()
	delete(f.incs, name)
	f.saveState()
	f.mu.Unlock()
}

// helloMaps snapshots the applied versions and their incarnations. All
// graphs are reported (so the leader can drop ones it no longer has);
// a graph with no known incarnation simply fails the leader's match and
// takes the safe snapshot path.
func (f *Follower) helloMaps() (map[string]uint64, map[string]uint64) {
	applied := f.opts.Engine.GraphVersions()
	f.mu.Lock()
	incs := make(map[string]uint64, len(f.incs))
	for name := range applied {
		if inc, ok := f.incs[name]; ok {
			incs[name] = inc
		}
	}
	f.mu.Unlock()
	return applied, incs
}

// Close stops replicating. The engine STAYS read-only: a stopped
// follower serving stale reads must not silently start accepting writes
// — that is what Promote is for.
func (f *Follower) Close() error {
	f.stop()
	f.wg.Wait()
	return nil
}

// Promote detaches from the leader and makes the engine writable — the
// failover path behind POST /api/v1/admin/promote.
func (f *Follower) Promote() error {
	f.mu.Lock()
	f.promoted = true
	f.mu.Unlock()
	f.stop()
	f.wg.Wait()
	f.opts.Engine.ClearReadOnly()
	return nil
}

func (f *Follower) stop() {
	f.stopOnce.Do(func() {
		close(f.stopc)
		f.mu.Lock()
		if f.conn != nil {
			_ = f.conn.Close()
		}
		f.mu.Unlock()
	})
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stopc:
		return true
	default:
		return false
	}
}

// run is the dial-with-backoff loop.
func (f *Follower) run() {
	defer f.wg.Done()
	backoff := f.opts.ReconnectMin
	for {
		if f.stopped() {
			return
		}
		conn, err := f.opts.Dial(f.opts.Leader)
		if err != nil {
			f.opts.Logger.Warn("dial_failed", "leader", f.opts.Leader, "err", err)
			if !f.sleep(backoff) {
				return
			}
			backoff = min(backoff*2, f.opts.ReconnectMax)
			continue
		}
		f.mu.Lock()
		if f.stopped() {
			f.mu.Unlock()
			conn.Close()
			return
		}
		f.conn = conn
		f.connected = true
		f.mu.Unlock()
		start := time.Now()
		err = f.session(conn)
		f.mu.Lock()
		f.conn = nil
		f.connected = false
		f.mu.Unlock()
		conn.Close()
		if f.stopped() {
			return
		}
		f.reconnects.Add(1)
		f.opts.Logger.Info("session_ended", "leader", f.opts.Leader, "err", err)
		// A session that survived a while earned a fresh backoff; an
		// instant failure backs off further.
		if time.Since(start) > f.opts.ReconnectMax {
			backoff = f.opts.ReconnectMin
		} else {
			backoff = min(backoff*2, f.opts.ReconnectMax)
		}
		if !f.sleep(backoff) {
			return
		}
	}
}

// sleep waits d or until stopped; reports whether to keep running.
func (f *Follower) sleep(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-f.stopc:
		return false
	case <-t.C:
		return true
	}
}

// session runs one connection: handshake, then apply frames until the
// link breaks. Every path out of here leads back to the redial loop —
// resume-from-offset makes reconnection cheap (the hello carries the
// applied versions, so an up-to-date follower transfers nothing).
func (f *Follower) session(conn net.Conn) error {
	bw := bufio.NewWriter(conn)
	applied, incs := f.helloMaps()
	hello, err := EncodeHello(applied, incs)
	if err != nil {
		return err
	}
	if err := WriteFrame(bw, hello); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	for {
		_ = conn.SetReadDeadline(time.Now().Add(f.opts.SessionDeadline))
		frame, err := ReadFrame(br)
		if err != nil {
			return err
		}
		msg, err := DecodeMessage(frame)
		if err != nil {
			return err
		}
		switch msg.Type {
		case MsgSnapshot:
			g, err := storage.ReadGraphImage(bytes.NewReader(msg.Data))
			if err != nil {
				return fmt.Errorf("snapshot %q: %w", msg.Name, err)
			}
			if err := f.opts.Engine.InstallReplicaGraph(msg.Name, g); err != nil {
				return fmt.Errorf("install %q: %w", msg.Name, err)
			}
			// The incarnation is recorded only after the install is durable:
			// the state file may lag the data (costing a snapshot re-seed)
			// but never lead it.
			f.setInc(msg.Name, msg.Incarnation)
			f.snapshotsInstalled.Add(1)
		case MsgRecord:
			rec, err := wal.DecodeRecord(msg.Data)
			if err != nil {
				// The frame CRC passed but the record is malformed: the graph's
				// stream is unusable. Drop the local copy so the reconnect
				// handshake omits it and the leader re-seeds by snapshot.
				_ = f.opts.Engine.DropReplicaGraph(msg.Name)
				f.dropInc(msg.Name)
				return fmt.Errorf("record for %q: %w", msg.Name, err)
			}
			if err := f.opts.Engine.ApplyReplicatedRecord(msg.Name, rec); err != nil {
				if errors.Is(err, engine.ErrNoGraph) {
					// Record raced a drop; the leader's drop frame follows.
					continue
				}
				_ = f.opts.Engine.DropReplicaGraph(msg.Name)
				f.dropInc(msg.Name)
				return fmt.Errorf("apply to %q: %w", msg.Name, err)
			}
			f.recordsApplied.Add(1)
		case MsgDrop:
			if err := f.opts.Engine.DropReplicaGraph(msg.Name); err != nil {
				return fmt.Errorf("drop %q: %w", msg.Name, err)
			}
			f.dropInc(msg.Name)
		case MsgHeartbeat:
			applied := f.opts.Engine.GraphVersions()
			f.mu.Lock()
			f.leaderVersions = msg.Graphs
			f.mu.Unlock()
			// A graph the leader has that we never installed means a missed
			// create broadcast (connect raced the creation): reconnect — the
			// handshake's catch-up covers it.
			for name := range msg.Graphs {
				if _, ok := applied[name]; !ok {
					return fmt.Errorf("leader has unknown graph %q; resyncing", name)
				}
			}
			ack, err := EncodeVersions(MsgAck, applied)
			if err != nil {
				return err
			}
			if err := WriteFrame(bw, ack); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unexpected message type %d", msg.Type)
		}
	}
}

// Status reports the follower's view for /healthz and the debug
// endpoint. Lag is measured against the last heartbeat's leader
// versions; a graph the leader has and the follower lacks counts whole.
func (f *Follower) Status() Status {
	applied := f.opts.Engine.GraphVersions()
	f.mu.Lock()
	lv := make(map[string]uint64, len(f.leaderVersions))
	for name, v := range f.leaderVersions {
		lv[name] = v
	}
	connected := f.connected
	promoted := f.promoted
	f.mu.Unlock()
	st := Status{
		Role:               "follower",
		Leader:             f.opts.Leader,
		Connected:          connected,
		Applied:            applied,
		LeaderVersions:     lv,
		SnapshotsInstalled: f.snapshotsInstalled.Load(),
		RecordsApplied:     f.recordsApplied.Load(),
		Reconnects:         f.reconnects.Load(),
	}
	if promoted {
		st.Role = "leader"
		st.Leader = ""
		st.Connected = false
	}
	for name, v := range lv {
		if have := applied[name]; have < v {
			st.LagRecords += v - have
		}
	}
	return st
}

// Lag returns how far applied versions trail the leader's last
// heartbeat, without the per-graph map snapshots Status builds.
func (f *Follower) Lag() uint64 {
	applied := f.opts.Engine.GraphVersions()
	f.mu.Lock()
	defer f.mu.Unlock()
	var lag uint64
	for name, v := range f.leaderVersions {
		if have := applied[name]; have < v {
			lag += v - have
		}
	}
	return lag
}
