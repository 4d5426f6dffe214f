package replication

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/storage"
	"expfinder/internal/wal"
)

// Leader defaults.
const (
	DefaultOutboxFrames   = 4096
	DefaultHeartbeatEvery = 500 * time.Millisecond
	helloTimeout          = 10 * time.Second
)

// LeaderOptions configures a Leader.
type LeaderOptions struct {
	// Engine serves graph state for snapshot installs. Required.
	Engine *engine.Engine
	// WAL is the manager whose record stream is shipped, and whose
	// retained segments serve reconnect catch-up. Required — a leader
	// without a WAL has no totally-ordered stream to ship, which is why
	// -replication-listen requires -data-dir.
	WAL *wal.Manager
	// Listener accepts follower connections. Required; the Leader owns
	// and closes it.
	Listener net.Listener
	// OutboxFrames bounds each follower's send queue. A follower too
	// slow to drain it is severed (it reconnects and resumes from its
	// applied offset) so one stalled replica can never block the
	// mutation path. Default DefaultOutboxFrames.
	OutboxFrames int
	// HeartbeatEvery is the leader-version broadcast period — the
	// follower's lag signal. Default DefaultHeartbeatEvery.
	HeartbeatEvery time.Duration
	// Logger receives connection lifecycle records; nil discards them.
	Logger *slog.Logger
}

// Leader streams the WAL to followers. It taps the wal.Manager's
// observer hook, so it must be started before mutations begin (NewLeader
// installs the hook; graphs recovered or created afterwards replicate
// from their first record).
type Leader struct {
	opts LeaderOptions

	mu sync.Mutex
	// incs holds each graph's incarnation id: version arithmetic against
	// a follower (same version, WAL replay) is only valid when its
	// incarnation matches, because a drop-and-recreate restarts versions.
	incs      map[string]uint64
	followers map[*followerConn]struct{}
	closed    bool

	stopc chan struct{}
	wg    sync.WaitGroup

	snapshotsSent  atomic.Uint64
	recordsShipped atomic.Uint64
	severed        atomic.Uint64
}

// followerConn is one accepted follower. Its outbox decouples the
// mutation path from the network: observers enqueue, a writer goroutine
// drains. live marks the graphs whose catch-up completed — records for
// other graphs are withheld so a follower never sees a record it has no
// base state for.
type followerConn struct {
	l      *Leader
	conn   net.Conn
	outbox chan []byte
	done   chan struct{}

	mu     sync.Mutex
	live   map[string]bool
	acked  map[string]uint64
	closed bool
	// ready flips once catch-up completes; heartbeats are withheld until
	// then — a heartbeat naming a graph whose snapshot is still queued
	// would trip the follower's unknown-graph resync and restart the
	// catch-up it was waiting on.
	ready bool
}

// NewLeader installs the WAL observer and starts accepting followers.
func NewLeader(opts LeaderOptions) (*Leader, error) {
	if opts.Engine == nil || opts.WAL == nil || opts.Listener == nil {
		return nil, errors.New("replication: leader needs Engine, WAL, and Listener")
	}
	if opts.OutboxFrames <= 0 {
		opts.OutboxFrames = DefaultOutboxFrames
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = DefaultHeartbeatEvery
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	l := &Leader{
		opts:      opts,
		incs:      map[string]uint64{},
		followers: map[*followerConn]struct{}{},
		stopc:     make(chan struct{}),
	}
	opts.WAL.SetObserver(l)
	l.wg.Add(2)
	go l.acceptLoop()
	go l.heartbeatLoop()
	return l, nil
}

// Addr returns the replication listen address.
func (l *Leader) Addr() string { return l.opts.Listener.Addr().String() }

// Close stops accepting, severs every follower, and detaches from the
// WAL.
func (l *Leader) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	fcs := make([]*followerConn, 0, len(l.followers))
	for fc := range l.followers {
		fcs = append(fcs, fc)
	}
	l.mu.Unlock()
	l.opts.WAL.SetObserver(nil)
	close(l.stopc)
	err := l.opts.Listener.Close()
	for _, fc := range fcs {
		fc.sever("leader shutdown")
	}
	l.wg.Wait()
	return err
}

// Promote on a leader is an error: it already accepts writes.
func (l *Leader) Promote() error {
	return errors.New("replication: already the leader")
}

// --- wal.Observer ---

// GraphCreated fires when Create or Recover publishes a graph. The
// graph is not yet engine-visible, so imaging it here is race-free; the
// image is pushed to every connected follower (a newly created graph is
// by definition beyond any follower's applied state).
func (l *Leader) GraphCreated(name string, g *graph.Graph) {
	var img bytes.Buffer
	if err := storage.WriteGraphImage(&img, g); err != nil {
		l.opts.Logger.Error("image_failed", "graph", name, "err", err)
		return
	}
	inc := rand.Uint64()
	payload, err := EncodeSnapshot(name, inc, img.Bytes())
	if err != nil {
		l.opts.Logger.Error("encode_snapshot_failed", "graph", name, "err", err)
		return
	}
	l.mu.Lock()
	l.incs[name] = inc
	fcs := l.followerList()
	l.mu.Unlock()
	for _, fc := range fcs {
		fc.mu.Lock()
		ready := fc.live != nil // handshake complete
		if ready {
			fc.live[name] = true
		}
		fc.mu.Unlock()
		if ready {
			fc.enqueue(payload)
			l.snapshotsSent.Add(1)
		}
	}
}

// GraphDropped mirrors a drop to every follower.
func (l *Leader) GraphDropped(name string) {
	payload, err := EncodeNamed(MsgDrop, name, nil)
	if err != nil {
		return
	}
	l.mu.Lock()
	delete(l.incs, name)
	fcs := l.followerList()
	l.mu.Unlock()
	for _, fc := range fcs {
		fc.mu.Lock()
		ready := fc.live != nil
		if ready {
			delete(fc.live, name)
		}
		fc.mu.Unlock()
		if ready {
			fc.enqueue(payload)
		}
	}
}

// RecordAppended runs on the mutation path, under the graph's write
// lock and its log lock: it must only encode and enqueue. Slow followers
// overflow their outbox and are severed — never waited on.
func (l *Leader) RecordAppended(name string, payload []byte, _ uint64) {
	l.mu.Lock()
	if _, ok := l.incs[name]; !ok {
		// Created before the observer was installed: a new incarnation
		// starts here (followers holding older state catch up by snapshot).
		l.incs[name] = rand.Uint64()
	}
	fcs := l.followerList()
	l.mu.Unlock()
	if len(fcs) == 0 {
		return
	}
	enc, err := EncodeNamed(MsgRecord, name, payload)
	if err != nil {
		return
	}
	for _, fc := range fcs {
		fc.mu.Lock()
		live := fc.live != nil && fc.live[name]
		fc.mu.Unlock()
		if live {
			fc.enqueue(enc)
			l.recordsShipped.Add(1)
		}
	}
}

// followerList snapshots the follower set; caller holds l.mu.
func (l *Leader) followerList() []*followerConn {
	fcs := make([]*followerConn, 0, len(l.followers))
	for fc := range l.followers {
		fcs = append(fcs, fc)
	}
	return fcs
}

// --- serving followers ---

func (l *Leader) acceptLoop() {
	defer l.wg.Done()
	for {
		conn, err := l.opts.Listener.Accept()
		if err != nil {
			select {
			case <-l.stopc:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			l.opts.Logger.Warn("accept_failed", "err", err)
			continue
		}
		l.wg.Add(1)
		go func() {
			defer l.wg.Done()
			l.handleConn(conn)
		}()
	}
}

func (l *Leader) handleConn(conn net.Conn) {
	br := bufio.NewReader(conn)
	_ = conn.SetReadDeadline(time.Now().Add(helloTimeout))
	frame, err := ReadFrame(br)
	if err != nil {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	hello, err := DecodeMessage(frame)
	if err != nil || hello.Type != MsgHello || hello.Proto != ProtoVersion {
		l.opts.Logger.Warn("bad_hello", "follower", conn.RemoteAddr().String())
		conn.Close()
		return
	}
	fc := &followerConn{
		l:      l,
		conn:   conn,
		outbox: make(chan []byte, l.opts.OutboxFrames),
		done:   make(chan struct{}),
		acked:  map[string]uint64{},
	}
	// Register before catch-up so graph create/drop broadcasts reach this
	// follower from here on; live stays nil until the handshake below, so
	// no record frames slip out before their graph has base state.
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		conn.Close()
		return
	}
	l.followers[fc] = struct{}{}
	l.mu.Unlock()
	l.opts.Logger.Info("follower_connected", "follower", conn.RemoteAddr().String(), "graphs", len(hello.Graphs))

	l.wg.Add(1)
	go func() {
		defer l.wg.Done()
		fc.writeLoop()
	}()

	fc.mu.Lock()
	fc.live = map[string]bool{}
	fc.mu.Unlock()
	if err := l.catchUp(fc, hello.Graphs, hello.Incs); err != nil {
		fc.sever(fmt.Sprintf("catch-up: %v", err))
		return
	}
	fc.mu.Lock()
	fc.ready = true
	fc.mu.Unlock()
	// Read loop: acks (and nothing else) flow upstream.
	for {
		frame, err := ReadFrame(br)
		if err != nil {
			fc.sever("read: " + err.Error())
			return
		}
		msg, err := DecodeMessage(frame)
		if err != nil || msg.Type != MsgAck {
			fc.sever("bad upstream frame")
			return
		}
		fc.mu.Lock()
		for name, v := range msg.Graphs {
			fc.acked[name] = v
		}
		fc.mu.Unlock()
	}
}

// catchUp brings one follower to the leader's current state, graph by
// graph. Each graph's decision runs under that graph's read lock, which
// excludes appends: whatever is enqueued here plus the records that
// arrive after live is set is the complete, gapless stream. Version
// arithmetic (same-version, WAL replay) is trusted only when the
// follower's incarnation id matches the leader's — a follower holding a
// previous incarnation of the name at a coincidentally plausible
// version must be re-seeded by snapshot, never patched.
func (l *Leader) catchUp(fc *followerConn, have, haveIncs map[string]uint64) error {
	names := l.opts.Engine.ListGraphs()
	known := make(map[string]bool, len(names))
	for _, name := range names {
		known[name] = true
	}
	// Graphs the follower has that the leader no longer does.
	stale := make([]string, 0)
	for name := range have {
		if !known[name] {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		payload, err := EncodeNamed(MsgDrop, name, nil)
		if err != nil {
			return err
		}
		if !fc.enqueueWait(payload) {
			return errors.New("severed during catch-up")
		}
	}
	for _, name := range names {
		err := l.opts.Engine.WithGraph(name, func(g *graph.Graph) error {
			cur := g.Version()
			l.mu.Lock()
			myInc, ok := l.incs[name]
			if !ok {
				// Created before the observer was installed; start an
				// incarnation here so later reconnects can resume by replay.
				myInc = rand.Uint64()
				l.incs[name] = myInc
			}
			l.mu.Unlock()
			v, ok := have[name]
			inc, incOK := haveIncs[name]
			sameInc := ok && incOK && inc == myInc
			if sameInc && v == cur {
				fc.setLive(name)
				return nil
			}
			if sameInc && v < cur {
				// Collected under the log lock and shipped after it is
				// released: syncs and checkpoints need that lock, and the
				// follower's outbox may block.
				recs, covered, err := l.opts.WAL.RecordsSince(name, v)
				if err != nil {
					l.opts.Logger.Warn("wal_catchup_failed", "graph", name, "err", err, "note", "sending a snapshot")
				}
				if covered {
					for _, payload := range recs {
						enc, err := EncodeNamed(MsgRecord, name, payload)
						if err != nil {
							return err
						}
						if !fc.enqueueWait(enc) {
							return errors.New("severed during catch-up")
						}
						l.recordsShipped.Add(1)
					}
					fc.setLive(name)
					return nil
				}
			}
			// New graph, a gap a checkpoint truncated, a broken log, an
			// incarnation mismatch, or a follower ahead of the leader
			// (divergent history): install a snapshot.
			var img bytes.Buffer
			if err := storage.WriteGraphImage(&img, g); err != nil {
				return err
			}
			payload, err := EncodeSnapshot(name, myInc, img.Bytes())
			if err != nil {
				return err
			}
			if !fc.enqueueWait(payload) {
				return errors.New("severed during catch-up")
			}
			l.snapshotsSent.Add(1)
			fc.setLive(name)
			return nil
		})
		if err != nil && !errors.Is(err, engine.ErrNoGraph) {
			return err
		}
	}
	return nil
}

func (l *Leader) heartbeatLoop() {
	defer l.wg.Done()
	t := time.NewTicker(l.opts.HeartbeatEvery)
	defer t.Stop()
	for {
		select {
		case <-l.stopc:
			return
		case <-t.C:
		}
		// Versions are collected BEFORE touching l.mu: GraphVersions takes
		// graph read locks, and the observer path runs under graph write
		// locks before taking l.mu — holding l.mu here would deadlock.
		versions := l.opts.Engine.GraphVersions()
		payload, err := EncodeVersions(MsgHeartbeat, versions)
		if err != nil {
			continue
		}
		l.mu.Lock()
		fcs := l.followerList()
		l.mu.Unlock()
		for _, fc := range fcs {
			fc.mu.Lock()
			ready := fc.ready
			fc.mu.Unlock()
			if ready {
				fc.enqueue(payload)
			}
		}
	}
}

// Status reports the leader's view for /healthz and the debug endpoint.
func (l *Leader) Status() Status {
	versions := l.opts.Engine.GraphVersions()
	st := Status{
		Role:           "leader",
		Addr:           l.Addr(),
		SnapshotsSent:  l.snapshotsSent.Load(),
		RecordsShipped: l.recordsShipped.Load(),
		Severed:        l.severed.Load(),
	}
	l.mu.Lock()
	fcs := l.followerList()
	l.mu.Unlock()
	for _, fc := range fcs {
		fc.mu.Lock()
		info := FollowerInfo{
			Remote: fc.conn.RemoteAddr().String(),
			Acked:  make(map[string]uint64, len(fc.acked)),
		}
		for name, v := range fc.acked {
			info.Acked[name] = v
		}
		fc.mu.Unlock()
		for name, cur := range versions {
			if acked := info.Acked[name]; acked < cur {
				info.LagRecords += cur - acked
			}
		}
		if info.LagRecords > st.LagRecords {
			st.LagRecords = info.LagRecords
		}
		st.Followers = append(st.Followers, info)
	}
	sort.Slice(st.Followers, func(i, j int) bool { return st.Followers[i].Remote < st.Followers[j].Remote })
	return st
}

// Lag returns the worst follower's summed ack gap without building the
// full Status snapshot.
func (l *Leader) Lag() uint64 {
	versions := l.opts.Engine.GraphVersions()
	l.mu.Lock()
	fcs := l.followerList()
	l.mu.Unlock()
	var worst uint64
	for _, fc := range fcs {
		var lag uint64
		fc.mu.Lock()
		for name, cur := range versions {
			if acked := fc.acked[name]; acked < cur {
				lag += cur - acked
			}
		}
		fc.mu.Unlock()
		if lag > worst {
			worst = lag
		}
	}
	return worst
}

// --- followerConn ---

func (fc *followerConn) setLive(name string) {
	fc.mu.Lock()
	if fc.live != nil {
		fc.live[name] = true
	}
	fc.mu.Unlock()
}

// enqueue hands a payload to the writer; a full outbox severs the
// follower (it reconnects and resumes from its applied offset). The
// closed check and the send share fc.mu so a send can never race the
// teardown.
func (fc *followerConn) enqueue(payload []byte) {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return
	}
	select {
	case fc.outbox <- payload:
		fc.mu.Unlock()
	default:
		fc.mu.Unlock()
		fc.sever("outbox overflow (slow follower)")
	}
}

// enqueueWait blocks until the writer has room, used only on the
// catch-up path: the burst runs in the connection's own handler
// goroutine, so letting it overflow the outbox would sever the follower
// with the very frames it needs to come live — a livelock on small
// outboxes. Blocking here holds the graph's read lock for up to the
// follower's drain time; the observer paths stay non-blocking, so a
// slow catch-up delays writers on that graph but can never wedge them.
// Reports false if the follower was severed meanwhile.
func (fc *followerConn) enqueueWait(payload []byte) bool {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return false
	}
	fc.mu.Unlock()
	select {
	case fc.outbox <- payload:
		return true
	case <-fc.done:
		return false
	}
}

func (fc *followerConn) writeLoop() {
	bw := bufio.NewWriter(fc.conn)
	for {
		select {
		case <-fc.done:
			return
		case payload := <-fc.outbox:
			if err := WriteFrame(bw, payload); err != nil {
				fc.sever("write: " + err.Error())
				return
			}
			// Flush when the queue drains so consecutive records coalesce.
			if len(fc.outbox) == 0 {
				if err := bw.Flush(); err != nil {
					fc.sever("flush: " + err.Error())
					return
				}
			}
		}
	}
}

// sever closes the connection and detaches the follower. Idempotent.
func (fc *followerConn) sever(reason string) {
	fc.mu.Lock()
	if fc.closed {
		fc.mu.Unlock()
		return
	}
	fc.closed = true
	fc.live = nil
	fc.mu.Unlock()
	close(fc.done)
	fc.l.mu.Lock()
	delete(fc.l.followers, fc)
	fc.l.mu.Unlock()
	fc.l.severed.Add(1)
	fc.l.opts.Logger.Info("follower_severed", "follower", fc.conn.RemoteAddr().String(), "reason", reason)
	_ = fc.conn.Close()
}
