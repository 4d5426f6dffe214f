// Package wal is ExpFinder's durability subsystem: a per-graph segmented
// write-ahead log plus a snapshot (checkpoint) manager. The demo stored
// "all the graphs and query results as files" but only on explicit save;
// this package makes every engine mutation durable so a restarted server
// recovers its graphs exactly — content, node ids (tombstones included),
// and mutation version.
//
// On-disk layout, rooted at Options.Dir:
//
//	graphs/<name>/snapshot-<version>.snap   exact graph image (storage.WriteGraphImage)
//	graphs/<name>/wal-<version>.seg         log segments, named by the graph
//	                                        version at which the segment opened
//	graphs/<name>/wal-<version>.seg.torn    a torn final segment, quarantined
//	                                        by recovery for inspection
//	trash/                                  staging for crash-safe graph removal
//
// Only the graph is persisted. What the engine derives from it — graph
// statistics, the distance index, partitionings, quotients — is rebuilt
// in memory (statistics at recovery, accelerators on request); any other
// file in a graph directory is ignored.
//
// Each segment starts with a header (magic "EFWL", format version, base
// version) followed by CRC32-framed records (storage.AppendFrame).
// Payloads reuse the storage binary string/uvarint conventions and carry
// the post-mutation graph version, so replay restores versions exactly.
// A checkpoint writes a fresh snapshot (temp file + rename, both
// fsynced), rotates to a new segment, and deletes the segments the
// snapshot covers — safe because checkpoints run under the graph's lock,
// so every logged record is at or below the snapshot version. The
// retained segments are the only record history: recovery replays them,
// and a replication leader catches a reconnecting follower up from them
// (RecordsSince), both through one frame scanner.
//
// Durability is configurable per manager: FsyncAlways syncs after every
// append, FsyncInterval syncs on a background ticker (bounded loss),
// FsyncOff hands bytes to the OS immediately but never syncs. Torn tails
// from any policy are detected by the frame CRC and dropped at recovery.
package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/graph"
	"expfinder/internal/storage"
	"expfinder/internal/trace"
)

// FsyncPolicy selects when appended records are forced to stable storage.
type FsyncPolicy uint8

// Fsync policies. The zero value is FsyncInterval: bounded loss at a
// small, fixed cost — the production default.
const (
	// FsyncInterval syncs dirty logs every Options.FsyncEvery.
	FsyncInterval FsyncPolicy = iota
	// FsyncAlways syncs after every appended record.
	FsyncAlways
	// FsyncOff writes through to the OS but never syncs; a process crash
	// loses nothing, an OS crash loses what the kernel had not flushed.
	FsyncOff
)

// String renders the policy the way flags and stats spell it.
func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncOff:
		return "off"
	default:
		return "interval"
	}
}

// ParseFsyncPolicy parses "always", "interval", or "off".
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch s {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "off":
		return FsyncOff, nil
	default:
		return FsyncInterval, fmt.Errorf("wal: unknown fsync policy %q (want always|interval|off)", s)
	}
}

// Defaults for the zero Options fields.
const (
	DefaultFsyncEvery         = 50 * time.Millisecond
	DefaultSegmentBytes       = 8 << 20
	DefaultCheckpointBytes    = 32 << 20
	DefaultCheckpointInterval = 15 * time.Second
)

// Options configures a Manager.
type Options struct {
	// Dir roots the on-disk layout. Required.
	Dir string
	// Fsync selects the durability/throughput trade-off.
	Fsync FsyncPolicy
	// FsyncEvery is the sync period under FsyncInterval.
	FsyncEvery time.Duration
	// SegmentBytes rotates the active segment once it grows past this.
	SegmentBytes int64
	// CheckpointBytes is the WAL growth since the last snapshot at which
	// NeedsCheckpoint starts reporting true.
	CheckpointBytes int64
	// CheckpointInterval is how often the engine's background
	// checkpointer should scan (the manager only stores it; the engine
	// owns the loop because checkpoints need the graph lock).
	CheckpointInterval time.Duration
}

func (o *Options) fill() {
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = DefaultFsyncEvery
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = DefaultSegmentBytes
	}
	if o.CheckpointBytes <= 0 {
		o.CheckpointBytes = DefaultCheckpointBytes
	}
	if o.CheckpointInterval <= 0 {
		o.CheckpointInterval = DefaultCheckpointInterval
	}
}

// Manager errors.
var (
	ErrClosed      = errors.New("wal: manager closed")
	ErrExists      = errors.New("wal: graph already has persisted state (recover it instead of re-creating)")
	ErrUnknown     = errors.New("wal: graph not managed")
	ErrNonMonotone = errors.New("wal: record version not beyond the last logged version")
	// ErrBroken poisons a log after a failed append or checkpoint: the
	// on-disk record stream no longer tracks live state, so accepting
	// further records would make replay reconstruct a DIFFERENT graph
	// (node ids assign by append order). The next successful checkpoint
	// re-syncs the full state and clears the condition — the background
	// checkpointer retries automatically (NeedsCheckpoint reports true).
	ErrBroken = errors.New("wal: log diverged after a failed write; awaiting checkpoint repair")
)

const (
	segMagic         = "EFWL"
	segFormatVersion = 1
	snapPrefix       = "snapshot-"
	snapSuffix       = ".snap"
	segPrefix        = "wal-"
	segSuffix        = ".seg"
)

// Observer receives the manager's record stream as it lands on disk —
// the hook the replication leader taps to ship the WAL over the wire.
//
// RecordAppended fires after a record is durably framed into the active
// segment, while the graph's log lock is still held: per-graph delivery
// order is exactly append order, with no gaps. The payload is the same
// CRC-covered bytes the segment holds (callers must not retain or
// mutate it past the call). GraphCreated fires after Create or Recover
// publishes a graph's state; the graph is not yet visible to the engine
// at that point, so reading it synchronously during the callback is
// race-free. Callbacks must not call back into the Manager and must
// return quickly — they run under log locks on the mutation path.
type Observer interface {
	GraphCreated(name string, g *graph.Graph)
	GraphDropped(name string)
	RecordAppended(name string, payload []byte, post uint64)
}

// Manager owns the write-ahead logs of every graph under one data
// directory. Safe for concurrent use; appends to different graphs never
// contend.
type Manager struct {
	opts Options

	mu     sync.Mutex
	graphs map[string]*graphLog
	closed bool

	obsMu sync.RWMutex
	obs   Observer

	stopc chan struct{}
	wg    sync.WaitGroup

	appends       atomic.Uint64
	fsyncs        atomic.Uint64
	fsyncFailures atomic.Uint64
	checkpoints   atomic.Uint64
}

// Open creates (if needed) the data directory and returns a manager.
// Leftover removal staging from a previous crash is cleaned up; existing
// graph state is NOT loaded — call Recover per graph (the engine's
// Recover does this for every persisted graph).
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	opts.fill()
	for _, sub := range []string{"graphs", "trash"} {
		if err := os.MkdirAll(filepath.Join(opts.Dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("wal: init %s: %w", sub, err)
		}
	}
	// A crash mid-Drop leaves the graph's directory staged in trash;
	// finishing the delete here keeps GraphNames honest.
	entries, err := os.ReadDir(filepath.Join(opts.Dir, "trash"))
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		_ = os.RemoveAll(filepath.Join(opts.Dir, "trash", e.Name()))
	}
	m := &Manager{
		opts:   opts,
		graphs: map[string]*graphLog{},
		stopc:  make(chan struct{}),
	}
	if opts.Fsync == FsyncInterval {
		m.wg.Add(1)
		go m.syncLoop()
	}
	return m, nil
}

// SetObserver installs (or, with nil, removes) the manager's observer.
// Install it before mutations begin — records appended while no observer
// is set are only on disk, not replayed to a late subscriber.
func (m *Manager) SetObserver(obs Observer) {
	m.obsMu.Lock()
	m.obs = obs
	m.obsMu.Unlock()
}

func (m *Manager) observer() Observer {
	m.obsMu.RLock()
	obs := m.obs
	m.obsMu.RUnlock()
	return obs
}

// Dir returns the data directory.
func (m *Manager) Dir() string { return m.opts.Dir }

// Policy returns the configured fsync policy.
func (m *Manager) Policy() FsyncPolicy { return m.opts.Fsync }

// CheckpointInterval returns the configured background-checkpoint period.
func (m *Manager) CheckpointInterval() time.Duration { return m.opts.CheckpointInterval }

func (m *Manager) graphDir(name string) string {
	return filepath.Join(m.opts.Dir, "graphs", name)
}

// syncLoop is the FsyncInterval ticker: it flushes and syncs every dirty
// log each period, bounding loss on an OS crash to one interval.
func (m *Manager) syncLoop() {
	defer m.wg.Done()
	t := time.NewTicker(m.opts.FsyncEvery)
	defer t.Stop()
	for {
		select {
		case <-m.stopc:
			return
		case <-t.C:
			_ = m.Flush()
		}
	}
}

// lookup resolves a managed graph log.
func (m *Manager) lookup(name string) (*graphLog, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	gl, ok := m.graphs[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
	}
	return gl, nil
}

// Create starts the log of a newly registered graph. A non-empty (or
// already-mutated) graph gets an initial snapshot so recovery never has
// to reconstruct pre-registration state from records that do not exist;
// a truly empty graph starts with a bare segment — recovery replays it
// from scratch, which is the "WAL with no snapshot" case. Existing
// persisted state fails with ErrExists: recover it, or Drop it first.
func (m *Manager) Create(name string, g *graph.Graph) error {
	if err := storage.ValidName(name); err != nil {
		return err
	}
	dir := m.graphDir(name)
	gl := &graphLog{m: m, name: name, dir: dir, lastVersion: g.Version()}
	// Reserve the name in the registry BEFORE touching the filesystem: a
	// concurrent Create or Recover of the same name must fail here rather
	// than interleave directory work (and a racing caller’s cleanup must
	// never be able to delete state it did not create).
	if err := m.reserve(name, gl); err != nil {
		return err
	}
	// The reservation published gl (Flush/Stats can already see it), so
	// initialization runs under its lock.
	gl.mu.Lock()
	defer gl.mu.Unlock()
	fail := func(err error) error {
		m.unreserve(name, gl)
		gl.closeFile()
		return err
	}
	if entries, err := os.ReadDir(dir); err == nil && len(entries) > 0 {
		return fail(fmt.Errorf("%w: %q", ErrExists, name))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}
	if g.NumNodes() > 0 || g.Version() > 0 {
		if err := gl.checkpoint(g); err != nil {
			return fail(err)
		}
	} else if err := gl.openSegment(g.Version()); err != nil {
		return fail(err)
	}
	if err := syncDir(filepath.Join(m.opts.Dir, "graphs")); err != nil {
		return fail(err)
	}
	if obs := m.observer(); obs != nil {
		obs.GraphCreated(name, g)
	}
	return nil
}

// reserve atomically claims a registry slot for a graph being created or
// recovered.
func (m *Manager) reserve(name string, gl *graphLog) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if _, ok := m.graphs[name]; ok {
		return fmt.Errorf("%w: %q", ErrExists, name)
	}
	m.graphs[name] = gl
	return nil
}

// unreserve rolls a failed reserve back (only if the slot still holds
// this reservation).
func (m *Manager) unreserve(name string, gl *graphLog) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.graphs[name] == gl {
		delete(m.graphs, name)
	}
}

// Drop removes a graph's persisted state. The directory is staged into
// trash/ first so a crash mid-removal cannot leave a half-deleted
// directory that recovery would misread as a valid (older) graph.
//
// The rename into trash is the commit point: on any error before it,
// nothing changed — the log stays attached, appendable, and retryable
// (the engine relies on this to restore a registration after a failed
// remove). After it, the drop has happened; residue cleanup (the staged
// directory) is best-effort, since the next Open empties trash anyway.
func (m *Manager) Drop(name string) error {
	if err := storage.ValidName(name); err != nil {
		return err
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return ErrClosed
	}
	gl := m.graphs[name]
	m.mu.Unlock()
	dir := m.graphDir(name)
	staged := filepath.Join(m.opts.Dir, "trash", fmt.Sprintf("%s-%d", name, time.Now().UnixNano()))
	detach := func() {
		m.mu.Lock()
		if m.graphs[name] == gl {
			delete(m.graphs, name)
		}
		m.mu.Unlock()
	}
	if gl != nil {
		gl.mu.Lock()
		if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
			gl.closeFile()
			gl.mu.Unlock()
			detach()
			if obs := m.observer(); obs != nil {
				obs.GraphDropped(name)
			}
			return nil
		}
		if err := os.Rename(dir, staged); err != nil {
			gl.mu.Unlock()
			return err
		}
		gl.closeFile()
		gl.mu.Unlock()
		detach()
	} else {
		if _, err := os.Stat(dir); errors.Is(err, os.ErrNotExist) {
			return nil
		}
		if err := os.Rename(dir, staged); err != nil {
			return err
		}
	}
	_ = syncDir(filepath.Join(m.opts.Dir, "graphs"))
	_ = os.RemoveAll(staged)
	if obs := m.observer(); obs != nil {
		obs.GraphDropped(name)
	}
	return nil
}

// HasState reports whether any persisted files exist for the name —
// registered or not (a failed recovery leaves unregistered state that
// the engine must still be able to drop).
func (m *Manager) HasState(name string) bool {
	if storage.ValidName(name) != nil {
		return false
	}
	entries, err := os.ReadDir(m.graphDir(name))
	return err == nil && len(entries) > 0
}

// LogUpdates appends one edge-update batch. postVersion is the graph's
// version after the batch applied.
func (m *Manager) LogUpdates(name string, ops []Update, postVersion uint64) error {
	return m.LogRecord(context.Background(), name, &Record{Kind: RecUpdates, Post: postVersion, Ops: ops})
}

// LogRecord appends a record as is — the engine's one logging call: a
// native mutation logs the record it just applied (rec.Post is the graph's
// version after it), and a follower with its own data directory re-logs
// the exact records the leader shipped, so its crash recovery replays the
// same stream. An empty update batch is not logged. When ctx carries an
// active trace (see internal/trace) the append emits a "wal.append" span
// with payload size and fsync policy; durability is identical either way.
func (m *Manager) LogRecord(ctx context.Context, name string, rec *Record) error {
	if rec.Kind == RecUpdates && len(rec.Ops) == 0 {
		return nil
	}
	return m.append(ctx, name, rec)
}

func (m *Manager) append(ctx context.Context, name string, rec *Record) error {
	gl, err := m.lookup(name)
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := EncodeRecord(&buf, rec); err != nil {
		return err
	}
	_, sp := trace.StartSpan(ctx, "wal.append")
	err = gl.append(buf.Bytes(), rec.Post)
	if sp != nil {
		sp.SetInt("bytes", int64(buf.Len()))
		sp.SetStr("fsync", m.opts.Fsync.String())
		sp.SetBool("error", err != nil)
		sp.End()
	}
	return err
}

// Checkpoint snapshots g and truncates the log it covers. The caller
// must hold the graph's lock (read suffices: it excludes mutations, so
// no record beyond g.Version() can be in flight). A checkpoint that
// would change nothing is skipped.
func (m *Manager) Checkpoint(name string, g *graph.Graph) error {
	gl, err := m.lookup(name)
	if err != nil {
		return err
	}
	return gl.checkpointLocked(g)
}

// RecordsSince returns the framed record payloads of a graph's retained
// log with post-mutation version > v, oldest first — the replication
// leader's reconnect catch-up source. covered reports whether they are
// the complete history after v: v is at or beyond the base version of
// the oldest retained segment (a checkpoint truncates below it), and the
// log is not broken (a broken log no longer tracks live state). The
// caller holds the graph's lock (read suffices), so no append is in
// flight; the segments are listed and read under the log lock, which a
// checkpoint needs before it can delete them.
func (m *Manager) RecordsSince(name string, v uint64) (payloads [][]byte, covered bool, err error) {
	gl, err := m.lookup(name)
	if err != nil {
		return nil, false, err
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if gl.broken || gl.f == nil {
		return nil, false, nil
	}
	_, segs, err := listState(gl.dir)
	if err != nil || len(segs) == 0 || v < segs[0].ver {
		return nil, false, err
	}
	for i, seg := range segs {
		if i+1 < len(segs) && segs[i+1].ver <= v {
			continue // every record here is at or below the next base
		}
		_, err := scanSegment(filepath.Join(gl.dir, seg.name), false, func(payload []byte) error {
			rec, err := DecodeRecord(payload)
			if err == nil && rec.Post > v {
				payloads = append(payloads, payload)
			}
			return err
		})
		if err != nil {
			return nil, false, fmt.Errorf("wal: scan %q segment %s: %w", name, seg.name, err)
		}
	}
	return payloads, true, nil
}

// NeedsCheckpoint reports whether the graph's WAL has outgrown
// Options.CheckpointBytes since its last snapshot.
func (m *Manager) NeedsCheckpoint(name string) bool {
	gl, err := m.lookup(name)
	if err != nil {
		return false
	}
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return gl.broken || gl.sinceCkpt >= m.opts.CheckpointBytes
}

// Flush pushes buffered bytes to the OS and syncs every dirty log.
func (m *Manager) Flush() error {
	m.mu.Lock()
	logs := make([]*graphLog, 0, len(m.graphs))
	for _, gl := range m.graphs {
		logs = append(logs, gl)
	}
	m.mu.Unlock()
	var first error
	for _, gl := range logs {
		if err := gl.flushSync(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close flushes, syncs, and closes every log. Further operations fail
// with ErrClosed. Safe to call twice.
func (m *Manager) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	logs := make([]*graphLog, 0, len(m.graphs))
	for _, gl := range m.graphs {
		logs = append(logs, gl)
	}
	m.graphs = map[string]*graphLog{}
	m.mu.Unlock()
	close(m.stopc)
	m.wg.Wait()
	var first error
	for _, gl := range logs {
		gl.mu.Lock()
		if err := gl.flushSyncLocked(); err != nil && first == nil {
			first = err
		}
		gl.closeFile()
		gl.mu.Unlock()
	}
	return first
}

// GraphStats is one graph's persistence state.
type GraphStats struct {
	Name                 string `json:"name"`
	Segments             int    `json:"segments"`
	WALBytes             int64  `json:"wal_bytes"`
	BytesSinceCheckpoint int64  `json:"bytes_since_checkpoint"`
	HasSnapshot          bool   `json:"has_snapshot"`
	Broken               bool   `json:"broken,omitempty"`
	SnapshotVersion      uint64 `json:"snapshot_version"`
	LastVersion          uint64 `json:"last_version"`
	Records              uint64 `json:"records"`
}

// Stats aggregates the manager's counters and per-graph state, sorted by
// graph name.
type Stats struct {
	Dir     string `json:"dir"`
	Policy  string `json:"fsync_policy"`
	Appends uint64 `json:"appends"`
	Fsyncs  uint64 `json:"fsyncs"`
	// FsyncFailures counts failed syncs; each also poisons its graph's
	// log (see ErrBroken) so the condition is visible, not just counted.
	FsyncFailures uint64       `json:"fsync_failures"`
	Checkpoints   uint64       `json:"checkpoints"`
	Graphs        []GraphStats `json:"graphs"`
}

// Stats snapshots the manager.
func (m *Manager) Stats() Stats {
	st := Stats{
		Dir:           m.opts.Dir,
		Policy:        m.opts.Fsync.String(),
		Appends:       m.appends.Load(),
		Fsyncs:        m.fsyncs.Load(),
		FsyncFailures: m.fsyncFailures.Load(),
		Checkpoints:   m.checkpoints.Load(),
	}
	m.mu.Lock()
	logs := make([]*graphLog, 0, len(m.graphs))
	for _, gl := range m.graphs {
		logs = append(logs, gl)
	}
	m.mu.Unlock()
	for _, gl := range logs {
		st.Graphs = append(st.Graphs, gl.stats())
	}
	sort.Slice(st.Graphs, func(i, j int) bool { return st.Graphs[i].Name < st.Graphs[j].Name })
	return st
}

// graphLog is one graph's segmented log. Its mutex serializes appends,
// rotation, and checkpoints; the engine's per-graph write lock already
// serializes mutations, so this lock is uncontended in practice.
type graphLog struct {
	m    *Manager
	name string
	dir  string

	mu          sync.Mutex
	f           *os.File
	segBase     uint64
	segBytes    int64
	sinceCkpt   int64
	hasSnap     bool
	snapVersion uint64
	lastVersion uint64
	records     uint64
	dirty       bool
	// broken marks the on-disk stream as diverged from live state (a
	// failed append or checkpoint); see ErrBroken.
	broken bool
}

func segName(base uint64) string { return fmt.Sprintf("%s%020d%s", segPrefix, base, segSuffix) }
func snapName(v uint64) string   { return fmt.Sprintf("%s%020d%s", snapPrefix, v, snapSuffix) }

// openSegment starts a fresh segment at the given base version,
// truncating any file left at that name by a pre-recovery crash (its
// contents were already consumed or superseded). Caller holds gl.mu or
// has exclusive ownership.
func (gl *graphLog) openSegment(base uint64) error {
	gl.closeFile()
	f, err := os.OpenFile(filepath.Join(gl.dir, segName(base)), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	var hdr bytes.Buffer
	hdr.WriteString(segMagic)
	_ = storage.WriteUvarint(&hdr, segFormatVersion)
	_ = storage.WriteUvarint(&hdr, base)
	if _, err := f.Write(hdr.Bytes()); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := syncDir(gl.dir); err != nil {
		f.Close()
		return err
	}
	gl.f = f
	gl.segBase = base
	gl.segBytes = int64(hdr.Len())
	gl.dirty = false
	return nil
}

func (gl *graphLog) closeFile() {
	if gl.f != nil {
		_ = gl.f.Close()
		gl.f = nil
	}
}

// append frames and writes one payload, applying the fsync policy and
// rotating full segments.
func (gl *graphLog) append(payload []byte, postVersion uint64) error {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	if gl.broken || gl.f == nil {
		return fmt.Errorf("%w (graph %q)", ErrBroken, gl.name)
	}
	if postVersion <= gl.lastVersion {
		return fmt.Errorf("%w: %d after %d", ErrNonMonotone, postVersion, gl.lastVersion)
	}
	frame := storage.AppendFrame(nil, payload)
	if _, err := gl.f.Write(frame); err != nil {
		// The file may hold a partial frame and the in-memory mutation is
		// already applied: this record is lost to the log. Poison it —
		// accepting later records would shift replayed node ids and make
		// recovery silently reconstruct a different graph.
		gl.broken = true
		return fmt.Errorf("wal: append %q: %w", gl.name, err)
	}
	gl.segBytes += int64(len(frame))
	gl.sinceCkpt += int64(len(frame))
	gl.lastVersion = postVersion
	gl.records++
	gl.dirty = true
	gl.m.appends.Add(1)
	// Notify under gl.mu: per-graph observer delivery order is exactly
	// the on-disk record order, which is what lets the replication leader
	// forward this stream without re-reading segments.
	if obs := gl.m.observer(); obs != nil {
		obs.RecordAppended(gl.name, payload, postVersion)
	}
	if gl.m.opts.Fsync == FsyncAlways {
		if err := gl.f.Sync(); err != nil {
			gl.broken = true
			return fmt.Errorf("wal: sync %q: %w", gl.name, err)
		}
		gl.dirty = false
		gl.m.fsyncs.Add(1)
	}
	if gl.segBytes >= gl.m.opts.SegmentBytes {
		// Seal the full segment (sync regardless of policy — rotation is
		// rare) and continue in a fresh one based at the last version.
		if err := gl.f.Sync(); err != nil {
			gl.broken = true
			return err
		}
		gl.m.fsyncs.Add(1)
		if err := gl.openSegment(gl.lastVersion); err != nil {
			gl.broken = true
			return fmt.Errorf("wal: rotate %q: %w", gl.name, err)
		}
	}
	return nil
}

func (gl *graphLog) flushSync() error {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return gl.flushSyncLocked()
}

func (gl *graphLog) flushSyncLocked() error {
	if gl.f == nil || !gl.dirty {
		return nil
	}
	if err := gl.f.Sync(); err != nil {
		// A failed fsync may have dropped the dirty pages (Linux): the
		// acknowledged records might never reach disk, and a later Sync
		// "succeeding" would hide that. Poison the log so the bounded-loss
		// guarantee fails loudly and the next checkpoint re-syncs.
		gl.broken = true
		gl.m.fsyncFailures.Add(1)
		return err
	}
	gl.dirty = false
	gl.m.fsyncs.Add(1)
	return nil
}

func (gl *graphLog) checkpointLocked(g *graph.Graph) error {
	gl.mu.Lock()
	defer gl.mu.Unlock()
	return gl.checkpoint(g)
}

// checkpoint writes a snapshot of g at its current version, rotates to a
// fresh segment, and deletes every older snapshot and segment. Caller
// holds gl.mu (or has exclusive ownership during Create/Recover) AND the
// graph's lock.
func (gl *graphLog) checkpoint(g *graph.Graph) error {
	v := g.Version()
	if gl.f != nil && !gl.broken && gl.hasSnap && gl.snapVersion == v && gl.sinceCkpt == 0 {
		return nil // nothing new to cover
	}
	// Snapshot first: temp file, fsync, atomic rename, fsync dir. Until
	// the rename lands, the previous snapshot + segments stay authoritative.
	tmp, err := os.CreateTemp(gl.dir, ".snap-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	werr := storage.WriteGraphImage(tmp, g)
	if werr == nil {
		werr = tmp.Sync()
	}
	if cerr := tmp.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return fmt.Errorf("wal: snapshot %q: %w", gl.name, werr)
	}
	snap := filepath.Join(gl.dir, snapName(v))
	if err := os.Rename(tmp.Name(), snap); err != nil {
		return err
	}
	if err := syncDir(gl.dir); err != nil {
		return err
	}
	// The snapshot is durable; start a fresh segment and drop everything
	// it superseded. openSegment closed the previous file, so a failure
	// here leaves no writable segment: poison the log (the snapshot that
	// just landed keeps recovery exact; the background checkpointer
	// retries until a segment opens).
	if err := gl.openSegment(v); err != nil {
		gl.broken = true
		return err
	}
	entries, err := os.ReadDir(gl.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		n := e.Name()
		if n == snapName(v) || n == segName(v) {
			continue
		}
		// Exact prefix+suffix match only: quarantined *.torn segments must
		// survive checkpoints.
		isSnap := strings.HasPrefix(n, snapPrefix) && strings.HasSuffix(n, snapSuffix)
		isSeg := strings.HasPrefix(n, segPrefix) && strings.HasSuffix(n, segSuffix)
		if isSnap || isSeg {
			_ = os.Remove(filepath.Join(gl.dir, n))
		}
	}
	gl.hasSnap = true
	gl.snapVersion = v
	gl.lastVersion = v
	gl.sinceCkpt = 0
	// The snapshot captured the full live state: whatever append failure
	// poisoned the log is now re-synced.
	gl.broken = false
	gl.m.checkpoints.Add(1)
	return nil
}

func (gl *graphLog) stats() GraphStats {
	gl.mu.Lock()
	st := GraphStats{
		Name:                 gl.name,
		BytesSinceCheckpoint: gl.sinceCkpt,
		HasSnapshot:          gl.hasSnap,
		Broken:               gl.broken,
		SnapshotVersion:      gl.snapVersion,
		LastVersion:          gl.lastVersion,
		Records:              gl.records,
	}
	gl.mu.Unlock()
	// Directory I/O runs unlocked: stats polling must never stall this
	// graph's appends (which hold gl.mu under the graph's write lock).
	if entries, err := os.ReadDir(gl.dir); err == nil {
		for _, e := range entries {
			if strings.HasPrefix(e.Name(), segPrefix) && strings.HasSuffix(e.Name(), segSuffix) {
				st.Segments++
				if info, err := e.Info(); err == nil {
					st.WALBytes += info.Size()
				}
			}
		}
	}
	return st
}

// syncDir fsyncs a directory so renames and creates within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
