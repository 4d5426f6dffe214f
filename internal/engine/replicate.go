package engine

// Replication support: the follower half of WAL shipping. A follower
// engine runs in read-only mode — every public mutation path rejects
// with ReadOnlyError naming the leader — while the replication client
// feeds it leader state through two bypass paths: InstallReplicaGraph
// (snapshot install) and ApplyReplicatedRecord (record replay). Records
// replay in the same decoded form as crash recovery (wal.Record.Apply is
// the reference semantics), through the one write pipeline every native
// mutation runs (see mutate.go), so every maintainer — incremental
// matchers, compressed form, live subscriptions — syncs by the same code,
// and a distance index or partitioning is detached by the same rule. That
// is what lets a follower serve queries AND subscriptions with results
// byte-identical to the leader at the same applied offset.

import (
	"context"
	"errors"
	"fmt"

	"expfinder/internal/graph"
	"expfinder/internal/wal"
)

// ErrReadOnly matches any ReadOnlyError via errors.Is — the sentinel
// the serving tier maps to the stable "read_only" error code.
var ErrReadOnly = errors.New("engine: read-only replication follower")

// ReadOnlyError rejects a write on a follower. Leader is the address
// writes should go to instead ("" when unknown, e.g. mid-reconnect).
type ReadOnlyError struct {
	Leader string
}

func (e *ReadOnlyError) Error() string {
	if e.Leader == "" {
		return "engine: read-only replication follower"
	}
	return fmt.Sprintf("engine: read-only replication follower (leader %s)", e.Leader)
}

// Is makes errors.Is(err, ErrReadOnly) hold for every ReadOnlyError.
func (e *ReadOnlyError) Is(target error) bool { return target == ErrReadOnly }

// SetReadOnly puts the engine in follower mode: public mutations fail
// with a ReadOnlyError naming the given leader address until
// ClearReadOnly. Reads, queries, subscriptions, and local accelerator
// builds (index, compression, partitioning) stay available.
func (e *Engine) SetReadOnly(leader string) {
	e.roMu.Lock()
	e.readOnly = true
	e.leader = leader
	e.roMu.Unlock()
}

// ClearReadOnly returns the engine to writable mode — the promote path.
func (e *Engine) ClearReadOnly() {
	e.roMu.Lock()
	e.readOnly = false
	e.leader = ""
	e.roMu.Unlock()
}

// writable is the guard on every public mutation path.
func (e *Engine) writable() error {
	e.roMu.RLock()
	ro, leader := e.readOnly, e.leader
	e.roMu.RUnlock()
	if ro {
		return &ReadOnlyError{Leader: leader}
	}
	return nil
}

// GraphVersions snapshots every managed graph's current version — the
// follower's handshake payload (a graph's version IS its replication
// offset: records carry post-mutation versions, so "resume after V"
// and "resume after record offset" are the same statement).
func (e *Engine) GraphVersions() map[string]uint64 {
	e.mu.RLock()
	mgs := make(map[string]*managed, len(e.gs))
	for name, mg := range e.gs {
		mgs[name] = mg
	}
	e.mu.RUnlock()
	out := make(map[string]uint64, len(mgs))
	for name, mg := range mgs {
		mg.mu.RLock()
		out[name] = mg.g.Version()
		mg.mu.RUnlock()
	}
	return out
}

// InstallReplicaGraph replaces (or creates) a graph wholesale from a
// leader snapshot, bypassing the read-only guard. Any existing
// registration under the name is torn down first — subscriptions
// close, caches purge — because a snapshot install means the follower
// could not reach this state by record replay. If the follower has its
// own persistence, the snapshot is re-persisted locally so a follower
// crash recovers without the leader.
func (e *Engine) InstallReplicaGraph(name string, g *graph.Graph) error {
	if err := e.removeGraph(name); err != nil && !errors.Is(err, ErrNoGraph) {
		return fmt.Errorf("engine: clear replica %q: %w", name, err)
	}
	if pers := e.opts.Persistence; pers != nil {
		if pers.HasState(name) {
			// A failed earlier install can leave state with no registration.
			if err := pers.Drop(name); err != nil {
				return fmt.Errorf("engine: clear replica state %q: %w", name, err)
			}
		}
		if err := pers.Create(name, g); err != nil {
			return fmt.Errorf("engine: persist replica %q: %w", name, err)
		}
	}
	if err := e.register(name, g); err != nil {
		if pers := e.opts.Persistence; pers != nil {
			_ = pers.Drop(name)
		}
		return err
	}
	return nil
}

// DropReplicaGraph removes a graph the leader dropped, bypassing the
// read-only guard. Unknown names are a no-op (the follower may never
// have installed it).
func (e *Engine) DropReplicaGraph(name string) error {
	err := e.removeGraph(name)
	if errors.Is(err, ErrNoGraph) {
		return nil
	}
	return err
}

// ApplyReplicatedRecord replays one leader WAL record onto a follower
// graph, bypassing the read-only guard. It runs the same pipeline as a
// native write — wal.Record.Apply is the reference for what reaches the
// graph — so matchers, accelerators and live subscriptions advance in
// lockstep with the leader's. Records at or below the graph's version are
// skipped (ring replay after a reconnect legitimately overlaps). Errors
// mean the follower diverged from the leader's stream; the caller must
// resync by snapshot, not retry.
func (e *Engine) ApplyReplicatedRecord(name string, rec *wal.Record) error {
	_, err := e.mutate(context.Background(), name, rec, true)
	return err
}
