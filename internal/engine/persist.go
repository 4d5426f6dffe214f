package engine

// Durable persistence: the engine front-end of internal/wal. The write
// pipeline in mutate.go appends to the graph's write-ahead log while
// holding the graph's lock; this file owns the rest of the lifecycle —
// boot-time recovery, checkpoints (snapshot + log truncation), and
// shutdown.
//
// Recovery contract: Recover() registers every persisted graph at its
// exact pre-crash content and graph.Version() (a torn record at the log
// tail is dropped; everything before it survives) and recounts its
// statistics, exactly as AddGraph does. Only the graph is durable: the
// distance index, partitionings and quotients are in-memory accelerators
// an operator builds again after a restart, and continuous queries are
// left to their protocol — subscriptions are client handles that die
// with the process, and a reconnecting subscriber gets a fresh snapshot
// event via the existing overflow→snapshot resync path.

import (
	"errors"
	"fmt"
	"time"

	"expfinder/internal/wal"
)

// ErrNoPersistence reports a persistence operation on an engine without
// a configured wal.Manager.
var ErrNoPersistence = errors.New("engine: no persistence configured")

// GraphRecovery describes the outcome of recovering one persisted graph.
type GraphRecovery struct {
	Name    string `json:"name"`
	Nodes   int    `json:"nodes"`
	Edges   int    `json:"edges"`
	Version uint64 `json:"version"`
	// Records is how many WAL records were replayed on top of the
	// snapshot (zero for "snapshot with no WAL").
	Records int `json:"records"`
	// TornTail reports that a partial trailing record — a crash during an
	// append — was discarded.
	TornTail bool `json:"torn_tail,omitempty"`
	// Err is set when this graph could not be recovered (its files are
	// left untouched for inspection); other graphs still recover.
	Err string `json:"error,omitempty"`
}

// RecoverySummary reports per-graph recovery outcomes, sorted by name.
type RecoverySummary struct {
	Graphs []GraphRecovery `json:"graphs"`
}

// Failed returns the recoveries that errored.
func (s *RecoverySummary) Failed() []GraphRecovery {
	var out []GraphRecovery
	for _, g := range s.Graphs {
		if g.Err != "" {
			out = append(out, g)
		}
	}
	return out
}

// Recover replays every persisted graph (snapshot + surviving WAL
// records) into the engine. Call it at boot, before registering graphs
// under names that may have persisted state. A graph that fails to
// recover is reported in the summary and skipped — its files stay on
// disk untouched — so one corrupt graph never blocks the rest.
func (e *Engine) Recover() (*RecoverySummary, error) {
	pers := e.opts.Persistence
	if pers == nil {
		return nil, ErrNoPersistence
	}
	names, err := pers.GraphNames()
	if err != nil {
		return nil, fmt.Errorf("engine: list persisted graphs: %w", err)
	}
	sum := &RecoverySummary{}
	for _, name := range names {
		gr := GraphRecovery{Name: name}
		rec, err := pers.Recover(name)
		if err != nil {
			gr.Err = err.Error()
			sum.Graphs = append(sum.Graphs, gr)
			continue
		}
		if err := e.register(name, rec.Graph); err != nil {
			gr.Err = err.Error()
			sum.Graphs = append(sum.Graphs, gr)
			continue
		}
		gr.Nodes = rec.Graph.NumNodes()
		gr.Edges = rec.Graph.NumEdges()
		gr.Version = rec.Graph.Version()
		gr.Records = rec.Records
		gr.TornTail = rec.TornTail
		sum.Graphs = append(sum.Graphs, gr)
	}
	return sum, nil
}

// Checkpoint snapshots the named graph and truncates the WAL the
// snapshot covers. Queries proceed during the snapshot write's disk I/O
// only insofar as they already hold read locks — Checkpoint takes the
// graph's read lock, so it excludes writers but not readers.
func (e *Engine) Checkpoint(graphName string) error {
	pers := e.opts.Persistence
	if pers == nil {
		return ErrNoPersistence
	}
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return pers.Checkpoint(graphName, mg.g)
}

// CheckpointAll checkpoints every managed graph, returning the first
// error after attempting all.
func (e *Engine) CheckpointAll() error {
	if e.opts.Persistence == nil {
		return ErrNoPersistence
	}
	var first error
	for _, name := range e.ListGraphs() {
		if err := e.Checkpoint(name); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PersistenceEnabled reports whether the engine has a durable log.
func (e *Engine) PersistenceEnabled() bool { return e.opts.Persistence != nil }

// PersistenceStats snapshots the log manager's counters and per-graph
// state.
func (e *Engine) PersistenceStats() (wal.Stats, error) {
	if e.opts.Persistence == nil {
		return wal.Stats{}, ErrNoPersistence
	}
	return e.opts.Persistence.Stats(), nil
}

// Close shuts the persistence subsystem down: it stops the background
// checkpointer, flushes and syncs every graph's log, and closes the
// manager. Without persistence it is a no-op, so callers can defer it
// unconditionally. Safe to call twice.
//
// Shutdown ordering with subscriptions: drain HTTP/SSE consumers first
// (subscriptions are in-memory client handles — they cannot outlive the
// process, and reconnecting subscribers resync via the snapshot-event
// path), then Close the engine so the final appended records are
// durable. Closing first would not lose data, but mutations racing the
// close would fail their durability hook and surface errors to clients
// that the drain would have answered cleanly.
func (e *Engine) Close() error {
	pers := e.opts.Persistence
	if pers == nil {
		return nil
	}
	e.closeOnce.Do(func() { close(e.persStop) })
	e.persWG.Wait()
	return pers.Close()
}

// checkpointLoop periodically checkpoints graphs whose WAL outgrew the
// configured threshold, bounding both recovery replay time and disk
// growth. The scan period is the manager's CheckpointInterval.
func (e *Engine) checkpointLoop() {
	defer e.persWG.Done()
	t := time.NewTicker(e.opts.Persistence.CheckpointInterval())
	defer t.Stop()
	for {
		select {
		case <-e.persStop:
			return
		case <-t.C:
			for _, name := range e.ListGraphs() {
				if e.opts.Persistence.NeedsCheckpoint(name) {
					// Best-effort: a failed checkpoint leaves the log
					// authoritative and will be retried next tick.
					_ = e.Checkpoint(name)
				}
			}
		}
	}
}
