package engine

// The write path. A mutation is a value — a wal.Record — and every write
// runs the same pipeline under the graph's write lock:
//
//	validate → apply to graph → sync every maintainer once → publish → log
//
// The public write methods build a record and hand it to mutate; so does
// ApplyReplicatedRecord with the records a leader shipped. The two differ
// only at the ends: a native write passes the read-only guard, rolls a
// batch back when one of its ops is invalid, and stamps the record with
// the version the graph reached; a replicated one skips records it already
// holds and restores the leader's version instead.
//
// Maintainers — the standing queries' matchers, then the quotient — are
// told in that fixed order, both of them on every mutation kind: a write
// keeps current only what a query reads. Statistics are not maintained:
// a read recounts them once per graph version. A matcher is one per
// standing query, whether a registration, a subscription or both holds
// it; one that cannot repair in place is rebuilt from scratch.
// A quotient that cannot is dropped: the fan-out never stops half way, and
// a mutation that changed the graph never fails on a maintainer's account.
// The quotient is also dropped by the write that takes it past compress's
// cut (Compressed.Pays): repairs only make it finer, and an operator
// rebuilds it with CompressGraph. No query reads the distance index or the
// partitioning, so every write that reaches the graph detaches both; a
// write rejected before it changed the graph keeps them. Then the
// subscription hub diffs each subscribed query's repaired relation against
// the one it last published and delivers the delta.

import (
	"context"
	"fmt"
	"sort"

	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/wal"
)

// Delta describes how one registered query's matches changed.
type Delta struct {
	PatternHash string
	Added       []match.Pair
	Removed     []match.Pair
}

// applied is what one run of the pipeline produced.
type applied struct {
	deltas   []Delta      // RecUpdates: per-registered-query deltas, by pattern hash
	notified int          // live subscriptions handed a delta
	id       graph.NodeID // RecAddNode: the node inserted, else graph.Invalid
	// done holds the edge ops that reached the graph before apply failed
	// part-way; the maintainers have not seen them.
	done []graph.Update
}

// ApplyUpdates applies edge updates to the named graph, repairs every
// registered query incrementally, maintains the compressed graph if
// present, and fans match deltas out to live subscriptions. It returns
// per-registered-query deltas; PushUpdates additionally reports the
// subscription fan-out count. A batch with an invalid op is rolled back
// whole and changes nothing.
func (e *Engine) ApplyUpdates(graphName string, ops []graph.Update) ([]Delta, error) {
	out, err := e.mutate(context.Background(), graphName, &wal.Record{Kind: wal.RecUpdates, Ops: ops}, false)
	return out.deltas, err
}

// AddNode inserts a node into a managed graph, keeping registered queries
// and the compressed form in sync.
func (e *Engine) AddNode(graphName, label string, attrs graph.Attrs) (graph.NodeID, error) {
	out, err := e.mutate(context.Background(), graphName, &wal.Record{Kind: wal.RecAddNode, Label: label, Attrs: attrs}, false)
	return out.id, err
}

// RemoveNode removes a node and its incident edges from a managed graph,
// repairing registered queries and the compressed form incrementally.
func (e *Engine) RemoveNode(graphName string, id graph.NodeID) error {
	_, err := e.mutate(context.Background(), graphName, &wal.Record{Kind: wal.RecRemoveNode, ID: id}, false)
	return err
}

// SetNodeAttr updates one attribute of a node in a managed graph, keeping
// registered queries and the compressed form in sync (the predicate and
// signature changes are repaired incrementally).
func (e *Engine) SetNodeAttr(graphName string, id graph.NodeID, key string, v graph.Value) error {
	_, err := e.mutate(context.Background(), graphName, &wal.Record{Kind: wal.RecSetAttr, ID: id, Key: key, Val: v}, false)
	return err
}

// mutate runs rec through the pipeline on the named graph. ctx reaches
// only the WAL append, for its trace span.
func (e *Engine) mutate(ctx context.Context, name string, rec *wal.Record, replicated bool) (applied, error) {
	out := applied{id: graph.Invalid}
	if !replicated {
		if err := e.writable(); err != nil {
			return out, err
		}
	}
	mg, err := e.lookup(name)
	if err != nil {
		return out, err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if replicated && rec.Post <= mg.g.Version() {
		return out, nil
	}
	if out, err = e.apply(mg, rec); err != nil {
		if replicated || len(out.done) == 0 {
			return out, err
		}
		// Undo the prefix that applied, so graph and maintainers agree
		// again, and log the forward and inverse ops as one batch: the
		// undo re-adds edges by append, which changes adjacency ORDER, and
		// only a replay of the same op sequence reproduces it byte for
		// byte. The caller still sees the apply error.
		ops := append(make([]graph.Update, 0, 2*len(out.done)), out.done...)
		for j := len(out.done) - 1; j >= 0; j-- {
			inv := out.done[j].Inverse()
			_ = inv.Apply(mg.g) // the inverse of an op that just applied cannot fail
			ops = append(ops, inv)
		}
		rec = &wal.Record{Kind: wal.RecUpdates, Ops: ops}
	}
	// Subscriptions go last, so their deltas reflect the same graph every
	// other maintainer settled on.
	out.notified = e.hub.Publish(name, mg.g, mg.relationOf)
	if replicated {
		mg.g.RestoreVersion(rec.Post)
	} else {
		rec.Post = mg.g.Version()
	}
	// The version may have moved past what the syncs stamped — a node
	// removal ends with a graph mutation no maintainer sees on its own, a
	// rollback advances it over unchanged content, a replica jumps to the
	// leader's — and a version gap would silently demote every query to
	// the direct plan.
	mg.refreshVersions()
	// No query reads these two, so a write detaches rather than repairs them.
	mg.idx, mg.part = nil, nil
	if pers := e.opts.Persistence; pers != nil {
		if logErr := pers.LogRecord(ctx, name, rec); logErr != nil && err == nil {
			err = fmt.Errorf("engine: log mutation: %w", logErr)
		}
	}
	return out, err
}

// apply performs rec on the graph and tells every maintainer. On error the
// graph is unchanged except for the edge ops reported in done.
func (e *Engine) apply(mg *managed, rec *wal.Record) (out applied, err error) {
	out.id = graph.Invalid
	switch rec.Kind {
	case wal.RecUpdates:
		if out.done, err = applyEdges(mg.g, rec.Ops); err != nil {
			return out, err
		}
		out.deltas = mg.syncEdges(rec.Ops)
	case wal.RecAddNode:
		out.id = mg.g.AddNode(rec.Label, rec.Attrs)
		for _, sq := range mg.queries {
			sq.m.SyncNodeAdded(out.id)
		}
		if mg.comp != nil && mg.comp.SyncNodeAdded(out.id) != nil {
			mg.comp = nil
		}
	case wal.RecRemoveNode:
		if !mg.g.Has(rec.ID) {
			return out, graph.ErrNoNode
		}
		// Detach the incident edges as an ordinary edge batch, so cascades
		// run while the graph is still consistent; then the node is
		// isolated and leaves everywhere.
		var ops []graph.Update
		for _, v := range mg.g.Out(rec.ID) {
			ops = append(ops, graph.Delete(rec.ID, v))
		}
		for _, u := range mg.g.In(rec.ID) {
			if u != rec.ID { // the out pass covered a self-loop
				ops = append(ops, graph.Delete(u, rec.ID))
			}
		}
		if out.done, err = applyEdges(mg.g, ops); err != nil {
			return out, err
		}
		mg.syncEdges(ops)
		for _, sq := range mg.queries {
			sq.m.SyncNodeRemoving(rec.ID)
		}
		if mg.comp != nil && mg.comp.SyncNodeRemoving(rec.ID) != nil {
			mg.comp = nil
		}
		if err := mg.g.RemoveNode(rec.ID); err != nil {
			return out, err // unreachable: Has held above, under the write lock
		}
	case wal.RecSetAttr:
		if err := mg.g.SetAttr(rec.ID, rec.Key, rec.Val); err != nil {
			return out, err
		}
		for _, sq := range mg.queries {
			if _, _, err := sq.m.SyncAttrChanged(rec.ID); err != nil {
				mg.rebuild(sq)
			}
		}
		if mg.comp != nil && mg.comp.SyncAttrChanged(rec.ID, rec.Key) != nil {
			mg.comp = nil
		}
	case wal.RecVersion:
		// Restoring the version, in mutate, is the whole mutation.
	default:
		return out, fmt.Errorf("engine: unknown record kind %d", rec.Kind)
	}
	// Repairs split blocks and never merge them, so only a rebuild makes a
	// quotient that stopped paying coarse again: drop it rather than
	// repair it on every later write.
	if mg.comp != nil && !mg.comp.Pays() {
		mg.comp = nil
	}
	return out, nil
}

// applyEdges performs ops on g in order. On an invalid op it stops and
// returns the prefix that applied.
func applyEdges(g *graph.Graph, ops []graph.Update) (done []graph.Update, err error) {
	for i, op := range ops {
		if err := op.Apply(g); err != nil {
			return ops[:i], fmt.Errorf("engine: apply op %d: %w", i, err)
		}
	}
	return nil, nil
}

// syncEdges tells every maintainer about edge ops already on the graph,
// and returns the registered queries' deltas sorted by pattern hash. The
// quotient survives only while its scheme repairs in place: a
// simulation-equivalence quotient is dropped by the first write.
func (mg *managed) syncEdges(ops []graph.Update) []Delta {
	var deltas []Delta
	for h, sq := range mg.queries {
		added, removed, err := sq.m.Sync(ops)
		if err != nil {
			mg.rebuild(sq)
			continue
		}
		if sq.registered {
			deltas = append(deltas, Delta{PatternHash: h, Added: added, Removed: removed})
		}
	}
	sort.Slice(deltas, func(i, j int) bool { return deltas[i].PatternHash < deltas[j].PatternHash })
	if mg.comp != nil && mg.comp.Sync(ops) != nil {
		mg.comp = nil
	}
	return deltas
}

// rebuild replaces a matcher that could not repair itself with one
// evaluated from scratch, so no registration or subscriber is lost. The
// write reports no delta for that query; its subscribers still get one,
// since the hub diffs relations.
func (mg *managed) rebuild(sq *standingQuery) {
	sq.m = incremental.NewMatcher(mg.g, sq.q)
}

// refreshVersions re-stamps every maintainer at the graph's version.
func (mg *managed) refreshVersions() {
	for _, sq := range mg.queries {
		sq.m.RefreshVersion()
	}
	if mg.comp != nil {
		mg.comp.RefreshVersion()
	}
}
