package engine

// Continuous queries: the engine front-end of internal/subscribe. A
// subscription is a standing query whose match deltas stream to the
// client as the graph evolves, maintained by the same per-graph
// coordination as registered queries, compressed views, and distance
// indexes — every mutation path fans out to the hub while holding the
// graph's lock, so subscribers observe exactly the relation sequence the
// mutations produced.

import (
	"context"
	"fmt"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
	"expfinder/internal/subscribe"
	"expfinder/internal/wal"
)

// Subscribe registers a standing query on the named graph and returns a
// subscription whose first event is a snapshot of the current relation;
// subsequent events are match deltas published by ApplyUpdates /
// PushUpdates, node insertions, and flushes after invalidating mutations
// (RemoveNode, SetNodeAttr). Subscriptions sharing a pattern share one
// incremental matcher.
func (e *Engine) Subscribe(graphName string, q *pattern.Pattern, opts subscribe.Options) (*subscribe.Subscription, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return nil, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	if mg.removed {
		// Lost the race with RemoveGraph: registering now would create a
		// subscription nothing can ever close.
		return nil, fmt.Errorf("%w: %q", ErrNoGraph, graphName)
	}
	return e.hub.Subscribe(graphName, mg.g, q, opts)
}

// Unsubscribe closes a subscription by id. The last subscriber of a
// standing query releases its matcher.
func (e *Engine) Unsubscribe(id string) error { return e.hub.Unsubscribe(id) }

// Subscription resolves a live subscription by id.
func (e *Engine) Subscription(id string) (*subscribe.Subscription, error) { return e.hub.Get(id) }

// Subscriptions lists the subscriptions on the named graph (every graph
// when the name is empty), sorted by id.
func (e *Engine) Subscriptions(graphName string) []subscribe.Info { return e.hub.List(graphName) }

// SubscriptionStats snapshots the subscription hub's counters.
func (e *Engine) SubscriptionStats() subscribe.Stats { return e.hub.Stats() }

// PushUpdates is ApplyUpdates for streaming workloads: it applies the
// edge updates, repairs registered queries, and additionally reports how
// many live subscriptions were handed a delta by the fan-out.
func (e *Engine) PushUpdates(graphName string, ops []graph.Update) (deltas []Delta, notified int, err error) {
	return e.PushUpdatesCtx(context.Background(), graphName, ops)
}

// PushUpdatesCtx is PushUpdates threading ctx through to the WAL append
// so traced streaming updates capture the durability cost. Like
// ApplyUpdatesCtx, cancellation is not consulted.
func (e *Engine) PushUpdatesCtx(ctx context.Context, graphName string, ops []graph.Update) (deltas []Delta, notified int, err error) {
	out, err := e.mutate(ctx, graphName, &wal.Record{Kind: wal.RecUpdates, Ops: ops}, false)
	return out.deltas, out.notified, err
}

// FlushSubscriptions forces the lazy recompute of any standing queries
// invalidated by node removals or attribute changes and publishes the
// resulting net deltas, returning the number of subscriptions notified.
// Callers only need it to bound staleness between update batches —
// ApplyUpdates flushes as part of its fan-out.
func (e *Engine) FlushSubscriptions(graphName string) (int, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return 0, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return e.hub.Flush(graphName, mg.g), nil
}
