package engine

// Continuous queries: the engine front-end of internal/subscribe. A
// subscription is a standing query whose match deltas stream to the
// client as the graph evolves. Its pattern is maintained by the graph's
// standing-query matcher — the one a RegisterQuery of the same pattern
// uses — which every mutation repairs in place; the mutation then
// publishes to the hub while still holding the graph's lock, so
// subscribers observe exactly the relation sequence the mutations
// produced. Subscribe, Unsubscribe and UnregisterQuery take the graph's
// write lock before the hub's (lock order: graph → hub).

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
// subsequent events are the match deltas every mutation publishes
// (ApplyUpdates / PushUpdates, AddNode, RemoveNode, SetNodeAttr, and
// replicated records). Subscriptions sharing a pattern — with each other
// and with a registered query — share one incremental matcher.
func (e *Engine) Subscribe(graphName string, q *pattern.Pattern, opts subscribe.Options) (*subscribe.Subscription, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return nil, err
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if mg.removed {
		// Lost the race with RemoveGraph: registering now would create a
		// subscription nothing can ever close.
		return nil, fmt.Errorf("%w: %q", ErrNoGraph, graphName)
	}
	mg.standing(q)
	return e.hub.Subscribe(graphName, mg.g, q, mg.relationOf, opts), nil
}

// Unsubscribe closes a subscription by id. The last subscriber of a
// pattern nobody registered ends its maintenance.
func (e *Engine) Unsubscribe(id string) error {
	s, err := e.hub.Get(id)
	if err != nil {
		return err
	}
	mg, err := e.lookup(s.GraphName())
	if err != nil {
		// The graph is being removed, which closes the subscription anyway.
		return e.hub.Unsubscribe(id)
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if err := e.hub.Unsubscribe(id); err != nil {
		return err
	}
	e.release(s.GraphName(), mg, s.PatternHash())
	return nil
}

// Subscription resolves a live subscription by id.
func (e *Engine) Subscription(id string) (*subscribe.Subscription, error) { return e.hub.Get(id) }

// Subscriptions lists the subscriptions on the named graph (every graph
// when the name is empty), sorted by id.
func (e *Engine) Subscriptions(graphName string) []subscribe.Info { return e.hub.List(graphName) }

// SubscriptionStats snapshots the subscription hub's counters.
func (e *Engine) SubscriptionStats() subscribe.Stats { return e.hub.Stats() }

// PushUpdates is ApplyUpdates for streaming workloads: it applies the
// edge updates, repairs registered queries, and additionally reports how
// many live subscriptions were handed a delta by the fan-out. ctx reaches
// the WAL append, so a traced update captures its durability cost (see
// internal/trace); cancellation is not consulted: once called, the batch
// applies atomically.
func (e *Engine) PushUpdates(ctx context.Context, graphName string, ops []graph.Update) (deltas []Delta, notified int, err error) {
	out, err := e.mutate(ctx, graphName, &wal.Record{Kind: wal.RecUpdates, Ops: ops}, false)
	return out.deltas, out.notified, err
}
