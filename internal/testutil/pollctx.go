package testutil

import (
	"context"
	"sync/atomic"
)

// PollCtx is a context whose owner gives up at a chosen point of a
// computation that polls Err between its steps (the bounded-simulation
// evaluators, between ball-walk passes): Err reports context.Canceled from
// its N-th call on. Done is the embedded context's, so nothing but polling
// sees the cancellation — which makes "cancelled mid-evaluation"
// deterministic where a timer would race the work.
type PollCtx struct {
	context.Context
	N int64
	// At, when set, runs once inside the N-th Err call, before that call
	// reports cancellation: the poller is parked mid-computation while the
	// test arranges what should be waiting on it.
	At    func()
	polls atomic.Int64
}

func (c *PollCtx) Err() error {
	p := c.polls.Add(1)
	if p == c.N && c.At != nil {
		c.At()
	}
	if p >= c.N {
		return context.Canceled
	}
	return nil
}

// Polls reports how many times Err has been called.
func (c *PollCtx) Polls() int64 { return c.polls.Load() }
