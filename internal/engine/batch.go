package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/trace"
)

// QueryRequest is one query in full: the target graph, the pattern, the
// top-K cutoff (K <= 0 ranks all matches of the output node), and the two
// things a query may vary beside them.
type QueryRequest struct {
	Graph   string
	Pattern *pattern.Pattern
	K       int
	// Semantics is the matching semantics; the zero value is the paper's
	// bounded simulation. Each semantics has its own cached answer.
	Semantics match.Semantics
	// Metric is the ranking function. nil is the paper's average distance,
	// served from the answer's cached ranking; any other metric is ranked
	// on each request from the answer's relation and result graph.
	Metric rank.Metric
	// Render, when set, runs on a successful answer while the graph's read
	// lock is still held, so whatever it reads of the graph (display
	// names, DOT) is the version the answer was computed on. It must not
	// retain the graph or call back into the engine.
	Render func(*graph.Graph, *Result)
}

// ErrOverloaded is the execution pool's refusal: every slot is held and
// the wait queue is at its bound, so one more waiter would only grow the
// tail. It carries what the refused caller saw.
type ErrOverloaded struct {
	Queued, Bound int
}

func (e *ErrOverloaded) Error() string {
	return fmt.Sprintf("engine overloaded: %d of %d queue places taken", e.Queued, e.Bound)
}

// PoolStats is one reading of the execution pool.
type PoolStats struct {
	Held   int // slots taken, by evaluating queries and admitted requests
	Queued int // callers waiting for a slot
	Bound  int // the queue's bound: 4×Parallelism
}

// pool is the engine's one execution pool: Parallelism slots and a wait
// queue bounded at 4×Parallelism. Every query takes its slot here inside
// Execute, and the serving tier takes one here for each request it does
// not hand to Execute (Admit), so a request waits in one queue only.
type pool struct {
	slots  chan struct{}
	queued atomic.Int64
	bound  int64
}

func newPool(par int) *pool {
	return &pool{slots: make(chan struct{}, par), bound: 4 * int64(par)}
}

// acquire takes a slot, queueing up to the bound, under one
// "admission.wait" span. It fails with *ErrOverloaded when the queue is
// full and with ctx's error when ctx ends first.
func (p *pool) acquire(ctx context.Context) error {
	_, sp := trace.StartSpan(ctx, "admission.wait")
	defer sp.End()
	select {
	case p.slots <- struct{}{}: // fast path: an idle slot
		return nil
	default:
	}
	for { // CAS-bounded enqueue
		q := p.queued.Load()
		if q >= p.bound {
			return &ErrOverloaded{Queued: int(q), Bound: int(p.bound)}
		}
		if p.queued.CompareAndSwap(q, q+1) {
			break
		}
	}
	defer p.queued.Add(-1)
	select {
	case p.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (p *pool) release() { <-p.slots }

// Pool reads the execution pool.
func (e *Engine) Pool() PoolStats {
	return PoolStats{Held: len(e.pool.slots), Queued: int(e.pool.queued.Load()), Bound: int(e.pool.bound)}
}

// Admit takes one slot of the execution pool for work the caller runs
// itself, under the same queue bound and "admission.wait" span as a
// query; call release when done. A caller holding a slot must not call
// Execute (or QueryBatch, QueryAsync): at Parallelism 1 it would wait for
// its own slot.
func (e *Engine) Admit(ctx context.Context) (release func(), err error) {
	if err := e.pool.acquire(ctx); err != nil {
		return nil, err
	}
	return e.pool.release, nil
}

// QueryOutcome is the answer to one QueryRequest: exactly one of Result
// and Err is set.
type QueryOutcome struct {
	Result *Result
	Err    error
}

// QueryCtx is Execute for the paper's query: bounded simulation ranked by
// average distance.
func (e *Engine) QueryCtx(ctx context.Context, graphName string, q *pattern.Pattern, k int) (*Result, error) {
	return e.Execute(ctx, QueryRequest{Graph: graphName, Pattern: q, K: k})
}

// Execute answers one query, whatever its semantics and metric, through
// the one pipeline: it waits for a slot of the execution pool, fails with
// *ErrOverloaded when the pool's queue is full, and gives up if ctx is
// cancelled while waiting. A wait for the graph's read lock (behind an
// in-progress update) is not cancellable. Once started, an evaluation on the
// refinement kernel checks ctx between its ball-walk passes: a cancelled
// query returns ctx.Err() within a few passes, caches nothing, and frees
// its slot and the read lock. Result-graph construction and ranking each
// run to completion once started, but ctx is checked at the boundaries
// between them — after the relation and after the result graph — and the
// answer enters the cache only as the last step, so a query cancelled at
// any of those points also returns ctx.Err() and caches nothing.
//
// The slot is taken *before* the graph's read lock: a query parked in
// the queue holds nothing, so writers to its graph never wait for the
// pool to free up, and giving up while parked has nothing to release.
// The trade-off is that a query holding a slot may itself wait behind an
// in-progress update to its graph; updates hold the lock for
// microseconds to milliseconds, queries for their whole evaluation.
func (e *Engine) Execute(ctx context.Context, req QueryRequest) (*Result, error) {
	if err := req.Pattern.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := time.Now()
	mg, err := e.lookup(req.Graph)
	if err != nil {
		return nil, err
	}
	if err := e.pool.acquire(ctx); err != nil {
		return nil, err
	}
	defer e.pool.release()
	e.evaluating.Add(1)
	defer e.evaluating.Add(-1)
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	res, err := e.queryLocked(ctx, mg, req, start)
	if err == nil && req.Render != nil {
		req.Render(mg.g, res)
	}
	return res, err
}

// QueryBatch evaluates a batch of queries concurrently on a worker pool
// bounded by the engine's Parallelism, returning one outcome per request
// in request order. Each query is answered exactly as Query would answer
// it — the executor only changes scheduling, never results. Requests not
// yet started when ctx is cancelled fail with ctx.Err(), and so do
// in-flight ones that reach a cancellation point (see Execute). Each entry
// takes its own slot of the execution pool; one refused by a full queue
// fails alone with *ErrOverloaded.
func (e *Engine) QueryBatch(ctx context.Context, reqs []QueryRequest) []QueryOutcome {
	out := make([]QueryOutcome, len(reqs))
	workers := e.par
	if workers > len(reqs) {
		workers = len(reqs)
	}
	if workers < 1 {
		workers = 1
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				res, err := e.Execute(ctx, reqs[i])
				out[i] = QueryOutcome{Result: res, Err: err}
			}
		}()
	}
	for i := range reqs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}

// QueryAsync dispatches one query through the bounded executor and
// returns a channel that delivers its outcome (buffered: the result is
// never lost if the caller reads late). Like Execute it fails with
// *ErrOverloaded when more than 5×Parallelism queries and admitted
// requests are in the pool at once.
func (e *Engine) QueryAsync(ctx context.Context, req QueryRequest) <-chan QueryOutcome {
	ch := make(chan QueryOutcome, 1)
	go func() {
		res, err := e.Execute(ctx, req)
		ch <- QueryOutcome{Result: res, Err: err}
		close(ch)
	}()
	return ch
}
