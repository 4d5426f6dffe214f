package engine

import (
	"context"
	"sync"
	"time"

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
// the one pipeline: it waits for an execution slot (the engine runs at
// most Parallelism queries at once) and gives up if ctx is cancelled while
// waiting for one. A wait for the graph's read lock (behind an in-progress
// update) is not cancellable. Once started, an evaluation on the
// refinement kernel (every plan but the partitioned one) checks ctx
// between its ball-walk passes: a cancelled query returns ctx.Err() within
// a few passes, caches nothing, and frees its slot and the read lock. The
// partitioned evaluator, result-graph construction and ranking each run to
// completion once started, but ctx is checked at the boundaries between
// them — after the relation and after the result graph — and the answer
// enters the cache only as the last step, so a query cancelled at any of
// those points also returns ctx.Err() and caches nothing.
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
	_, spWait := trace.StartSpan(ctx, "engine.wait")
	e.waiting.Add(1)
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		e.waiting.Add(-1)
		spWait.End()
		return nil, ctx.Err()
	}
	e.waiting.Add(-1)
	spWait.End()
	defer func() { <-e.sem }()
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return e.queryLocked(ctx, mg, req, start)
}

// QueryBatch evaluates a batch of queries concurrently on a worker pool
// bounded by the engine's Parallelism, returning one outcome per request
// in request order. Each query is answered exactly as Query would answer
// it — the executor only changes scheduling, never results. Requests not
// yet started when ctx is cancelled fail with ctx.Err(), and so do
// in-flight ones that reach a cancellation point (see Execute).
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
// never lost if the caller reads late).
func (e *Engine) QueryAsync(ctx context.Context, req QueryRequest) <-chan QueryOutcome {
	ch := make(chan QueryOutcome, 1)
	go func() {
		res, err := e.Execute(ctx, req)
		ch <- QueryOutcome{Result: res, Err: err}
		close(ch)
	}()
	return ch
}
