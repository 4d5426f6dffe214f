// Package engine is ExpFinder's query engine: it manages named data
// graphs, evaluates (bounded) simulation queries with plan selection,
// ranks top-K experts, caches results, registers frequently issued queries
// for incremental maintenance, and routes evaluation through compressed
// graphs when one is available — the coordination described in §II of the
// paper.
//
// Evaluation pipeline for a query Q on graph G, under either matching
// semantics (match.Semantics is a field of the query and of the cache key):
//
//  1. return the cached answer — M(Q,G) and the full ranking, one
//     immutable internal/cache entry — if the cache holds one for G's
//     current version;
//  2. if Q is a standing query — registered for incremental maintenance,
//     watched by a subscription, or both — read the maintained relation;
//  3. if a compressed graph Gc compatible with Q exists and still pays
//     (compress.Compressed.Pays), evaluate on Gc and expand;
//  4. otherwise evaluate directly on the refinement kernel (internal/bsim),
//     under the plan name "simulation" when every bound is 1 and
//     "bounded-simulation" otherwise.
//
// The plan is a function of the request alone (routePlan); which of steps
// 2 to 4 answers is evaluate's one switch. Steps 2 and 3 are maintainers
// of the bounded-simulation relation only: a dual-simulation query goes
// from step 1 straight to the kernel on G. A distance index or an edge-cut
// partitioning may be attached, but no query reads either, and the next
// write detaches both. queryLocked does step 1 and, after a miss, stores
// the one entry; evaluate is steps 2 to 4 and touches neither the cache
// nor any file. What a Result carries is the entry's own relation and its
// encoded matches, shared with every other holder and never copied: the
// relation is frozen (match.Relation.Freeze) as soon as it is evaluated
// and encoded once right after (match.Relation.AppendJSON), so the result
// graph and the ranking read the order it was frozen in, and every
// response writes the bytes the miss encoded. The
// result graph a miss ranks over is not cached; a request ranked by
// another metric rebuilds it from the relation on a hit, and so does a
// Render that draws it, both under the read lock the answer was computed
// under.
//
// Writes are one pipeline (mutate.go). A mutation is a wal.Record; native
// writes and replicated replay run the same validate → apply → sync every
// maintainer once → log sequence under the graph's write lock, with edge
// batches passed to every maintainer and the log as one []graph.Update.
// The maintainers are what queries read: the standing queries' matchers
// and the quotient; statistics are recounted when read, once per graph
// version. Every write that reaches the graph drops the graph's cache
// entries: their keys name a version no query can ask for again. A
// quotient that cannot repair in place is dropped — a
// simulation-equivalence one lives until the first write, a bisimulation
// one until a write takes it past the cut — and the write itself never
// fails on its account.
//
// Beyond one-shot queries, the engine hosts continuous queries
// (Subscribe): standing patterns whose match deltas stream to clients as
// updates are applied. A subscribed pattern is maintained by the same
// matcher as a registered one — one per pattern, whoever holds it — and
// after every mutation internal/subscribe diffs and delivers what the
// matchers settled on.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/bsim"
	"expfinder/internal/cache"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/stats"
	"expfinder/internal/subscribe"
	"expfinder/internal/trace"
	"expfinder/internal/wal"
)

// Engine errors.
var (
	ErrGraphExists  = errors.New("engine: graph already exists")
	ErrNoGraph      = errors.New("engine: no such graph")
	ErrNotTracked   = errors.New("engine: query not registered")
	ErrIncompatible = errors.New("engine: compressed view incompatible with query")
	ErrNoIndex      = errors.New("engine: no distance index built")
)

// Plan names the algorithm selected for a query.
type Plan string

// Plans.
const (
	PlanSimulation Plan = "simulation"         // all bounds 1: every ball is a successor list
	PlanBounded    Plan = "bounded-simulation" // cubic
	// PlanDual is dual simulation, evaluated by the same kernel with its
	// parent counters on, always on the original graph: the matchers and
	// the quotient maintain the bounded-simulation relation only.
	PlanDual Plan = "dual-simulation"
)

// Source names where a query result came from.
type Source string

// Sources.
const (
	SourceCache       Source = "cache"
	SourceIncremental Source = "incremental"
	SourceCompressed  Source = "compressed"
	SourceDirect      Source = "direct"
)

// Options configures an Engine.
type Options struct {
	// CacheSize is ignored. It counted entries of a memo that no longer
	// exists and stays only because bench/layers.go, which a code change
	// may not edit, names it; the next benchmark change removes it.
	CacheSize int
	// CacheBytes is the byte budget of the result cache: each answer is
	// charged its relation and ranking. <= 0 means
	// cache.DefaultBudget.
	CacheBytes int64
	// Parallelism is the execution pool's slot count — how many queries
	// (QueryBatch, QueryAsync, and overlapping Query calls) and Admit
	// holders run at once; 4×Parallelism more may wait — and how many
	// workers the bounded-simulation inner loop may fan out to. <= 0 means
	// GOMAXPROCS. Results never depend on it.
	Parallelism int
	// Persistence, when set, makes every graph mutation durable: each
	// mutation appends to the graph's write-ahead log under the graph's
	// lock, a background checkpointer snapshots graphs whose logs have
	// grown, and boot-time Recover() replays snapshot+WAL back into the
	// engine. Call Close() on shutdown to flush the log, and Recover()
	// before registering graphs whose state should come back. See
	// internal/wal and docs/ARCHITECTURE.md ("Durability").
	Persistence *wal.Manager
}

// Engine manages graphs and evaluates queries. Safe for concurrent use.
// Locking is sharded per graph: the engine lock guards only the name ->
// graph registry, and each managed graph carries its own RWMutex, so
// lock contention never crosses graph boundaries — an update on one
// graph never blocks queries on another at the lock level. The one
// cross-graph coupling is the shared execution pool: at most Parallelism
// queries and admitted requests run at once, so under a saturated pool a
// query queues for a slot regardless of which graph it targets. A queued
// query holds no graph lock, so it never delays a writer; a query holding
// a slot waits at most for the update in progress on its own graph.
type Engine struct {
	mu    sync.RWMutex // guards gs, the registry map, only
	opts  Options
	par   int
	cache *cache.Cache
	gs    map[string]*managed

	pool *pool
	// evaluating counts queries holding a slot inside Execute, so
	// evalWorkers splits the worker budget among the queries that use CPU
	// — not among Admit holders, such as a writer parked on a graph lock.
	evaluating atomic.Int32
	epochs     atomic.Uint64 // graph-registration counter, see managed.epoch

	// hub is the continuous-query registry (see Subscribe): every graph
	// mutation path fans match deltas out to its live subscriptions while
	// holding the graph's lock.
	hub *subscribe.Hub

	// Background checkpointer lifecycle (persistence only; see persist.go).
	persStop  chan struct{}
	persWG    sync.WaitGroup
	closeOnce sync.Once

	// Replication follower state (see replicate.go): while readOnly is
	// set every public mutation path rejects with ReadOnlyError naming
	// the leader; the replicated-apply paths bypass the guard.
	roMu     sync.RWMutex
	readOnly bool
	leader   string
}

// managed is one registered graph with everything attached to it. Its
// mutex guards the graph, the compressed form, and the standing queries;
// queries hold it for read, mutations, registrations and subscription
// changes for write. epoch is the engine-wide registration counter
// distinguishing this instance from any other graph ever registered under
// the same name.
type managed struct {
	mu      sync.RWMutex
	epoch   uint64
	removed bool // set under mu by RemoveGraph; Subscribe re-checks it
	g       *graph.Graph
	comp    *compress.Compressed      // optional
	idx     *distindex.Index          // optional; the next write detaches it
	part    *partition.Partitioning   // optional; the next write detaches it
	st      *stats.Graph              // statistics, recounted once per version read
	queries map[string]*standingQuery // pattern hash -> standing query
}

// standingQuery is one pattern under incremental maintenance on a graph:
// registered through RegisterQuery, watched through Subscribe, or both,
// with one matcher either way. It lives while either holds it.
type standingQuery struct {
	m          *incremental.Matcher
	q          *pattern.Pattern
	registered bool
}

// standing returns q's standing query, starting its maintenance if nothing
// holds it yet. Callers hold mg.mu for write.
func (mg *managed) standing(q *pattern.Pattern) *standingQuery {
	h := q.Hash()
	sq, ok := mg.queries[h]
	if !ok {
		q = q.Clone()
		sq = &standingQuery{m: incremental.NewMatcher(mg.g, q), q: q}
		mg.queries[h] = sq
	}
	return sq
}

// relationOf is the subscription hub's view of the standing queries: the
// maintained relation of the one with the given hash, or nil when the
// graph keeps none under it.
func (mg *managed) relationOf(hash string) *match.Relation {
	if sq, ok := mg.queries[hash]; ok {
		return sq.m.Relation()
	}
	return nil
}

// release ends maintenance of the standing query with the given hash once
// neither a registration nor a subscription holds it. Callers hold mg.mu
// for write.
func (e *Engine) release(name string, mg *managed, hash string) {
	if sq, ok := mg.queries[hash]; ok && !sq.registered && !e.hub.Watched(name, hash) {
		delete(mg.queries, hash)
	}
}

// New returns an engine with the given options.
func New(opts Options) *Engine {
	par := opts.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		opts:  opts,
		par:   par,
		cache: cache.New(opts.CacheBytes),
		gs:    map[string]*managed{},
		hub:   subscribe.NewHub(),
		pool:  newPool(par),
	}
	if opts.Persistence != nil {
		e.persStop = make(chan struct{})
		e.persWG.Add(1)
		go e.checkpointLoop()
	}
	return e
}

// Parallelism reports the engine's effective worker bound.
func (e *Engine) Parallelism() int { return e.par }

// lookup resolves a graph name to its managed entry. Callers lock the
// returned entry; the registry lock is not held on return, so the entry
// stays usable even if the graph is concurrently removed (the query then
// answers against the pre-removal snapshot).
func (e *Engine) lookup(graphName string) (*managed, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	mg, ok := e.gs[graphName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoGraph, graphName)
	}
	return mg, nil
}

// AddGraph registers a graph under a name. The engine owns the graph from
// here on: all mutations must go through ApplyUpdates. With persistence
// enabled the graph's log is created first (an initial snapshot for
// non-empty graphs), so a name with leftover persisted state is rejected
// until it is either recovered (Recover) or dropped (RemoveGraph).
func (e *Engine) AddGraph(name string, g *graph.Graph) error {
	if err := e.writable(); err != nil {
		return err
	}
	return e.addGraph(name, g)
}

// addGraph is AddGraph without the read-only guard — the replica-install
// path registers leader-shipped graphs through it.
func (e *Engine) addGraph(name string, g *graph.Graph) error {
	e.mu.RLock()
	_, taken := e.gs[name]
	e.mu.RUnlock()
	if taken {
		return fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	if pers := e.opts.Persistence; pers != nil {
		if err := pers.Create(name, g); err != nil {
			return fmt.Errorf("engine: persist graph %q: %w", name, err)
		}
	}
	if err := e.register(name, g); err != nil {
		if pers := e.opts.Persistence; pers != nil {
			// The log was freshly created above; dropping it cannot touch
			// pre-existing state.
			_ = pers.Drop(name)
		}
		return err
	}
	return nil
}

// register inserts a graph into the registry (the non-durable half of
// AddGraph, also used by Recover, whose graphs are already attached to
// the log manager) and counts its statistics.
func (e *Engine) register(name string, g *graph.Graph) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.gs[name]; ok {
		return fmt.Errorf("%w: %q", ErrGraphExists, name)
	}
	e.gs[name] = &managed{
		epoch:   e.epochs.Add(1),
		g:       g,
		st:      stats.NewGraph(g),
		queries: map[string]*standingQuery{},
	}
	return nil
}

// RemoveGraph drops a graph and everything attached to it. The registry
// delete is atomic with the existence check, and the persisted state is
// dropped right after: the WAL directory itself serializes re-creation
// (AddGraph's Create refuses while it exists), so the Drop can never hit
// a newer graph's state. If the on-disk drop fails, the registration is
// restored so the caller can retry — otherwise an undeletable log would
// be stranded for the next Recover() to resurrect.
func (e *Engine) RemoveGraph(name string) error {
	if err := e.writable(); err != nil {
		return err
	}
	return e.removeGraph(name)
}

// removeGraph is RemoveGraph without the read-only guard (the follower
// drops graphs the leader dropped).
func (e *Engine) removeGraph(name string) error {
	e.mu.Lock()
	mg, ok := e.gs[name]
	if !ok {
		e.mu.Unlock()
		// Not registered — but a graph whose recovery failed leaves its
		// files on disk with no registration. Removing it through the API
		// must still work, or the name is wedged until someone deletes
		// the directory by hand.
		if pers := e.opts.Persistence; pers != nil && pers.HasState(name) {
			if err := pers.Drop(name); err != nil {
				return fmt.Errorf("engine: drop persisted state %q: %w", name, err)
			}
			return nil
		}
		return fmt.Errorf("%w: %q", ErrNoGraph, name)
	}
	delete(e.gs, name)
	e.mu.Unlock()
	if pers := e.opts.Persistence; pers != nil {
		if err := pers.Drop(name); err != nil {
			e.mu.Lock()
			if _, taken := e.gs[name]; !taken {
				e.gs[name] = mg
			}
			e.mu.Unlock()
			return fmt.Errorf("engine: drop persisted state %q: %w", name, err)
		}
	}
	// Close live subscriptions (buffered events stay readable) under the
	// graph's write lock: a concurrent Subscribe that resolved the entry
	// before the registry delete either registered already — and is
	// closed here — or is still waiting for the lock and will see
	// `removed`, so no orphan subscription can outlive the graph.
	mg.mu.Lock()
	mg.removed = true
	e.hub.CloseGraph(name)
	mg.mu.Unlock()
	// Purge the cache for memory hygiene. Correctness does not depend on
	// this: keys carry the managed epoch, so entries a still-in-flight
	// query re-inserts after this purge can never serve a graph later
	// re-registered under the same name.
	e.cache.InvalidateGraph(name)
	return nil
}

// Graph returns the named graph for read-only use. The returned pointer
// is unsynchronized: the caller must not read it concurrently with
// engine mutations — use WithGraph for a read scope that excludes
// writers.
func (e *Engine) Graph(name string) (*graph.Graph, error) {
	mg, err := e.lookup(name)
	if err != nil {
		return nil, err
	}
	return mg.g, nil
}

// WithGraph runs fn with the named graph locked for read: fn may read
// the graph freely — no engine mutation runs concurrently — but must
// not retain it after returning, call engine methods on the same graph
// (self-deadlock with a waiting writer), or mutate it.
func (e *Engine) WithGraph(name string, fn func(*graph.Graph) error) error {
	mg, err := e.lookup(name)
	if err != nil {
		return err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return fn(mg.g)
}

// ListGraphs returns the names of managed graphs, sorted.
func (e *Engine) ListGraphs() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	names := make([]string, 0, len(e.gs))
	for name := range e.gs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Result is the full answer to a query: the match relation, the ranked
// top-K experts, and provenance. Relation is the cache entry's own and
// shared with every other holder of the same answer: read it, never modify
// it (a frozen relation panics on Add/Remove; Clone it for a private
// copy). TopK is the caller's own slice. A caller that draws the result
// graph builds it with match.BuildResultGraph from the graph and Relation,
// in QueryRequest.Render, where the graph is the version the answer was
// computed on. Matches is the entry's encoding of Relation for the
// request's pattern, the "matches" object of a query response; it is
// shared like Relation and only read.
type Result struct {
	Relation *match.Relation
	Matches  []byte
	TopK     []rank.Ranked
	Plan     Plan
	Source   Source
	Elapsed  time.Duration
}

// Query evaluates q on the named graph and ranks the top k matches of the
// output node (k <= 0 ranks all). See QueryCtx for the cancellable form
// and QueryBatch/QueryAsync for concurrent dispatch.
func (e *Engine) Query(graphName string, q *pattern.Pattern, k int) (*Result, error) {
	return e.QueryCtx(context.Background(), graphName, q, k)
}

// queryLocked runs the evaluation pipeline. The caller holds mg.mu for
// read and an execution slot. It is the only code that reads or fills
// the result cache: one lookup, and after a miss — evaluate, result graph,
// ranking — one store. A request ranked by a metric other than the
// default reads the result graph: a miss hands over the one it ranked
// with, a hit rebuilds it from the entry's relation under a "result_graph"
// span. ctx is checked at each of those stage boundaries; a
// cancelled query returns ctx.Err() and caches nothing. When ctx carries
// an active trace (see internal/trace) the pipeline emits an
// "engine.query" span with one child per stage; results are byte-identical
// with and without tracing.
func (e *Engine) queryLocked(ctx context.Context, mg *managed, req QueryRequest, start time.Time) (*Result, error) {
	q, k := req.Pattern, req.K
	qctx, sp := trace.StartSpan(ctx, "engine.query")
	plan, source := routePlan(q, req.Semantics), SourceCache
	if sp != nil {
		// Set at open, so a query that fails still files under its plan.
		sp.SetStr("graph", req.Graph)
		sp.SetStr("plan", string(plan))
		sp.SetStr("shape", patternShape(q))
	}
	h := q.Hash()
	key := cache.Key{GraphName: req.Graph, Epoch: mg.epoch, GraphVersion: mg.g.Version(), PatternHash: h, Semantics: req.Semantics}
	_, spCache := trace.StartSpan(qctx, "cache.lookup")
	en, hit := e.cache.Lookup(key)
	if spCache != nil {
		spCache.SetBool("hit", hit)
		if hit {
			spCache.SetInt("bytes", en.Bytes)
		}
		spCache.End()
	}
	var rg *match.ResultGraph
	if !hit {
		var err error
		if en, rg, source, err = e.answer(qctx, mg, q, h, plan); err != nil {
			sp.SetStr("error", err.Error())
			sp.End()
			return nil, err
		}
		e.cache.Store(key, en)
	}
	topK := en.Ranking
	if req.Metric != nil {
		if rg == nil {
			_, spRG := trace.StartSpan(qctx, "result_graph")
			rg = match.BuildResultGraph(mg.g, q, en.Relation)
			spRG.End()
		}
		_, spRank := trace.StartSpan(qctx, "rank.topk")
		topK = rank.TopKByMetricWithResultGraph(rg, q, en.Relation, k, req.Metric)
		spRank.SetStr("metric", req.Metric.Name())
		spRank.End()
	} else {
		if k > 0 && k < len(topK) {
			topK = topK[:k]
		}
		topK = append([]rank.Ranked(nil), topK...) // the entry's ranking is shared
	}
	if sp != nil {
		sp.SetStr("source", string(source))
		sp.SetInt("matches", int64(en.Relation.Size()))
		if !hit {
			// Bytes the engine had to materialize; a hit reports the same
			// quantity — the entry's accounted bytes — on its cache.lookup
			// span, and the accounting ledger's served-vs-computed split
			// reads both.
			sp.SetInt("result_bytes", en.Bytes)
		}
		sp.SetInt("k", int64(k))
		sp.End()
	}
	return &Result{
		Relation: en.Relation,
		Matches:  en.Matches,
		TopK:     topK,
		Plan:     plan,
		Source:   source,
		Elapsed:  time.Since(start),
	}, nil
}

// answer builds the cache entry for a miss: the relation by the routed
// plan (h is q's hash), its encoded matches, then its result graph, then
// the ranking of every match of the output node (callers slice off their
// top K). The entry keeps the relation, its encoding and the ranking; the
// result graph is returned beside it for the miss's own metric ranking
// and is not cached.
func (e *Engine) answer(ctx context.Context, mg *managed, q *pattern.Pattern, h string, plan Plan) (*cache.Entry, *match.ResultGraph, Source, error) {
	rel, source, err := e.evaluate(ctx, mg, q, h, plan)
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, nil, source, err
	}
	// Frozen now, so the encoding, the result graph and the ranking read
	// the one sorted order instead of each sorting again; every response
	// to the answer writes the encoding as it is.
	rel.Freeze()
	matches := rel.AppendJSON(nil, q)
	_, spRG := trace.StartSpan(ctx, "result_graph")
	rg := match.BuildResultGraph(mg.g, q, rel)
	spRG.End()
	if err := ctx.Err(); err != nil {
		return nil, nil, source, err
	}
	_, spRank := trace.StartSpan(ctx, "rank.topk")
	ranking := rank.TopKWithResultGraph(rg, q, rel, 0) // 0 = rank all
	if spRank != nil {
		// What the ranking's cost depends on. batches counts the 64-wide
		// walks; 0 says every match was searched on its own.
		spRank.SetInt("matches", int64(len(ranking)))
		spRank.SetInt("batches", int64(rg.ImpactBatches(len(ranking))))
		spRank.SetInt("nodes", int64(rg.NumNodes()))
		spRank.SetInt("edges", int64(rg.NumEdges()))
		spRank.SetInt("max_weight", int64(rg.MaxWeight()))
		spRank.End()
	}
	return &cache.Entry{Relation: rel, Ranking: ranking, Matches: matches}, rg, source, nil
}

// evalWorkers is the intra-query worker budget: the full Parallelism for
// a lone query, split evenly when several queries are evaluating so a
// batch does not oversubscribe the machine par-squared ways.
func (e *Engine) evalWorkers() int {
	n := int(e.evaluating.Load())
	if n < 1 {
		n = 1
	}
	w := e.par / n
	if w < 1 {
		w = 1
	}
	return w
}

// routePlan names the algorithm for q under sem. It is a function of the
// request alone: which structure answers is evaluate's choice.
func routePlan(q *pattern.Pattern, sem match.Semantics) Plan {
	switch {
	case sem == match.Dual:
		return PlanDual
	case q.IsPlainSimulation():
		return PlanSimulation
	}
	return PlanBounded
}

// evaluate computes M(Q,G) for the routed plan by steps 2 to 4 of the
// package comment: the standing query (found by h, q's hash), then the
// quotient, then the kernel.
// Callers hold mg.mu for at least read. Trace spans (one per pipeline
// stage) are emitted only when ctx carries an active trace. The kernel
// gives up at its next pass when ctx is cancelled; evaluate then returns
// ctx.Err().
func (e *Engine) evaluate(ctx context.Context, mg *managed, q *pattern.Pattern, h string, plan Plan) (*match.Relation, Source, error) {
	g, source, span, sem := mg.g, SourceDirect, "eval.bounded", match.Bounded
	switch sq, standing := mg.queries[h]; {
	case plan == PlanDual:
		span, sem = "eval.dual", match.Dual
	case standing:
		return sq.m.Relation(), SourceIncremental, nil
	case mg.comp != nil && compressedUsable(mg.comp, q, plan):
		g, source, span = mg.comp.Graph(), SourceCompressed, "eval.compressed"
	case plan == PlanSimulation:
		span = "eval.simulation"
	}
	kctx, sp := trace.StartSpan(ctx, span)
	rel := bsim.Evaluate(kctx, g, q, sem, e.evalWorkers(), nil)
	if rel != nil && source == SourceCompressed {
		rel = mg.comp.Decompress(rel)
	}
	sp.End()
	if rel == nil {
		return nil, source, ctx.Err()
	}
	return rel, source, nil
}

// compressedUsable reports whether the quotient should answer q: it must
// still pay (Compressed.Pays), the attribute view must cover q's
// predicates, and bounded plans require the bisimulation scheme.
func compressedUsable(c *compress.Compressed, q *pattern.Pattern, plan Plan) bool {
	if !c.Pays() || !c.AttrView().Compatible(q) {
		return false
	}
	return plan == PlanSimulation || c.Scheme() == compress.Bisimulation
}

// CacheStats exposes result-cache counters.
func (e *Engine) CacheStats() cache.Stats { return e.cache.Stats() }

// RegisterQuery starts incremental maintenance for q on the named graph:
// subsequent ApplyUpdates calls repair its result instead of recomputing,
// and report its deltas. A pattern some subscription already watches keeps
// its matcher.
func (e *Engine) RegisterQuery(graphName string, q *pattern.Pattern) error {
	if err := q.Validate(); err != nil {
		return err
	}
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	mg.standing(q).registered = true
	return nil
}

// UnregisterQuery stops incremental maintenance for q, unless a
// subscription still watches it.
func (e *Engine) UnregisterQuery(graphName string, q *pattern.Pattern) error {
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	h := q.Hash()
	sq, ok := mg.queries[h]
	if !ok || !sq.registered {
		return fmt.Errorf("%w: %s", ErrNotTracked, q.Node(q.Output()).Name)
	}
	sq.registered = false
	e.release(graphName, mg, h)
	return nil
}

// RegisteredQueries returns the patterns registered for incremental
// maintenance; patterns only subscriptions watch are not listed.
func (e *Engine) RegisteredQueries(graphName string) ([]*pattern.Pattern, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return nil, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	out := make([]*pattern.Pattern, 0, len(mg.queries))
	for _, sq := range mg.queries {
		if sq.registered {
			out = append(out, sq.q.Clone())
		}
	}
	return out, nil
}

// CompressGraph builds (or replaces) the compressed form of a graph.
// Queries read it only while it pays (compress.Compressed.Pays). A
// bisimulation quotient is maintained under writes until the write that
// takes it past that cut drops it; one built with the
// simulation-equivalence scheme is dropped by the first write. Either way
// the operator rebuilds it on purpose, by calling CompressGraph again.
func (e *Engine) CompressGraph(graphName string, scheme compress.Scheme, view compress.View) (*compress.Compressed, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return nil, err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	mg.comp = compress.CompressWithView(mg.g, scheme, view)
	return mg.comp, nil
}

// Compressed returns the current compressed form, if any.
func (e *Engine) Compressed(graphName string) (*compress.Compressed, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return nil, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return mg.comp, nil
}

// Attached is what a graph carries beside its data, as one read sees it.
// A field is nil when nothing of its kind is attached.
type Attached struct {
	Index      *distindex.Stats
	Partitions *partition.Stats
	Compressed *compress.Compressed
	Statistics *stats.Snapshot
}

// WithAttached runs fn with the named graph and what it carries, all
// under one hold of the graph's read lock, on WithGraph's terms: every
// part describes the same version.
func (e *Engine) WithAttached(graphName string, fn func(*graph.Graph, Attached) error) error {
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	a := Attached{Compressed: mg.comp, Statistics: mg.st.Snapshot(mg.g)}
	if mg.idx != nil {
		st := mg.idx.Stats()
		a.Index = &st
	}
	if mg.part != nil {
		st := mg.part.Stats()
		a.Partitions = &st
	}
	return fn(mg.g, a)
}

// DropCompression removes the compressed form.
func (e *Engine) DropCompression(graphName string) error {
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	mg.comp = nil
	return nil
}

// BuildIndex builds (or replaces) the landmark distance index of a graph
// and returns its stats. No query reads the index, and the next write
// detaches it: IndexStats answers ErrNoIndex until the next BuildIndex.
// The build holds the graph's write lock — queries queue behind it. Like
// a partitioning or a quotient, the index lives in memory only: a
// restarted engine carries none until it is built again.
func (e *Engine) BuildIndex(graphName string, opts distindex.Options) (distindex.Stats, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return distindex.Stats{}, err
	}
	if opts.Workers <= 0 {
		opts.Workers = e.par
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	mg.idx = distindex.Build(mg.g, opts)
	return mg.idx.Stats(), nil
}

// DropIndex removes the distance index.
func (e *Engine) DropIndex(graphName string) error {
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if mg.idx == nil {
		return fmt.Errorf("%w: %q", ErrNoIndex, graphName)
	}
	mg.idx = nil
	return nil
}

// IndexStats returns the distance index's stats, or ErrNoIndex.
func (e *Engine) IndexStats(graphName string) (distindex.Stats, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return distindex.Stats{}, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	if mg.idx == nil {
		return distindex.Stats{}, fmt.Errorf("%w: %q", ErrNoIndex, graphName)
	}
	return mg.idx.Stats(), nil
}
