// Package server exposes ExpFinder over HTTP/JSON — the library's
// replacement for the demo's desktop GUI, hardened for production
// traffic. Every GUI capability maps onto an endpoint: managing data
// graphs (Graph Editor), constructing and running pattern queries
// (Pattern Builder), browsing result graphs and top-K experts (match
// views, via DOT export), applying updates (dynamic graphs), and
// compressing graphs (Graph Compressor). Continuous queries are exposed
// as subscription resources whose match deltas stream over Server-Sent
// Events (see subscribe.go).
//
// The API is versioned: every route lives under /api/v1, typed by
// internal/api; nothing else under /api answers. Every request flows
// through a middleware chain — request id, structured logging,
// per-route metrics, optional bearer auth, per-client rate limiting,
// and admission into the engine's one execution pool, which sheds load
// with 503 + Retry-After once its bounded queue is full (see
// middleware.go and routes.go). GET /metrics serves Prometheus-style text; /healthz and
// /metrics bypass auth, rate limiting, and the pool so probes keep
// answering under overload.
package server

import (
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"expfinder/internal/account"
	"expfinder/internal/api"
	"expfinder/internal/engine"
	"expfinder/internal/metrics"
	"expfinder/internal/replication"
	"expfinder/internal/stats"
	"expfinder/internal/trace"
)

// Config tunes the serving tier. The zero value (what bare New(eng)
// uses) keeps every guardrail off; admission is not configured here —
// requests wait in the engine's execution pool, sized by its Parallelism.
type Config struct {
	// AuthToken, when non-empty, requires "Authorization: Bearer <token>"
	// on every API route (/healthz and /metrics stay open).
	AuthToken string
	// RateLimit is the per-client sustained request rate (requests per
	// second); 0 disables rate limiting.
	RateLimit float64
	// RateBurst is the token-bucket depth; 0 means one second of
	// RateLimit (minimum 1).
	RateBurst int
	// RequestTimeout is propagated as a context deadline into the engine
	// on every route that uses the execution pool; 0 means no deadline.
	RequestTimeout time.Duration
	// Logger receives one record per request (the access log), plus
	// slow_query records; nil discards them. Text vs. JSON rendering is
	// the handler's concern (-log-format).
	Logger *slog.Logger
	// TraceSample is the fraction of requests traced through the query
	// engine (0 = none, 1 = all). Requests asking explicitly with
	// ?trace=1 or X-Trace: 1 are always traced regardless of the rate.
	TraceSample float64
	// SlowQuery, when positive, logs every request slower than this
	// threshold to the slow-query log (GET /api/v1/debug/slow) and, when
	// configured, the structured Logger.
	SlowQuery time.Duration
	// Debug mounts net/http/pprof under /debug/pprof/ — outside the
	// execution pool (profiling an overloaded server is the point)
	// but behind bearer auth when AuthToken is set.
	Debug bool
	// SLOTargets overrides the per-route-class p99 latency targets
	// (keys: query, mutation, read, stream, admin, debug). Classes not
	// listed keep the defaults in defaultSLOTargets.
	SLOTargets map[string]time.Duration
	// ShedHeaviest lets admission prefer the heaviest client: once the
	// execution pool's queue is at least half full, requests from a
	// client consuming the majority of the last minute's wall time are
	// shed immediately instead of queueing. Off by default.
	ShedHeaviest bool
}

// Server wires an engine into an http.Handler.
type Server struct {
	eng     *engine.Engine
	cfg     Config
	handler http.Handler
	// recovery is the boot-time recovery summary /healthz reports; set
	// once via SetRecoverySummary before serving, nil without one.
	recovery *engine.RecoverySummary
	// repl is the node's replication role (leader or follower); set once
	// via SetReplication before serving, nil on standalone nodes.
	repl replication.Source
	// patterns is the parse memo behind parsePattern (patterns.go).
	patterns *patternMemo

	registry *metrics.Registry
	limiter  *rateLimiter
	tracer   *trace.Tracer
	recorder *stats.Recorder
	ledger   *account.Ledger
	slo      *account.SLO
	health   *account.Health

	mReqs        *metrics.Counter
	mLatency     *metrics.Histogram
	mShed        *metrics.Counter
	mShedHeavy   *metrics.Counter
	mRateLimited *metrics.Counter
	mStage       *metrics.Histogram
}

// New returns a server over the given engine. With no Config the
// serving tier runs open (no auth, no rate limit), with the engine's
// execution pool as its overload protection.
func New(eng *engine.Engine, cfg ...Config) *Server {
	var c Config
	if len(cfg) > 0 {
		c = cfg[0]
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	s := &Server{eng: eng, cfg: c, registry: metrics.NewRegistry(), patterns: newPatternMemo()}

	// The tracer always exists: forced traces (?trace=1) work with a zero
	// sample rate, and the slow-query log is threshold-gated on its own.
	s.tracer = trace.New(trace.Options{
		Sample:        c.TraceSample,
		SlowThreshold: c.SlowQuery,
		Logger:        c.Logger,
	})

	if c.RateLimit > 0 {
		s.limiter = newRateLimiter(c.RateLimit, c.RateBurst)
	}

	s.mReqs = s.registry.NewCounter("expfinder_http_requests_total",
		"HTTP requests served, by route, method, and status code.",
		"route", "method", "code")
	s.mLatency = s.registry.NewHistogram("expfinder_http_request_duration_seconds",
		"HTTP request latency in seconds, by route.", nil, "route")
	s.mShed = s.registry.NewCounter("expfinder_admission_shed_total",
		"Requests (503) and batch entries shed by a full execution-pool queue.")
	s.mShedHeavy = s.registry.NewCounter("expfinder_admission_shed_heaviest_total",
		"Requests shed specifically because their client was the window's heaviest.")
	s.mRateLimited = s.registry.NewCounter("expfinder_rate_limited_total",
		"Requests rejected by the per-client rate limiter with 429.")
	s.registry.NewGaugeFunc("expfinder_admission_queue_depth",
		"Queries and requests waiting for an execution slot.", func() float64 {
			return float64(s.eng.Pool().Queued)
		})
	s.registry.NewGaugeFunc("expfinder_admission_inflight",
		"Execution slots held by queries and requests.", func() float64 {
			return float64(s.eng.Pool().Held)
		})
	s.registry.NewGaugeFunc("expfinder_graphs",
		"Graphs managed by the engine.", func() float64 {
			return float64(len(s.eng.ListGraphs()))
		})
	s.registry.NewGaugeFunc("expfinder_subscriptions",
		"Live continuous-query subscriptions.", func() float64 {
			return float64(s.eng.SubscriptionStats().Subscriptions)
		})
	s.registry.NewGaugeFunc("expfinder_cache_bytes",
		"Accounted bytes resident in the result cache.", func() float64 {
			return float64(s.eng.CacheStats().Bytes)
		})
	s.registry.NewGaugeFunc("expfinder_cache_entries",
		"Entries resident in the result cache.", func() float64 {
			return float64(s.eng.CacheStats().Entries)
		})
	s.registry.NewGaugeFunc("expfinder_cache_hits",
		"Result-cache hits since boot.", func() float64 {
			return float64(s.eng.CacheStats().Hits)
		})
	s.registry.NewGaugeFunc("expfinder_cache_misses",
		"Result-cache misses since boot.", func() float64 {
			return float64(s.eng.CacheStats().Misses)
		})
	s.registry.NewGaugeFunc("expfinder_pattern_memo_entries",
		"Parsed patterns resident in the pattern memo.", func() float64 {
			return float64(s.patterns.len())
		})
	s.registry.NewGaugeFunc("expfinder_pattern_memo_hits",
		"Patterns served from the pattern memo since boot.", func() float64 {
			return float64(s.patterns.hits.Load())
		})
	s.registry.NewGaugeFunc("expfinder_pattern_memo_misses",
		"Patterns parsed since boot (pattern-memo misses).", func() float64 {
			return float64(s.patterns.misses.Load())
		})
	s.registry.NewGaugeFunc("expfinder_replication_lag_records",
		"Replication lag in records: a follower's distance behind the "+
			"leader's last heartbeat, or a leader's worst follower gap. "+
			"0 when standalone.", func() float64 {
			if s.repl == nil {
				return 0
			}
			return float64(s.repl.Lag())
		})
	metrics.RegisterRuntime(s.registry)

	// foldTrace reads every finished trace once into the per-plan/per-
	// stage histograms, the plan-outcome recorder behind /stats/queries
	// and the expfinder_plan_outcome_* series, and the request's charge.
	s.mStage = s.registry.NewHistogram("expfinder_query_stage_duration_seconds",
		"Traced query-stage latency in seconds, by plan and stage.", nil,
		"plan", "stage")
	s.recorder = stats.NewRecorder(0)
	s.registerStatsMetrics()

	// Per-client accounting + SLO tracking. The charge site is the
	// withTrace middleware — every request is charged regardless of
	// sampling; trace-derived cost detail rides along when present. The
	// ledger tracks its default 32 clients individually.
	s.ledger = account.NewLedger(0)
	s.slo = account.NewSLO(sloObjectives(c.SLOTargets))
	s.health = account.NewHealth()
	s.registerHealthComponents()
	s.registerAccountMetrics()

	mux := http.NewServeMux()
	s.mount(mux, s.routes())
	mux.HandleFunc("GET /healthz", s.healthz)
	mux.Handle("GET /metrics", s.registry.Handler())
	if c.Debug {
		// pprof sits outside rate limiting and the pool — profiling an
		// overloaded server is exactly the point — but inside auth when a
		// token is configured.
		pp := http.NewServeMux()
		pp.HandleFunc("/debug/pprof/", pprof.Index)
		pp.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pp.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pp.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pp.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/debug/pprof/", s.withAuth(pp))
	}
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		writeEnvelope(w, http.StatusNotFound, api.CodeNotFound,
			"no such route: "+r.Method+" "+r.URL.Path, nil)
	}))
	s.handler = s.withObservability(mux)
	return s
}

// Metrics exposes the server's metrics registry (e.g. for tests or for
// embedding additional gauges before serving).
func (s *Server) Metrics() *metrics.Registry { return s.registry }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// jsonBuilder is a tiny strings.Builder alias implementing io.Writer.
type jsonBuilder struct{ buf []byte }

func (b *jsonBuilder) Write(p []byte) (int, error) {
	b.buf = append(b.buf, p...)
	return len(p), nil
}
func (b *jsonBuilder) String() string { return string(b.buf) }
