package server

// Query-execution tracing at the serving tier: the withTrace middleware
// starts a trace per sampled (or explicitly requested) request and hands
// the traced context down the chain — engine, matchers and WAL all emit
// spans through internal/trace when the context carries one. Finished
// traces land in the tracer's ring (GET /api/v1/debug/traces), feed the
// slow-query log (GET /api/v1/debug/slow), and are read once, by
// foldTrace, into the stage histograms, the plan-outcome recorder and the
// request's charge.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"expfinder/internal/account"
	"expfinder/internal/api"
	"expfinder/internal/stats"
	"expfinder/internal/trace"
)

// traceRequested reports whether the client explicitly asked for an
// inline trace with ?trace=1 or the X-Trace: 1 header. Forced traces
// bypass the sample rate and are echoed in the response envelope.
func traceRequested(r *http.Request) bool {
	return r.URL.Query().Get("trace") == "1" || r.Header.Get("X-Trace") == "1"
}

// withTrace sits between the metrics and auth middlewares: spans cover
// auth, rate limiting, admission waits, and the handler, while the
// request id assigned by withObservability is already on the response
// header. It is also the accounting charge site — the one place that
// has the client key, final status, elapsed time, response bytes, and
// the finished trace together — so every request is charged regardless
// of sampling, with trace-derived cost detail riding along when the
// request happened to be traced.
func (s *Server) withTrace(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, trc := s.tracer.Start(r.Context(), w.Header().Get("X-Request-ID"),
			route, traceRequested(r))
		if trc != nil {
			r = r.WithContext(ctx)
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		elapsed := time.Since(start)
		status := http.StatusOK
		var bytes int64
		if sw, ok := w.(*statusWriter); ok {
			if sw.status != 0 {
				status = sw.status
			}
			bytes = sw.bytes
		}
		client := clientKey(r)
		ch := account.Charge{Client: client, Route: route, Status: status, Wall: elapsed, BytesOut: bytes}
		tj := s.tracer.Finish(trc)
		s.foldTrace(tj, &ch)
		s.tracer.NoteSlow(w.Header().Get("X-Request-ID"), route, client, status, elapsed, tj)
		s.ledger.Charge(ch)
		s.slo.Observe(routeClass(route), status, elapsed)
	})
}

// inlineTrace returns the active trace's snapshot when the client asked
// for one inline (?trace=1 / X-Trace: 1); nil otherwise. Taken before
// the middleware finishes the trace, so spans still open (the route
// root, serialization) are measured up to this instant.
func inlineTrace(r *http.Request) *trace.TraceJSON {
	if trc := trace.ActiveTrace(r.Context()); trc != nil && trc.Forced() {
		return trc.Snapshot()
	}
	return nil
}

// foldTrace reads a finished trace once, below its root (whose duration
// is mLatency's request latency), and hands each consumer its figures:
// every span to the per-plan/per-stage histogram, each engine.query to
// the plan-outcome recorder, and the request's cost counters to ch.
// Sampled-out requests (tj == nil) cost nothing.
func (s *Server) foldTrace(tj *trace.TraceJSON, ch *account.Charge) {
	if tj == nil || tj.Root == nil {
		return
	}
	for _, sp := range tj.Root.Children {
		s.foldSpan(sp, nil, ch)
	}
}

// foldSpan folds sp and its subtree. q is the outcome of the nearest
// enclosing engine.query — sp's own, if it is one — so each span is filed
// under its own query's plan and the entries of a batch keep theirs;
// spans outside any query (admission waits, WAL appends) file under plan
// "none".
func (s *Server) foldSpan(sp *trace.SpanJSON, q *stats.Outcome, ch *account.Charge) {
	switch sp.Name {
	case "engine.query":
		q = &stats.Outcome{
			OutcomeKey: stats.OutcomeKey{Graph: sp.Str("graph"), Plan: sp.Str("plan"), Shape: sp.Str("shape")},
			DurationUS: sp.DurationUS,
			Matches:    sp.Int("matches"),
		}
		ch.Candidates += q.Matches
		ch.CacheBytesComputed += sp.Int("result_bytes")
	case "cache.lookup":
		if sp.Bool("hit") {
			ch.CacheBytesServed += sp.Int("bytes")
			if q != nil {
				q.Hit = true
			}
		}
	case "admission.wait":
		ch.Queue += time.Duration(sp.DurationUS) * time.Microsecond
	case "wal.append":
		ch.WALBytes += sp.Int("bytes")
	}
	plan := "none"
	if q != nil {
		plan = q.Plan
	}
	s.mStage.Observe(float64(sp.DurationUS)/1e6, plan, sp.Name)
	for _, c := range sp.Children {
		s.foldSpan(c, q, ch)
	}
	if sp.Name == "engine.query" {
		s.recorder.Record(*q)
	}
}

// hasPlan reports whether any engine.query span of the trace ran plan.
func hasPlan(tj *trace.TraceJSON, plan string) bool {
	found := false
	tj.Walk(func(sp *trace.SpanJSON) {
		found = found || sp.Name == "engine.query" && sp.Str("plan") == plan
	})
	return found
}

// ringFilter is the shared ?plan= / ?route= / ?min_ms= filter of the
// debug rings, so the bounded rings are inspectable without client-side
// grepping. Zero-valued filters match everything; a malformed min_ms
// is reported rather than ignored.
type ringFilter struct {
	plan  string
	route string
	minUS int64
}

func parseRingFilter(r *http.Request) (ringFilter, error) {
	q := r.URL.Query()
	f := ringFilter{plan: q.Get("plan"), route: q.Get("route")}
	if ms := q.Get("min_ms"); ms != "" {
		v, err := strconv.ParseFloat(ms, 64)
		if err != nil || v < 0 {
			return f, fmt.Errorf("invalid min_ms %q: want a non-negative number of milliseconds", ms)
		}
		f.minUS = int64(v * 1000)
	}
	return f, nil
}

func (f ringFilter) matches(route string, durationUS int64, tj *trace.TraceJSON) bool {
	if f.route != "" && route != f.route {
		return false
	}
	if durationUS < f.minUS {
		return false
	}
	if f.plan != "" && !hasPlan(tj, f.plan) {
		return false
	}
	return true
}

func (s *Server) debugTraces(w http.ResponseWriter, r *http.Request) {
	f, err := parseRingFilter(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
		return
	}
	traces := []*trace.TraceJSON{}
	for _, tj := range s.tracer.Recent() {
		if f.matches(tj.Name, tj.DurationUS, tj) {
			traces = append(traces, tj)
		}
	}
	writeJSON(w, http.StatusOK, api.DebugTracesResponse{Traces: traces})
}

func (s *Server) debugSlow(w http.ResponseWriter, r *http.Request) {
	f, err := parseRingFilter(r)
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
		return
	}
	entries := []*trace.SlowEntry{}
	for _, e := range s.tracer.Slow() {
		if f.matches(e.Route, e.DurationUS, e.Trace) {
			entries = append(entries, e)
		}
	}
	writeJSON(w, http.StatusOK, api.DebugSlowResponse{
		ThresholdUS: s.tracer.SlowThreshold().Microseconds(),
		Entries:     entries,
	})
}
