package server

// Query-execution tracing at the serving tier: the withTrace middleware
// starts a trace per sampled (or explicitly requested) request and hands
// the traced context down the chain — engine, matchers, partition
// evaluator, and WAL all emit spans through internal/trace when the
// context carries one. Finished traces land in the tracer's ring
// (GET /api/v1/debug/traces), feed the slow-query log
// (GET /api/v1/debug/slow), and aggregate into per-plan/per-stage
// latency histograms on the metrics registry.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"expfinder/internal/account"
	"expfinder/internal/api"
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
		var tj *trace.TraceJSON
		if trc != nil {
			tj = s.tracer.Finish(trc)
		}
		status := http.StatusOK
		var bytes int64
		if sw, ok := w.(*statusWriter); ok {
			if sw.status != 0 {
				status = sw.status
			}
			bytes = sw.bytes
		}
		client := clientKey(r)
		s.tracer.NoteSlow(w.Header().Get("X-Request-ID"), route, client, status, elapsed, tj)
		ch := account.Charge{Client: client, Route: route, Status: status, Wall: elapsed, BytesOut: bytes}
		ch.AddTrace(tj)
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

// aggregateTrace folds one finished trace into the per-plan/per-stage
// histograms. Each span is filed under the plan of its nearest
// engine.query span — itself, if it is one — so the entries of a batch
// keep their own plans; spans outside any query (middleware waits, WAL
// appends) aggregate under plan "none".
func (s *Server) aggregateTrace(tj *trace.TraceJSON) {
	if tj == nil || tj.Root == nil {
		return
	}
	var visit func(sp *trace.SpanJSON, plan string)
	visit = func(sp *trace.SpanJSON, plan string) {
		if p := sp.Str("plan"); sp.Name == "engine.query" && p != "" {
			plan = p
		}
		if sp != tj.Root { // the root duplicates mLatency's request latency
			s.mStage.Observe(float64(sp.DurationUS)/1e6, plan, sp.Name)
		}
		for _, c := range sp.Children {
			visit(c, plan)
		}
	}
	visit(tj.Root, "none")
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
