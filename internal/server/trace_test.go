package server

// End-to-end tests for the tracing surface: inline ?trace=1 profiles on
// graphs with a partitioning or an index attached, the sampled-out fast
// path, the debug/traces and debug/slow rings, stage aggregation into
// metrics, and the pprof mount gate.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expfinder/internal/account"
	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/testutil"
	"expfinder/internal/trace"
)

// tracedQuery is the part of a traced query response these tests read.
type tracedQuery struct {
	Plan    string           `json:"plan"`
	Source  string           `json:"source"`
	Matches json.RawMessage  `json:"matches"`
	Trace   *trace.TraceJSON `json:"trace"`
}

// queryWithTrace posts a bounded query with ?trace=1 to the synth graph
// and decodes the response with its inline trace.
func queryWithTrace(t *testing.T, ts *httptest.Server) tracedQuery {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/synth/query?trace=1",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr tracedQuery
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil || qr.Trace.Root == nil {
		t.Fatalf("no inline trace in response: %s", body)
	}
	return qr
}

// synthServer starts a server without sampling (only an explicit ?trace=1
// request is traced) holding a small generated graph "synth", and posts
// body to path under it when path is not empty.
func synthServer(t *testing.T, path, body string) *httptest.Server {
	t.Helper()
	ts, _ := newConfiguredServer(t, Config{TraceSample: 0})
	resp, out := do(t, "POST", ts.URL+"/api/v1/graphs/synth",
		`{"generator": {"kind": "collab", "nodes": 300, "avg_degree": 4, "seed": 7}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: %d %s", resp.StatusCode, out)
	}
	if path != "" {
		if resp, out = do(t, "POST", ts.URL+"/api/v1/graphs/synth"+path, body); resp.StatusCode != http.StatusOK {
			t.Fatalf("POST %s: %d %s", path, resp.StatusCode, out)
		}
	}
	return ts
}

// checkKernelTrace asserts that a traced query on a graph carrying the
// structure built by POST path ran exactly as on the bare graph: the
// bounded plan on the kernel, the same matches, a well-formed span tree
// with one eval.bounded span, and no span from an unread structure.
func checkKernelTrace(t *testing.T, path, body string) {
	t.Helper()
	want := queryWithTrace(t, synthServer(t, "", ""))
	got := queryWithTrace(t, synthServer(t, path, body))
	if got.Plan != string(engine.PlanBounded) || got.Source != string(engine.SourceDirect) {
		t.Fatalf("plan/source = %s/%s, want bounded-simulation/direct", got.Plan, got.Source)
	}
	if string(got.Matches) != string(want.Matches) {
		t.Fatalf("matches %s, want the bare graph's %s", got.Matches, want.Matches)
	}
	checkSpanTree(t, got.Trace.Root)
	if eq := findSpan(got.Trace, "engine.query"); eq == nil || eq.Str("plan") != got.Plan {
		t.Fatalf("engine.query span = %+v, want plan %s", eq, got.Plan)
	}
	if findSpan(got.Trace, "eval.bounded") == nil {
		t.Fatal("no eval.bounded span")
	}
	for _, name := range []string{"eval.partitioned", "superstep", "eval.indexed"} {
		if findSpan(got.Trace, name) != nil {
			t.Fatalf("trace carries a %s span", name)
		}
	}
}

// checkSpanTree asserts the structural invariant that makes a profile
// trustworthy: every span's children ran within it, so their summed
// durations cannot exceed the parent's.
func checkSpanTree(t *testing.T, sp *trace.SpanJSON) {
	t.Helper()
	var childSum int64
	for _, c := range sp.Children {
		childSum += c.DurationUS
		checkSpanTree(t, c)
	}
	if childSum > sp.DurationUS {
		t.Errorf("span %s: children sum to %dus > own %dus", sp.Name, childSum, sp.DurationUS)
	}
}

func findSpan(tj *trace.TraceJSON, name string) *trace.SpanJSON {
	var got *trace.SpanJSON
	tj.Walk(func(sp *trace.SpanJSON) {
		if got == nil && sp.Name == name {
			got = sp
		}
	})
	return got
}

// TestInlineTracePartitionedQuery: with a partitioning attached, a traced
// query's profile is the kernel's.
func TestInlineTracePartitionedQuery(t *testing.T) {
	checkKernelTrace(t, "/partitions", `{"parts": 3}`)
}

// TestInlineTraceIndexedQuery: with a distance index attached, a traced
// query's profile is the kernel's.
func TestInlineTraceIndexedQuery(t *testing.T) {
	checkKernelTrace(t, "/index", `{"landmarks": 8}`)
}

// TestOneWaitSpanPerQuery pins the one queue a query waits in: a traced
// query carries exactly one wait span, and a 3-entry batch three — one
// beside each entry's engine.query, none for the route itself.
func TestOneWaitSpanPerQuery(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{})
	uploadPaperGraph(t, ts)
	count := func(tj *trace.TraceJSON) (waits, queries int) {
		tj.Walk(func(sp *trace.SpanJSON) {
			switch {
			case strings.HasSuffix(sp.Name, ".wait"):
				waits++
			case sp.Name == "engine.query":
				queries++
			}
		})
		return waits, queries
	}

	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query?trace=1",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	var qr api.QueryResponse
	if err := json.Unmarshal(body, &qr); err != nil || resp.StatusCode != http.StatusOK || qr.Trace == nil {
		t.Fatalf("traced query: %d %s", resp.StatusCode, body)
	}
	if waits, queries := count(qr.Trace); waits != 1 || queries != 1 {
		t.Errorf("query trace: %d wait spans, %d engine.query spans; want 1 and 1", waits, queries)
	}

	entry := map[string]any{"graph": "paper", "dsl": dataset.PaperQueryDSL}
	resp, body = do(t, "POST", ts.URL+"/api/v1/query/batch?trace=1",
		map[string]any{"queries": []any{entry, entry, entry}})
	var br api.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil || resp.StatusCode != http.StatusOK || br.Trace == nil {
		t.Fatalf("traced batch: %d %s", resp.StatusCode, body)
	}
	if waits, queries := count(br.Trace); waits != 3 || queries != 3 {
		t.Errorf("batch trace: %d wait spans, %d engine.query spans; want 3 and 3", waits, queries)
	}
}

func TestUntracedRequestHasNoTrace(t *testing.T) {
	ts, srv := newConfiguredServer(t, Config{TraceSample: 0})
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if strings.Contains(string(body), `"trace"`) {
		t.Fatalf("sampled-out response carries a trace: %s", body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/v1/debug/traces", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces: %d %s", resp.StatusCode, body)
	}
	var dt struct {
		Traces []*trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(body, &dt); err != nil {
		t.Fatal(err)
	}
	if len(dt.Traces) != 0 {
		t.Fatalf("tracer ring has %d traces at sample 0", len(dt.Traces))
	}
	_ = srv
}

func TestDebugTracesAndSlowLog(t *testing.T) {
	// Everything sampled; any request over 1ns is "slow".
	ts, _ := newConfiguredServer(t, Config{TraceSample: 1, SlowQuery: time.Nanosecond})
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	resp, body = do(t, "GET", ts.URL+"/api/v1/debug/traces", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/traces: %d %s", resp.StatusCode, body)
	}
	var dt struct {
		Traces []*trace.TraceJSON `json:"traces"`
	}
	if err := json.Unmarshal(body, &dt); err != nil {
		t.Fatal(err)
	}
	var q *trace.TraceJSON
	for _, tj := range dt.Traces {
		if tj.Name == "query" {
			q = tj
		}
	}
	if q == nil || q.ID == "" || q.Root == nil {
		t.Fatalf("query trace missing from ring: %s", body)
	}

	resp, body = do(t, "GET", ts.URL+"/api/v1/debug/slow", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/slow: %d %s", resp.StatusCode, body)
	}
	var ds struct {
		ThresholdUS int64              `json:"threshold_us"`
		Entries     []*trace.SlowEntry `json:"entries"`
	}
	if err := json.Unmarshal(body, &ds); err != nil {
		t.Fatal(err)
	}
	if len(ds.Entries) == 0 {
		t.Fatalf("no slow entries below a 1ns threshold: %s", body)
	}
	for _, e := range ds.Entries {
		if e.Route == "query" && e.Trace == nil {
			t.Fatalf("slow query entry lost its trace: %+v", e)
		}
	}
}

func TestStageHistogramAggregation(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{TraceSample: 1})
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics: %d", resp.StatusCode)
	}
	text := string(body)
	if !strings.Contains(text, `expfinder_query_stage_duration_seconds`) ||
		!strings.Contains(text, `stage="engine.query"`) {
		t.Fatalf("stage histogram not aggregated:\n%s", text)
	}
}

// TestStageHistogramLabelsEachEntryWithItsOwnPlan: in one traced batch
// with a bounded and a dual entry, whichever comes first, each entry's
// evaluation span is filed under its own plan, and the batch's admission
// waits, outside any engine.query span, under "none"; ?plan= on the trace
// ring finds the batch under either plan.
func TestStageHistogramLabelsEachEntryWithItsOwnPlan(t *testing.T) {
	bounded := map[string]any{"graph": "paper", "dsl": dataset.PaperQueryDSL}
	dual := map[string]any{"graph": "paper", "dsl": dataset.PaperQueryDSL, "semantics": "dual"}
	for _, order := range [][]any{{bounded, dual}, {dual, bounded}} {
		ts, _ := newConfiguredServer(t, Config{})
		uploadPaperGraph(t, ts)
		if resp, body := do(t, "POST", ts.URL+"/api/v1/query/batch?trace=1", map[string]any{"queries": order}); resp.StatusCode != http.StatusOK {
			t.Fatalf("batch: %d %s", resp.StatusCode, body)
		}
		_, body := do(t, "GET", ts.URL+"/metrics", nil)
		text := string(body)
		for _, series := range []string{
			`{plan="bounded-simulation",stage="eval.dual"`,
			`{plan="dual-simulation",stage="eval.bounded"`,
		} {
			if strings.Contains(text, series) {
				t.Errorf("stage histogram has a %s} series", series)
			}
		}
		for _, series := range []string{
			`{plan="bounded-simulation",stage="eval.bounded"`,
			`{plan="dual-simulation",stage="eval.dual"`,
			`{plan="none",stage="admission.wait"`,
		} {
			if !strings.Contains(text, series) {
				t.Errorf("stage histogram lacks a %s} series", series)
			}
		}
		for _, plan := range []string{"bounded-simulation", "dual-simulation"} {
			_, body := do(t, "GET", ts.URL+"/api/v1/debug/traces?plan="+plan, nil)
			var tr api.DebugTracesResponse
			if err := json.Unmarshal(body, &tr); err != nil {
				t.Fatal(err)
			}
			if len(tr.Traces) != 1 || tr.Traces[0].Name != "query_batch" {
				t.Errorf("?plan=%s: %d traces, want the batch's", plan, len(tr.Traces))
			}
		}
	}
}

// span builds a test SpanJSON tree node.
func span(name string, durUS int64, attrs map[string]any, children ...*trace.SpanJSON) *trace.SpanJSON {
	return &trace.SpanJSON{Name: name, DurationUS: durUS, Attrs: attrs, Children: children}
}

// TestFoldTraceCharge feeds foldTrace finished traces directly: one
// with two queries (a miss, then a hit), a queue wait and a WAL append
// bills every cost counter and records one outcome per query; attributes
// that round-tripped through JSON (float64) read the same; a trace with
// no engine.query records no outcome; and a nil trace changes nothing.
func TestFoldTraceCharge(t *testing.T) {
	_, s := newConfiguredServer(t, Config{})
	query := func(durUS int64, attrs map[string]any, children ...*trace.SpanJSON) *trace.SpanJSON {
		a := map[string]any{"graph": "g", "plan": "bounded-simulation", "shape": "n2e1b3"}
		for k, v := range attrs {
			a[k] = v
		}
		return span("engine.query", durUS, a, children...)
	}
	var c account.Charge
	s.foldTrace(&trace.TraceJSON{ID: "r1", Name: "query", Root: span("query", 5000, nil,
		span("admission.wait", 120, nil),
		query(4000, map[string]any{"matches": int64(42), "result_bytes": int64(2048)},
			span("cache.lookup", 5, map[string]any{"hit": false}),
			span("eval.bounded", 3500, nil),
		),
		query(300, map[string]any{"matches": int64(7)},
			span("cache.lookup", 5, map[string]any{"hit": true, "bytes": int64(512)}),
		),
		span("wal.append", 50, map[string]any{"bytes": int64(333)}),
	)}, &c)
	if c.Queue != 120*time.Microsecond || c.Candidates != 49 || c.WALBytes != 333 {
		t.Fatalf("queue, work, wal: %+v", c)
	}
	if c.CacheBytesComputed != 2048 || c.CacheBytesServed != 512 {
		t.Fatalf("cache bytes: %+v", c)
	}
	sums := s.recorder.Summaries()
	if len(sums) != 1 {
		t.Fatalf("got %d outcome buckets, want 1: %+v", len(sums), sums)
	}
	if b := sums[0]; b.Graph != "g" || b.Plan != "bounded-simulation" || b.Shape != "n2e1b3" ||
		b.Count != 2 || b.Matches != 49 || b.CacheHits != 1 || b.CacheMisses != 1 || b.MeanUS != 2150 {
		t.Fatalf("outcome bucket = %+v", b)
	}

	var c2 account.Charge
	s.foldTrace(&trace.TraceJSON{Root: span("q", 0, nil,
		query(0, map[string]any{"matches": float64(5), "result_bytes": float64(100)}))}, &c2)
	if c2.Candidates != 5 || c2.CacheBytesComputed != 100 {
		t.Fatalf("float attrs: %+v", c2)
	}

	before := s.recorder.Summaries()[0].Count
	var c3 account.Charge
	s.foldTrace(&trace.TraceJSON{Root: span("update", 0, nil,
		span("engine.update", 0, map[string]any{"graph": "g"}))}, &c3)
	s.foldTrace(nil, &c3)
	if c3 != (account.Charge{}) || len(s.recorder.Summaries()) != 1 || s.recorder.Summaries()[0].Count != before {
		t.Fatalf("non-query and nil traces: charge %+v, outcomes %+v", c3, s.recorder.Summaries())
	}
}

// TestCancelledQueryFilesUnderItsPlan cancels one traced query at each
// point its request polls its context. A cancelled engine.query still
// names its graph, plan and shape: /stats/queries gains no bucket with
// an empty key, and every span of the query files under its plan; only
// the pattern parse and the admission wait, outside the query, file
// under "none".
func TestCancelledQueryFilesUnderItsPlan(t *testing.T) {
	query := func(s *Server, ctx context.Context) int {
		body, err := json.Marshal(map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/graphs/paper/query?trace=1",
			bytes.NewReader(body)).WithContext(ctx))
		return rec.Code
	}
	dryTS, dry := newConfiguredServer(t, Config{})
	uploadPaperGraph(t, dryTS)
	all := &testutil.PollCtx{Context: context.Background(), N: 1 << 60}
	if code := query(dry, all); code != http.StatusOK {
		t.Fatalf("undisturbed query: %d", code)
	}
	midEval := 0
	for n := int64(1); n <= all.Polls(); n++ {
		ts, s := newConfiguredServer(t, Config{})
		uploadPaperGraph(t, ts)
		if code := query(s, &testutil.PollCtx{Context: context.Background(), N: n}); code == http.StatusOK {
			continue
		}
		_, body := do(t, "GET", ts.URL+"/api/v1/stats/queries", nil)
		var qs api.QueryStatsResponse
		if err := json.Unmarshal(body, &qs); err != nil {
			t.Fatal(err)
		}
		for _, sum := range qs.Summaries {
			if sum.Graph != "paper" || sum.Plan != "bounded-simulation" || sum.Shape == "" {
				t.Errorf("poll %d: cancelled query recorded under %+v", n, sum.OutcomeKey)
			}
		}
		_, body = do(t, "GET", ts.URL+"/metrics", nil)
		text := string(body)
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "expfinder_query_stage_duration_seconds") &&
				!strings.Contains(line, `stage="admission.wait"`) && !strings.Contains(line, `stage="pattern.parse"`) &&
				!strings.Contains(line, `plan="bounded-simulation"`) {
				t.Errorf("poll %d: a span of the query filed under another plan: %s", n, line)
			}
		}
		if len(qs.Summaries) == 1 && strings.Contains(text, `{plan="bounded-simulation",stage="eval.bounded"`) {
			midEval++
		}
	}
	if midEval == 0 {
		t.Fatal("no poll point cancelled the query after its evaluation began")
	}
}

func TestPprofMountGatedByDebugFlag(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{})
	resp, _ := do(t, "GET", ts.URL+"/debug/pprof/cmdline", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without -debug: %d, want 404", resp.StatusCode)
	}

	ts2, _ := newConfiguredServer(t, Config{Debug: true})
	resp, body := do(t, "GET", ts2.URL+"/debug/pprof/cmdline", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with -debug: %d %s", resp.StatusCode, body)
	}

	// With auth configured, pprof demands the bearer token too.
	ts3, _ := newConfiguredServer(t, Config{Debug: true, AuthToken: "s3cret"})
	resp, _ = do(t, "GET", ts3.URL+"/debug/pprof/cmdline", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("pprof without token: %d, want 401", resp.StatusCode)
	}
	req, _ := http.NewRequest("GET", ts3.URL+"/debug/pprof/cmdline", nil)
	req.Header.Set("Authorization", "Bearer s3cret")
	r2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("pprof with token: %d", r2.StatusCode)
	}
}
