package server

// End-to-end tests for the tracing surface: inline ?trace=1 profiles on
// partitioned and indexed queries, the sampled-out fast path, the
// debug/traces and debug/slow rings, stage aggregation into metrics,
// and the pprof mount gate.

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/trace"
)

// queryWithTrace posts a bounded query with ?trace=1 and decodes the
// response plan plus the inline trace.
func queryWithTrace(t *testing.T, ts *httptest.Server) (string, *trace.TraceJSON) {
	t.Helper()
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/synth/query?trace=1",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Plan  string           `json:"plan"`
		Trace *trace.TraceJSON `json:"trace"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil || qr.Trace.Root == nil {
		t.Fatalf("no inline trace in response: %s", body)
	}
	return qr.Plan, qr.Trace
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

func TestInlineTracePartitionedQuery(t *testing.T) {
	// Sample rate zero: only the explicit ?trace=1 request is traced.
	ts, _ := newConfiguredServer(t, Config{TraceSample: 0})
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/synth",
		`{"generator": {"kind": "collab", "nodes": 300, "avg_degree": 4, "seed": 7}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/synth/partitions", `{"parts": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build partitions: %d %s", resp.StatusCode, body)
	}

	plan, tj := queryWithTrace(t, ts)
	if plan != string(engine.PlanPartitioned) {
		t.Fatalf("plan = %s, want partitioned", plan)
	}
	checkSpanTree(t, tj.Root)

	eq := findSpan(tj, "engine.query")
	if eq == nil {
		t.Fatal("no engine.query span")
	}
	if p, _ := eq.Attrs["plan"].(string); p != string(engine.PlanPartitioned) {
		t.Fatalf("engine.query plan attr = %v", eq.Attrs["plan"])
	}
	ep := findSpan(tj, "eval.partitioned")
	if ep == nil {
		t.Fatal("no eval.partitioned span")
	}
	// Supersteps reported on the eval span match the superstep child
	// spans actually emitted.
	steps := 0
	tj.Walk(func(sp *trace.SpanJSON) {
		if sp.Name == "superstep" {
			steps++
		}
	})
	if want, _ := ep.Attrs["supersteps"].(float64); int(want) != steps || steps == 0 {
		t.Fatalf("superstep spans = %d, eval attr = %v", steps, ep.Attrs["supersteps"])
	}
}

func TestInlineTraceIndexedQuery(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{TraceSample: 0})
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/synth",
		`{"generator": {"kind": "collab", "nodes": 300, "avg_degree": 4, "seed": 7}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/synth/index", `{"landmarks": 8}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build index: %d %s", resp.StatusCode, body)
	}

	plan, tj := queryWithTrace(t, ts)
	if plan != string(engine.PlanIndexed) {
		t.Fatalf("plan = %s, want indexed", plan)
	}
	checkSpanTree(t, tj.Root)
	ei := findSpan(tj, "eval.indexed")
	if ei == nil {
		t.Fatal("no eval.indexed span")
	}
	if _, ok := ei.Attrs["probes"]; !ok {
		t.Fatalf("eval.indexed attrs = %v, want oracle probe counts", ei.Attrs)
	}
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
