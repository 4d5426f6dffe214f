package server

// Tests for the serving-tier middleware chain: auth, rate limiting,
// admission control + shedding, deadline propagation into the engine,
// the error envelope, and metrics exposition.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
)

func newConfiguredServer(t *testing.T, cfg Config) (*httptest.Server, *Server) {
	t.Helper()
	eng := engine.New(engine.Options{})
	s := New(eng, cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, s
}

func decodeEnvelope(t *testing.T, body []byte) api.ErrorEnvelope {
	t.Helper()
	var env api.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not the envelope: %v: %s", err, body)
	}
	if env.Error.Code == "" {
		t.Fatalf("envelope without a code: %s", body)
	}
	return env
}

func TestAuthRequired(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{AuthToken: "sekrit"})

	resp, body := do(t, "GET", ts.URL+"/api/v1/graphs", nil)
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("no token: %d, want 401", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != api.CodeUnauthorized {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeUnauthorized)
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/graphs", nil)
	req.Header.Set("Authorization", "Bearer wrong")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token: %d, want 401", resp2.StatusCode)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/api/v1/graphs", nil)
	req.Header.Set("Authorization", "Bearer sekrit")
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("valid token: %d, want 200", resp3.StatusCode)
	}

	// Probes and scrapes stay open.
	for _, path := range []string{"/healthz", "/metrics"} {
		resp5, _ := do(t, "GET", ts.URL+path, nil)
		if resp5.StatusCode != http.StatusOK {
			t.Errorf("%s behind auth: %d, want 200", path, resp5.StatusCode)
		}
	}
}

func TestRateLimit(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{RateLimit: 1, RateBurst: 2})

	get := func(client string) *http.Response {
		req, _ := http.NewRequest("GET", ts.URL+"/api/v1/graphs", nil)
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Burst of 2 passes, third request is limited.
	for i := 0; i < 2; i++ {
		if resp := get("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: %d, want 200", i, resp.StatusCode)
		}
	}
	limited := get("alice")
	if limited.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget request: %d, want 429", limited.StatusCode)
	}
	if limited.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	// Another client has its own bucket.
	if resp := get("bob"); resp.StatusCode != http.StatusOK {
		t.Errorf("independent client limited: %d", resp.StatusCode)
	}
}

func TestRateLimiterRefill(t *testing.T) {
	rl := newRateLimiter(10, 1)
	now := time.Unix(0, 0)
	if ok, _, _ := rl.allow("c", now); !ok {
		t.Fatal("first request should pass")
	}
	if ok, remaining, wait := rl.allow("c", now); ok || wait <= 0 || remaining != 0 {
		t.Fatalf("drained bucket passed (remaining %d, wait %v)", remaining, wait)
	}
	// 100ms at 10 req/s refills exactly one token.
	if ok, _, _ := rl.allow("c", now.Add(100*time.Millisecond)); !ok {
		t.Fatal("bucket did not refill")
	}
}

// TestQueueShed fills the engine's execution pool through the admission
// middleware deterministically: at Parallelism 1 one slot is held by a
// blocked request, 4×Parallelism more queue, and the next is shed with
// 503 + Retry-After.
func TestQueueShed(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	s := New(eng)

	maxQueue := 4 * eng.Parallelism()
	started := make(chan struct{}, 1+maxQueue)
	release := make(chan struct{})
	h := s.withMetrics("test", s.withAdmission(poolSlot, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release // reads proceed immediately once release is closed
		w.WriteHeader(http.StatusOK)
	})))
	ts := httptest.NewServer(h)
	defer ts.Close()

	var wg sync.WaitGroup
	get := func() int {
		resp, err := http.Get(ts.URL)
		if err != nil {
			t.Error(err)
			return 0
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	// First request takes the only slot and blocks inside the handler.
	wg.Add(1)
	go func() {
		defer wg.Done()
		if code := get(); code != http.StatusOK {
			t.Errorf("slot holder: %d", code)
		}
	}()
	<-started

	// The next four queue; wait until the pool registers them.
	for i := 0; i < maxQueue; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if code := get(); code != http.StatusOK {
				t.Errorf("queued request: %d", code)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Pool().Queued != maxQueue {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests queued", eng.Pool().Queued, maxQueue)
		}
		time.Sleep(time.Millisecond)
	}

	// The next request finds the queue full and is shed.
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	var buf [1024]byte
	n, _ := resp.Body.Read(buf[:])
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("overflow request: %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
	if env := decodeEnvelope(t, buf[:n]); env.Error.Code != api.CodeOverloaded {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeOverloaded)
	}
	if got := s.mShed.Value(); got != 1 {
		t.Errorf("shed counter = %d, want 1", got)
	}

	// Unblock: slot holder finishes, queued requests run to completion.
	close(release)
	wg.Wait()
	if st := eng.Pool(); st.Held != 0 || st.Queued != 0 {
		t.Errorf("after the queue drained: held=%d queued=%d, want 0 and 0", st.Held, st.Queued)
	}
}

// TestQueryShedByEngine fills the execution pool from outside the serving
// tier: a query route holds no slot of its own, so the query is refused
// by Execute, and the server renders that refusal as the same 503 envelope
// with the queue's depth and bound, while a batch entry fails alone.
func TestQueryShedByEngine(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	s := New(eng)
	ts := httptest.NewServer(s)
	defer ts.Close()
	uploadPaperGraph(t, ts)
	const query = `{"dsl": "node A output", "k": 3}`

	release, err := eng.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/api/v1/graphs/paper/query", "application/json", strings.NewReader(query))
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("queued query: %d", resp.StatusCode)
			}
		}()
	}
	for deadline := time.Now().Add(5 * time.Second); eng.Pool().Queued != 4; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d of 4 queries queued", eng.Pool().Queued)
		}
	}

	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query", query)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") == "" {
		t.Fatalf("query on a full pool: %d (Retry-After %q) %s, want 503 with Retry-After",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != api.CodeOverloaded || env.Error.Details["queue_depth"] != 4.0 || env.Error.Details["max_queue"] != 4.0 {
		t.Errorf("shed envelope = %+v, want code overloaded with queue_depth 4, max_queue 4", env.Error)
	}
	resp, body = do(t, "POST", ts.URL+"/api/v1/query/batch",
		`{"queries": [{"graph": "paper", "dsl": "node A output"}]}`)
	var batch api.BatchResponse
	if err := json.Unmarshal(body, &batch); err != nil || resp.StatusCode != http.StatusOK || len(batch.Results) != 1 ||
		!strings.Contains(batch.Results[0].Error, "overloaded") {
		t.Errorf("batch on a full pool: %d %s, want 200 with a per-entry overload error", resp.StatusCode, body)
	}
	if got := s.mShed.Value(); got != 2 {
		t.Errorf("shed counter = %d, want 2 (the query and the batch entry)", got)
	}

	release()
	wg.Wait()
}

// TestEveryRouteAnswersAtParallelismOne sends one request to every route
// of the table on a one-slot engine. Any status will do, but each must
// answer: a route that held the slot and then called Execute would wait
// for its own slot until the request deadline.
func TestEveryRouteAnswersAtParallelismOne(t *testing.T) {
	body := fmt.Sprintf(`{"dsl": %q, "k": 1, "queries": [{"graph": "paper", "dsl": %q}], "ops": [{"op": "insert", "from": 0, "to": 1}]}`,
		dataset.PaperQueryDSL, dataset.PaperQueryDSL)
	client := &http.Client{Timeout: 5 * time.Second}
	for _, rt := range New(engine.New(engine.Options{})).routes() {
		t.Run(rt.name, func(t *testing.T) {
			eng := engine.New(engine.Options{Parallelism: 1})
			ts := httptest.NewServer(New(eng, Config{RequestTimeout: 10 * time.Second}))
			defer ts.Close()
			uploadPaperGraph(t, ts)
			path := strings.NewReplacer("{name}", "paper", "{id}", "0").Replace(rt.pattern)
			req, err := http.NewRequest(rt.method, ts.URL+api.Prefix+path, strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp, err := client.Do(req)
			if err != nil {
				t.Fatalf("%s %s did not answer: %v", rt.method, path, err)
			}
			resp.Body.Close()
		})
	}
}

// TestDeadlinePropagation configures a request timeout so short it has
// always expired by the time the handler runs; Engine.QueryCtx must see
// the dead context and the server must answer 504 deadline_exceeded.
func TestDeadlinePropagation(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{RequestTimeout: time.Nanosecond})
	uploadPaperGraph(t, ts)

	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		`{"dsl": "node A output", "k": 3}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("expired deadline: %d %s, want 504", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != api.CodeDeadlineExceeded {
		t.Errorf("code = %q, want %q", env.Error.Code, api.CodeDeadlineExceeded)
	}
}

func TestErrorEnvelopeCodes(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	cases := []struct {
		name         string
		method, path string
		body         any
		status       int
		code         string
	}{
		{"graph_not_found", "GET", "/api/v1/graphs/nope", nil,
			http.StatusNotFound, api.CodeGraphNotFound},
		{"invalid_pattern", "POST", "/api/v1/graphs/paper/query",
			`{"dsl": "frobnicate"}`, http.StatusBadRequest, api.CodeInvalidPattern},
		{"invalid_request", "POST", "/api/v1/graphs/paper/query",
			`{not json`, http.StatusBadRequest, api.CodeInvalidRequest},
		{"graph_exists", "POST", "/api/v1/graphs/paper",
			`{"generator": {"kind": "collab", "nodes": 4, "avg_degree": 1}}`,
			http.StatusConflict, api.CodeGraphExists},
		{"node_not_found", "DELETE", "/api/v1/graphs/paper/nodes/99999", nil,
			http.StatusNotFound, api.CodeNodeNotFound},
		{"index_not_found", "GET", "/api/v1/graphs/paper/index", nil,
			http.StatusNotFound, api.CodeIndexNotFound},
		{"partition_not_found", "GET", "/api/v1/graphs/paper/partitions", nil,
			http.StatusNotFound, api.CodePartitionNotFound},
		{"subscription_not_found", "DELETE", "/api/v1/graphs/paper/subscriptions/nope", nil,
			http.StatusNotFound, api.CodeSubscriptionNotFound},
		{"persistence_disabled", "POST", "/api/v1/admin/persistence/checkpoint", nil,
			http.StatusConflict, api.CodePersistenceDisabled},
		{"unknown_route", "GET", "/api/v1/definitely/not/a/route", nil,
			http.StatusNotFound, api.CodeNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := do(t, tc.method, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if env := decodeEnvelope(t, body); env.Error.Code != tc.code {
				t.Errorf("code = %q, want %q (%s)", env.Error.Code, tc.code, body)
			}
		})
	}
}

// TestSubscriptionEventsURLMatchesSurface checks events_url points into
// the API surface, /api/v1, and resolves there; the retired pre-v1 paths
// answer 404 with the error envelope.
func TestSubscriptionEventsURLMatchesSurface(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	for _, path := range []string{"/api/graphs", "/api/graphs/paper/subscriptions"} {
		resp, body := do(t, "GET", ts.URL+path, nil)
		if resp.StatusCode != http.StatusNotFound || decodeEnvelope(t, body).Error.Code != api.CodeNotFound {
			t.Errorf("GET %s: %d %s, want 404 not_found", path, resp.StatusCode, body)
		}
	}
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/subscriptions",
		`{"dsl": "node A output"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create subscription: %d %s", resp.StatusCode, body)
	}
	var sub api.SubscribeResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("/api/v1/graphs/paper/subscriptions/%s/events", sub.ID)
	if sub.EventsURL != want {
		t.Errorf("events_url = %q, want %q", sub.EventsURL, want)
	}
	// The advertised URL must actually resolve on its surface.
	req, _ := http.NewRequest("DELETE",
		ts.URL+"/api/v1/graphs/paper/subscriptions/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNoContent {
		t.Errorf("delete subscription: %d", dresp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		`{"dsl": "node A output", "k": 3}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}

	resp, body := do(t, "GET", ts.URL+"/metrics", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	out := string(body)
	for _, want := range []string{
		`expfinder_http_requests_total{route="create_graph",method="POST",code="201"} 1`,
		`expfinder_http_requests_total{route="query",method="POST",code="200"} 1`,
		`expfinder_http_request_duration_seconds_count{route="query"} 1`,
		"# TYPE expfinder_http_request_duration_seconds histogram",
		"expfinder_admission_shed_total 0",
		"expfinder_admission_queue_depth 0",
		"expfinder_admission_inflight 0",
		"expfinder_graphs 1",
		"expfinder_cache_bytes",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	// One pool, one gauge pair.
	if strings.Count(out, "_inflight gauge\n") != 1 || strings.Count(out, "_queue_depth gauge\n") != 1 {
		t.Errorf("/metrics has more than one inflight/queue gauge pair:\n%s", out)
	}
}

func TestRequestIDAssignedAndEchoed(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := do(t, "GET", ts.URL+"/api/v1/graphs", nil)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("response missing X-Request-ID")
	}

	req, _ := http.NewRequest("GET", ts.URL+"/api/v1/graphs", nil)
	req.Header.Set("X-Request-ID", "caller-supplied-1")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); got != "caller-supplied-1" {
		t.Errorf("X-Request-ID = %q, want caller-supplied id echoed", got)
	}
}

// TestAccessLogOneLinePerRequest sends paths and a client id that need
// quoting through both log formats: every record is exactly one line,
// also when requests log concurrently, and a JSON record reads back the
// values sent (invalid UTF-8 as U+FFFD). The routed request is slow
// (SlowQuery 1ns), so it writes a slow_query record beside its access
// record.
func TestAccessLogOneLinePerRequest(t *testing.T) {
	cases := []struct {
		target, client string
		records        int
		// text is what the text record must hold: the value quoted.
		text string
	}{
		{"/api/v1/x%0Aforged_line", "", 1, `path="/api/v1/x\nforged_line"`},
		{"/api/v1/x%01%ff", "", 1, `path="/api/v1/x\x01\xff"`},
		{"/api/v1/graphs", `a"b c=d`, 2, `client="a\"b c=d"`},
	}
	send := func(s *Server, i int) *http.Request {
		req := httptest.NewRequest("GET", cases[i].target, nil)
		if cases[i].client != "" {
			req.Header.Set("X-Client-ID", cases[i].client)
		}
		s.ServeHTTP(httptest.NewRecorder(), req)
		return req
	}
	for _, format := range []string{"text", "json"} {
		t.Run(format, func(t *testing.T) {
			var buf bytes.Buffer
			var h slog.Handler = slog.NewTextHandler(&buf, nil)
			if format == "json" {
				h = slog.NewJSONHandler(&buf, nil)
			}
			s := New(engine.New(engine.Options{}), Config{Logger: slog.New(h), SlowQuery: time.Nanosecond})
			// records splits the log into lines, checks each is one whole
			// record, and returns the JSON ones decoded.
			records := func(want int) []map[string]any {
				t.Helper()
				out := buf.String()
				buf.Reset()
				lines := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
				if len(lines) != want || !strings.HasSuffix(out, "\n") {
					t.Fatalf("%d lines, want %d records:\n%s", len(lines), want, out)
				}
				var recs []map[string]any
				for _, line := range lines {
					if format == "text" {
						if !strings.HasPrefix(line, "time=") {
							t.Fatalf("line does not start a record: %q", line)
						}
						continue
					}
					var rec map[string]any
					if err := json.Unmarshal([]byte(line), &rec); err != nil {
						t.Fatalf("invalid JSON line %q: %v", line, err)
					}
					recs = append(recs, rec)
				}
				return recs
			}
			total := 0
			for i, c := range cases {
				total += c.records
				req := send(s, i)
				if format == "text" {
					out := buf.String()
					records(c.records)
					if !strings.Contains(out, c.text) {
						t.Errorf("%s: record lacks %s:\n%s", c.target, c.text, out)
					}
					continue
				}
				for _, rec := range records(c.records) {
					switch rec["msg"] {
					case "request":
						if want := strings.ToValidUTF8(req.URL.Path, "\uFFFD"); rec["path"] != want {
							t.Errorf("path = %q, want %q", rec["path"], want)
						}
					case "slow_query":
						if rec["client"] != c.client {
							t.Errorf("client = %q, want %q", rec["client"], c.client)
						}
					default:
						t.Errorf("unexpected record %v", rec)
					}
				}
			}

			// Request goroutines log concurrently; no two records share a line.
			const workers = 8
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range cases {
						send(s, i)
					}
				}()
			}
			wg.Wait()
			records(workers * total)
		})
	}
}

func TestSSEStillStreamsThroughChain(t *testing.T) {
	// The SSE route opts out of the pool; this guards the Flusher
	// passthrough of the statusWriter wrapper under the full chain.
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/subscriptions",
		`{"dsl": "node A output"}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create subscription: %d %s", resp.StatusCode, body)
	}
	var sub api.SubscribeResponse
	if err := json.Unmarshal(body, &sub); err != nil {
		t.Fatal(err)
	}
	sresp, err := http.Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	// The snapshot event must arrive without the handler returning —
	// proof the Flush calls reach the wire through the wrappers.
	buf := make([]byte, 256)
	n, err := sresp.Body.Read(buf)
	if err != nil || !strings.Contains(string(buf[:n]), "event: snapshot") {
		t.Fatalf("first SSE read = %q, err %v", buf[:n], err)
	}
}
