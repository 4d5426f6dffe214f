package server

// End-to-end tests for the accounting surface: one client identity
// shared by the rate limiter, the slow-query log, and the ledger; the
// ledger reconciling with the requests actually served; the
// /stats/clients and /slo endpoints; heavy-client shedding; the debug
// ring filters; and /healthz degrading (not failing) when replication
// breaks under injected network faults.

import (
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"expfinder/internal/account"
	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/replication"
	"expfinder/internal/testutil"
	"expfinder/internal/wal"
)

// get issues a GET with the given X-Client-ID and returns the response
// with its body drained.
func getAs(t *testing.T, url, client string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body []byte
	buf := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(buf)
		body = append(body, buf[:n]...)
		if err != nil {
			break
		}
	}
	return resp, body
}

// TestClientIdentityUnified drives one client through the stack and
// asserts the rate limiter, the slow-query log, and the accounting
// ledger all saw the same identity: the X-Client-ID header.
func TestClientIdentityUnified(t *testing.T) {
	ts, s := newConfiguredServer(t, Config{
		RateLimit: 1, RateBurst: 2, SlowQuery: time.Nanosecond,
	})

	// Two requests drain alice's burst; the third is rate limited.
	resp, _ := getAs(t, ts.URL+"/api/v1/graphs", "alice")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first request: %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "1" {
		t.Errorf("first X-RateLimit-Remaining = %q, want 1", got)
	}
	resp, _ = getAs(t, ts.URL+"/api/v1/graphs", "alice")
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "0" {
		t.Errorf("second X-RateLimit-Remaining = %q, want 0", got)
	}
	resp, body := getAs(t, ts.URL+"/api/v1/graphs", "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("third request: %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("X-RateLimit-Remaining"); got != "0" {
		t.Errorf("429 X-RateLimit-Remaining = %q, want 0", got)
	}
	decodeEnvelope(t, body)
	// A different identity has its own bucket.
	if resp, _ := getAs(t, ts.URL+"/api/v1/graphs", "bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("bob limited by alice's bucket: %d", resp.StatusCode)
	}

	// The slow-query log (threshold 1ns: everything is slow) attributes
	// each entry to the same key, including the 429.
	var alice, bob int
	for _, e := range s.tracer.Slow() {
		switch e.Client {
		case "alice":
			alice++
		case "bob":
			bob++
		default:
			t.Errorf("slow entry with unexpected client %q", e.Client)
		}
	}
	if alice != 3 || bob != 1 {
		t.Errorf("slow log clients: alice=%d bob=%d, want 3/1", alice, bob)
	}

	// The ledger billed the same identities, with the 429 called out.
	usage := map[string]account.ClientUsage{}
	for _, cu := range s.ledger.Snapshot(0) {
		usage[cu.Client] = cu
	}
	if u := usage["alice"]; u.Requests != 3 || u.RateLimited != 1 {
		t.Errorf("alice usage = %+v, want 3 requests, 1 rate_limited", u)
	}
	if u := usage["bob"]; u.Requests != 1 || u.RateLimited != 0 {
		t.Errorf("bob usage = %+v, want 1 request", u)
	}
}

// TestStatsClientsEndpoint exercises GET /stats/clients end to end:
// the per-client rows must sum exactly to the reported totals, and the
// totals must match the number of requests actually issued.
func TestStatsClientsEndpoint(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{TraceSample: 1})
	uploadPaperGraph(t, ts)

	queryAs := func(client string) {
		t.Helper()
		payload, err := json.Marshal(map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest("POST", ts.URL+"/api/v1/graphs/paper/query",
			bytes.NewReader(payload))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Client-ID", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query as %s: %d", client, resp.StatusCode)
		}
	}

	issued := int64(1) // the upload above
	for i, client := range []string{"alice", "bob", "carol"} {
		for j := 0; j <= i; j++ {
			queryAs(client)
			issued++
			if resp, _ := getAs(t, ts.URL+"/api/v1/graphs", client); resp.StatusCode != http.StatusOK {
				t.Fatal("list failed")
			}
			issued++
		}
	}

	resp, body := do(t, "GET", ts.URL+"/api/v1/stats/clients?window=total", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats/clients: %d %s", resp.StatusCode, body)
	}
	var cs api.ClientStatsResponse
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	if cs.Window != "total" {
		t.Errorf("window = %q, want total", cs.Window)
	}
	var sum account.Usage
	var rows int64
	for _, cu := range cs.Clients {
		sum.Requests += cu.Requests
		sum.WallUS += cu.WallUS
		sum.BytesOut += cu.BytesOut
		rows++
	}
	if sum.Requests != cs.Totals.Requests || sum.WallUS != cs.Totals.WallUS || sum.BytesOut != cs.Totals.BytesOut {
		t.Errorf("client rows sum %+v != totals %+v", sum, cs.Totals)
	}
	// The stats request itself is charged after its response is
	// rendered, so the body covers exactly the requests issued before it.
	if cs.Totals.Requests != issued {
		t.Errorf("totals.requests = %d, want %d", cs.Totals.Requests, issued)
	}
	if cs.Totals.WallUS <= 0 || cs.Totals.BytesOut <= 0 {
		t.Errorf("totals missing wall/bytes: %+v", cs.Totals)
	}

	// Traced queries attribute engine work: somebody computed candidates.
	if sum.Requests > 0 {
		var candidates int64
		for _, cu := range cs.Clients {
			candidates += cu.Candidates
		}
		if candidates <= 0 {
			t.Error("no candidate work attributed despite traced queries")
		}
	}

	// All six queries are one answer: alice's first computed it, the other
	// five were served from the cache. Both sides of the ledger charge the
	// same quantity per query — the cache entry's accounted bytes (relation
	// and ranking) — so served is exactly 5x computed.
	_, body = do(t, "GET", ts.URL+"/api/v1/cache/stats", nil)
	var cst api.CacheStatsResponse
	if err := json.Unmarshal(body, &cst); err != nil {
		t.Fatal(err)
	}
	tot := cs.Totals
	if cst.Entries != 1 || tot.CacheBytesComputed != cst.Bytes || tot.CacheBytesServed != 5*cst.Bytes {
		t.Errorf("one entry of %d bytes (entries %d), missed once and hit five times: computed %d, served %d",
			cst.Bytes, cst.Entries, tot.CacheBytesComputed, tot.CacheBytesServed)
	}

	resp, body = do(t, "GET", ts.URL+"/api/v1/stats/clients?window=bogus", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bogus window: %d %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != api.CodeInvalidRequest {
		t.Errorf("bogus window code = %q", env.Error.Code)
	}
}

// TestDualQueryIsAccounted: a dual query is an engine query like any other
// — its miss charges the client the bytes it made the engine compute, its
// hit the same bytes as served, and both reach the plan-outcome recorder
// under the plan "dual-simulation".
func TestDualQueryIsAccounted(t *testing.T) {
	ts, srv := newConfiguredServer(t, Config{TraceSample: 1})
	uploadPaperGraph(t, ts)
	for i := 0; i < 2; i++ {
		if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
			map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3, "semantics": "dual"}); resp.StatusCode != http.StatusOK {
			t.Fatalf("dual query %d: %d %s", i, resp.StatusCode, body)
		}
	}
	_, body := do(t, "GET", ts.URL+"/api/v1/stats/clients?window=total", nil)
	var cs api.ClientStatsResponse
	if err := json.Unmarshal(body, &cs); err != nil {
		t.Fatal(err)
	}
	_, body = do(t, "GET", ts.URL+"/api/v1/cache/stats", nil)
	var cst api.CacheStatsResponse
	if err := json.Unmarshal(body, &cst); err != nil {
		t.Fatal(err)
	}
	if tot := cs.Totals; cst.Entries != 1 || cst.Bytes == 0 || tot.CacheBytesComputed != cst.Bytes || tot.CacheBytesServed != cst.Bytes {
		t.Errorf("one dual entry of %d bytes (entries %d), missed once and hit once: computed %d, served %d",
			cst.Bytes, cst.Entries, tot.CacheBytesComputed, tot.CacheBytesServed)
	}
	var recorded int64
	for _, pt := range srv.recorder.PlanTotals() {
		if pt.Graph == "paper" && pt.Plan == "dual-simulation" {
			recorded = pt.Count
		}
	}
	if recorded != 2 {
		t.Errorf("plan-outcome recorder holds %d dual-simulation outcomes, want 2 (%+v)", recorded, srv.recorder.PlanTotals())
	}
}

// TestSLOEndpoint checks GET /slo reports the route classes the
// workload touched, across all three windows.
func TestSLOEndpoint(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{})
	uploadPaperGraph(t, ts) // mutation class
	for i := 0; i < 3; i++ {
		if resp, _ := do(t, "GET", ts.URL+"/api/v1/graphs", nil); resp.StatusCode != http.StatusOK {
			t.Fatal("list failed")
		}
	}

	resp, body := do(t, "GET", ts.URL+"/api/v1/slo", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo: %d %s", resp.StatusCode, body)
	}
	var sr api.SLOResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatal(err)
	}
	classes := map[string]account.ClassReport{}
	for _, cr := range sr.Classes {
		classes[cr.Class] = cr
	}
	read, ok := classes["read"]
	if !ok {
		t.Fatalf("no read class in %s", body)
	}
	if len(read.Windows) != 3 {
		t.Fatalf("read windows = %d, want 3", len(read.Windows))
	}
	for _, wr := range read.Windows {
		if wr.Total < 3 {
			t.Errorf("window %s total = %d, want >= 3", wr.Window, wr.Total)
		}
		if wr.Availability != 1 || wr.AvailabilityBurn != 0 {
			t.Errorf("window %s: availability %v burn %v, want clean", wr.Window, wr.Availability, wr.AvailabilityBurn)
		}
	}
	if _, ok := classes["mutation"]; !ok {
		t.Errorf("no mutation class after a graph upload: %s", body)
	}
}

// TestShedHeaviestClient fills the engine's execution pool and asserts
// the dominant client is shed with the heaviest_client reason while light
// clients still queue, and that plain queue-full sheds carry the queue
// depth in their details.
func TestShedHeaviestClient(t *testing.T) {
	eng := engine.New(engine.Options{Parallelism: 1})
	s := New(eng, Config{ShedHeaviest: true})
	// The last minute of history: "heavy" owns all the wall time.
	s.ledger.Charge(account.Charge{Client: "heavy", Status: 200, Wall: time.Second})

	maxQueue := 4 * eng.Parallelism()
	started := make(chan struct{}, 1+maxQueue)
	release := make(chan struct{})
	blocked := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
	})
	ts := httptest.NewServer(s.withAdmission(poolSlot, blocked))
	defer ts.Close()

	type result struct {
		status int
		body   []byte
	}
	fire := func(client string) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, body := getAs(t, ts.URL, client)
			ch <- result{resp.StatusCode, body}
		}()
		return ch
	}

	holder := fire("heavy") // takes the slot
	<-started
	var queued []chan result
	for i := 0; i < maxQueue; i++ {
		queued = append(queued, fire("light")) // queue, to depth 4 of 4
	}
	deadline := time.Now().Add(5 * time.Second)
	for eng.Pool().Queued != maxQueue {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d light requests queued", eng.Pool().Queued, maxQueue)
		}
		time.Sleep(time.Millisecond)
	}

	// Queue at least half full and "heavy" holds the majority wall share:
	// shed it.
	res := <-fire("heavy")
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("heavy client: %d, want 503", res.status)
	}
	env := decodeEnvelope(t, res.body)
	if env.Error.Code != api.CodeOverloaded {
		t.Errorf("heavy shed code = %q", env.Error.Code)
	}
	if got := env.Error.Details["reason"]; got != "heaviest_client" {
		t.Errorf("heavy shed reason = %v, want heaviest_client", got)
	}

	// A light client hits the ordinary queue-full shed, whose details
	// carry the depth so the client can size its back-off.
	res = <-fire("light")
	if res.status != http.StatusServiceUnavailable {
		t.Fatalf("light client: %d, want 503", res.status)
	}
	env = decodeEnvelope(t, res.body)
	if got, ok := env.Error.Details["queue_depth"].(float64); !ok || got != float64(maxQueue) {
		t.Errorf("queue_depth detail = %v, want %d", env.Error.Details["queue_depth"], maxQueue)
	}
	if got, ok := env.Error.Details["max_queue"].(float64); !ok || got != float64(maxQueue) {
		t.Errorf("max_queue detail = %v, want %d", env.Error.Details["max_queue"], maxQueue)
	}

	close(release)
	if res := <-holder; res.status != http.StatusOK {
		t.Errorf("holder finished %d", res.status)
	}
	for _, ch := range queued {
		if res := <-ch; res.status != http.StatusOK {
			t.Errorf("queued request finished %d", res.status)
		}
	}
}

// TestDebugRingFilters drives traced traffic and filters the trace and
// slow rings by route, plan, and duration.
func TestDebugRingFilters(t *testing.T) {
	ts, _ := newConfiguredServer(t, Config{TraceSample: 1, SlowQuery: time.Nanosecond})
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Plan string `json:"plan"`
	}
	if err := json.Unmarshal(body, &qr); err != nil || qr.Plan == "" {
		t.Fatalf("no plan in query response: %v %s", err, body)
	}

	fetchTraces := func(query string) api.DebugTracesResponse {
		t.Helper()
		resp, body := do(t, "GET", ts.URL+"/api/v1/debug/traces"+query, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("debug/traces%s: %d %s", query, resp.StatusCode, body)
		}
		var tr api.DebugTracesResponse
		if err := json.Unmarshal(body, &tr); err != nil {
			t.Fatal(err)
		}
		return tr
	}

	all := fetchTraces("")
	if len(all.Traces) < 2 {
		t.Fatalf("expected traces for upload and query, got %d", len(all.Traces))
	}
	byRoute := fetchTraces("?route=query")
	if len(byRoute.Traces) != 1 || byRoute.Traces[0].Name != "query" {
		t.Errorf("route filter returned %d traces", len(byRoute.Traces))
	}
	byPlan := fetchTraces("?plan=" + qr.Plan)
	if len(byPlan.Traces) != 1 {
		t.Errorf("plan=%s filter returned %d traces", qr.Plan, len(byPlan.Traces))
	}
	if got := fetchTraces("?plan=no-such-plan"); len(got.Traces) != 0 {
		t.Errorf("bogus plan matched %d traces", len(got.Traces))
	}
	if got := fetchTraces("?min_ms=3600000"); len(got.Traces) != 0 {
		t.Errorf("min_ms=1h matched %d traces", len(got.Traces))
	}
	if resp, body := do(t, "GET", ts.URL+"/api/v1/debug/traces?min_ms=-1", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("negative min_ms: %d %s", resp.StatusCode, body)
	}

	// The slow ring (threshold 1ns: everything) takes the same filters.
	resp, body = do(t, "GET", ts.URL+"/api/v1/debug/slow?route=query", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("debug/slow: %d %s", resp.StatusCode, body)
	}
	var sl api.DebugSlowResponse
	if err := json.Unmarshal(body, &sl); err != nil {
		t.Fatal(err)
	}
	if len(sl.Entries) != 1 || sl.Entries[0].Route != "query" {
		t.Errorf("slow route filter returned %d entries", len(sl.Entries))
	}
	if resp, _ := do(t, "GET", ts.URL+"/api/v1/debug/slow?min_ms=nope", nil); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed min_ms on slow ring: %d", resp.StatusCode)
	}
}

// TestHealthzDegradedOnReplicationFault severs the replication link
// with the netfault proxy and asserts the follower's /healthz walks to
// degraded — still HTTP 200, never unhealthy, with the replication
// component naming the reason — and recovers to ok when the follower
// reconnects.
func TestHealthzDegradedOnReplicationFault(t *testing.T) {
	m, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	leng := engine.New(engine.Options{Persistence: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	// Every accepted replication conn goes through a fault injector.
	var conns []*testutil.FaultConn
	var connCh = make(chan *testutil.FaultConn, 8)
	fln := testutil.WrapListener(ln, func(c net.Conn) net.Conn {
		fc := testutil.NewFaultConn(c)
		connCh <- fc
		return fc
	})
	ld, err := replication.NewLeader(replication.LeaderOptions{
		Engine: leng, WAL: m, Listener: fln,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ld.Close()

	feng := engine.New(engine.Options{})
	fl, err := replication.NewFollower(replication.FollowerOptions{
		Engine: feng, Leader: ld.Addr(),
		ReconnectMin: 20 * time.Millisecond, ReconnectMax: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	fsrv := New(feng)
	fsrv.SetReplication(fl)
	fts := httptest.NewServer(fsrv)
	defer fts.Close()

	health := func() (string, int, []account.HealthCheck) {
		t.Helper()
		resp, body := do(t, "GET", fts.URL+"/healthz", nil)
		var hb healthBody
		if err := json.Unmarshal(body, &hb); err != nil {
			t.Fatalf("healthz body: %v %s", err, body)
		}
		return hb.Status, resp.StatusCode, hb.Components
	}

	waitStatus := func(want string) []account.HealthCheck {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			status, code, comps := health()
			if status == want {
				if code != http.StatusOK {
					t.Fatalf("status %q answered HTTP %d, want 200", status, code)
				}
				return comps
			}
			if status == "unhealthy" {
				t.Fatalf("rollup escalated to unhealthy; a single degraded component must not")
			}
			if time.Now().After(deadline) {
				t.Fatalf("healthz stuck at %q, want %q", status, want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Connected follower: ok.
	waitStatus("ok")

	// Cut every replication conn the leader accepted so the follower
	// observes a dead link mid-session.
	for {
		select {
		case fc := <-connCh:
			conns = append(conns, fc)
		default:
		}
		if len(conns) > 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, fc := range conns {
		fc.Sever()
	}

	comps := waitStatus("degraded")
	var replCheck *account.HealthCheck
	for i := range comps {
		if comps[i].Component == "replication" {
			replCheck = &comps[i]
		} else if comps[i].Status != account.StatusOK {
			t.Errorf("component %s also degraded: %+v", comps[i].Component, comps[i])
		}
	}
	if replCheck == nil || replCheck.Status != account.StatusDegraded || replCheck.Detail == "" {
		t.Fatalf("replication component not degraded with a reason: %+v", comps)
	}

	// The follower reconnects through fresh (unfaulted) conns and the
	// rollup walks back to ok — degradation is not sticky.
	waitStatus("ok")
}
