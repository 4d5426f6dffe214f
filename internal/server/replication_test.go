package server

// Follower-side serving: a follower must answer queries, streams, and
// cached reads byte-identically to the leader at the same applied
// offset, reject writes with the read_only envelope naming the leader,
// and expose its role and lag through /healthz, the debug endpoint, and
// the promote flow.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/replication"
	"expfinder/internal/storage"
	"expfinder/internal/wal"
)

// replPair is one leader HTTP stack and one follower HTTP stack wired
// through a real replication session.
type replPair struct {
	leaderTS   *httptest.Server
	followerTS *httptest.Server
	leaderEng  *engine.Engine
	follEng    *engine.Engine
	leader     *replication.Leader
	follower   *replication.Follower
}

func newReplPair(t *testing.T) *replPair {
	t.Helper()
	m, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	leng := engine.New(engine.Options{Persistence: m})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ld, err := replication.NewLeader(replication.LeaderOptions{
		Engine:         leng,
		WAL:            m,
		Listener:       ln,
		HeartbeatEvery: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	lsrv := New(leng)
	lsrv.SetReplication(ld)
	lts := httptest.NewServer(lsrv)

	feng := engine.New(engine.Options{})
	fl, err := replication.NewFollower(replication.FollowerOptions{
		Engine:       feng,
		Leader:       ld.Addr(),
		ReconnectMin: 10 * time.Millisecond,
		ReconnectMax: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	fsrv := New(feng)
	fsrv.SetReplication(fl)
	fts := httptest.NewServer(fsrv)

	p := &replPair{
		leaderTS: lts, followerTS: fts,
		leaderEng: leng, follEng: feng,
		leader: ld, follower: fl,
	}
	t.Cleanup(func() {
		fts.Close()
		lts.Close()
		_ = fl.Close()
		_ = ld.Close()
		_ = feng.Close()
		_ = leng.Close()
	})
	return p
}

func httpImageOf(t *testing.T, eng *engine.Engine, name string) []byte {
	t.Helper()
	var buf bytes.Buffer
	err := eng.WithGraph(name, func(g *graph.Graph) error {
		return storage.WriteGraphImage(&buf, g)
	})
	if err != nil {
		t.Fatalf("image %q: %v", name, err)
	}
	return buf.Bytes()
}

// waitReplicated blocks until the follower's graph set and every graph
// image are byte-identical to the leader's — the "same applied offset"
// precondition for the equivalence assertions.
func (p *replPair) waitReplicated(t *testing.T) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if p.converged(t) {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("follower did not converge: leader=%v follower=%v",
		p.leaderEng.ListGraphs(), p.follEng.ListGraphs())
}

func (p *replPair) converged(t *testing.T) bool {
	t.Helper()
	lg, fg := p.leaderEng.ListGraphs(), p.follEng.ListGraphs()
	if len(lg) != len(fg) {
		return false
	}
	for i := range lg {
		if lg[i] != fg[i] {
			return false
		}
	}
	for _, name := range lg {
		if !bytes.Equal(httpImageOf(t, p.leaderEng, name), httpImageOf(t, p.follEng, name)) {
			return false
		}
	}
	return true
}

// stripTiming re-marshals a response body with its timing fields
// removed: elapsed_us is wall-clock noise, everything else must be
// byte-identical (encoding/json sorts map keys, so the re-marshal is
// deterministic).
func stripTiming(t *testing.T, body []byte, drop ...string) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("response not JSON: %v (%s)", err, body)
	}
	delete(m, "elapsed_us")
	for _, k := range drop {
		delete(m, k)
	}
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// envelope decodes the uniform error body.
type errEnvelope struct {
	Error struct {
		Code    string         `json:"code"`
		Message string         `json:"message"`
		Details map[string]any `json:"details"`
	} `json:"error"`
}

func TestFollowerServesIdenticalReads(t *testing.T) {
	p := newReplPair(t)
	uploadPaperGraph(t, p.leaderTS)

	// A few mutations past the snapshot so replay is exercised too.
	for i := 0; i < 5; i++ {
		op := "insert"
		if i%2 == 1 {
			op = "delete"
		}
		resp, body := do(t, "POST", p.leaderTS.URL+"/api/v1/graphs/paper/updates",
			fmt.Sprintf(`{"ops": [{"op": %q, "from": 0, "to": 1}]}`, op))
		if resp.StatusCode != 200 {
			t.Fatalf("leader update %d: %d %s", i, resp.StatusCode, body)
		}
	}
	p.waitReplicated(t)

	// Queries answer byte-identically at the same applied offset.
	q := map[string]any{"dsl": dataset.PaperQueryDSL}
	lresp, lbody := do(t, "POST", p.leaderTS.URL+"/api/v1/graphs/paper/query", q)
	fresp, fbody := do(t, "POST", p.followerTS.URL+"/api/v1/graphs/paper/query", q)
	if lresp.StatusCode != 200 || fresp.StatusCode != 200 {
		t.Fatalf("query: leader %d %s / follower %d %s", lresp.StatusCode, lbody, fresp.StatusCode, fbody)
	}
	if !bytes.Equal(stripTiming(t, lbody), stripTiming(t, fbody)) {
		t.Fatalf("query results diverge:\nleader:   %s\nfollower: %s", lbody, fbody)
	}

	// The second follower query is served from its result cache (source
	// flips to "cache") and must not change the answer.
	_, cached := do(t, "POST", p.followerTS.URL+"/api/v1/graphs/paper/query", q)
	if !bytes.Contains(cached, []byte(`"source":"cache"`)) {
		t.Fatalf("second follower query missed the cache: %s", cached)
	}
	if !bytes.Equal(stripTiming(t, cached, "source"), stripTiming(t, fbody, "source")) {
		t.Fatalf("cached follower query diverges:\nfirst:  %s\ncached: %s", fbody, cached)
	}

	// Plain reads agree byte-for-byte.
	for _, path := range []string{"/api/v1/graphs/paper", "/api/v1/graphs/paper/stats", "/api/v1/graphs/paper/dot"} {
		_, lb := do(t, "GET", p.leaderTS.URL+path, nil)
		_, fb := do(t, "GET", p.followerTS.URL+path, nil)
		if !bytes.Equal(lb, fb) {
			t.Fatalf("%s diverges:\nleader:   %s\nfollower: %s", path, lb, fb)
		}
	}
}

func TestFollowerRejectsWrites(t *testing.T) {
	p := newReplPair(t)
	uploadPaperGraph(t, p.leaderTS)
	p.waitReplicated(t)

	writes := []struct {
		method, path string
		body         any
	}{
		{"POST", "/api/v1/graphs/paper/updates", `{"ops": [{"op": "insert", "from": 0, "to": 1}]}`},
		{"POST", "/api/v1/graphs/paper/nodes", `{"label": "SA"}`},
		{"DELETE", "/api/v1/graphs/paper/nodes/0", nil},
		{"POST", "/api/v1/graphs/paper/nodes/0/attrs", `{"experience": {"kind":"int","i":9}}`},
		{"DELETE", "/api/v1/graphs/paper", nil},
		{"POST", "/api/v1/graphs/other", `{"generator": {"kind": "collab", "nodes": 4, "avg_degree": 1}}`},
	}
	for _, wr := range writes {
		resp, body := do(t, wr.method, p.followerTS.URL+wr.path, wr.body)
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s %s on follower: got %d %s, want 403", wr.method, wr.path, resp.StatusCode, body)
		}
		var env errEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatalf("%s %s envelope: %v (%s)", wr.method, wr.path, err, body)
		}
		if env.Error.Code != "read_only" {
			t.Fatalf("%s %s code = %q, want read_only (%s)", wr.method, wr.path, env.Error.Code, body)
		}
		if leader, _ := env.Error.Details["leader"].(string); leader != p.leader.Addr() {
			t.Fatalf("%s %s details.leader = %q, want %q", wr.method, wr.path, leader, p.leader.Addr())
		}
	}

	// Reads on the same routes' graph keep working throughout.
	if resp, body := do(t, "GET", p.followerTS.URL+"/api/v1/graphs/paper", nil); resp.StatusCode != 200 {
		t.Fatalf("follower read after rejections: %d %s", resp.StatusCode, body)
	}
}

func TestFollowerStreamsReplicatedEvents(t *testing.T) {
	p := newReplPair(t)
	uploadPaperGraph(t, p.leaderTS)
	p.waitReplicated(t)

	// Subscriptions are server-local read-side state: creating one on a
	// follower is allowed and its events are driven by replicated applies.
	id, eventsURL := createSub(t, p.followerTS.URL, map[string]any{"dsl": dataset.PaperQueryDSL, "k": 2})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", p.followerTS.URL+eventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("follower stream: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	frames := make(chan sseFrame, 16)
	go readSSE(t, resp, frames)

	next := func() sseFrame {
		select {
		case fr, ok := <-frames:
			if !ok {
				t.Fatal("stream ended early")
			}
			return fr
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for SSE frame")
		}
		panic("unreachable")
	}

	if fr := next(); fr.event != "snapshot" {
		t.Fatalf("first frame = %q, want snapshot", fr.event)
	}

	// A leader-side write must surface on the follower's stream once the
	// record replicates — no follower-side mutation involved. E1 is the
	// paper's Example 3 insertion, which grows the match relation.
	_, pq := dataset.PaperGraph()
	e1 := dataset.E1(pq)
	if resp, body := do(t, "POST", p.leaderTS.URL+"/api/v1/graphs/paper/updates",
		fmt.Sprintf(`{"ops": [{"op": "insert", "from": %d, "to": %d}]}`, e1.From, e1.To)); resp.StatusCode != 200 {
		t.Fatalf("leader update: %d %s", resp.StatusCode, body)
	}
	fr := next()
	if fr.event != "delta" {
		t.Fatalf("post-replication frame = %q, want delta", fr.event)
	}

	// The follower's delta must match what the leader publishes for the
	// same record: one node added under SD.
	var delta struct {
		Added map[string][]int64 `json:"added"`
	}
	if err := json.Unmarshal([]byte(fr.data), &delta); err != nil {
		t.Fatal(err)
	}
	if len(delta.Added["SD"]) != 1 {
		t.Fatalf("replicated delta = %s", fr.data)
	}

	if resp, _ := do(t, "DELETE", p.followerTS.URL+"/api/v1/graphs/paper/subscriptions/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("unsubscribe on follower: %d", resp.StatusCode)
	}
}

func TestHealthzReportsReplication(t *testing.T) {
	p := newReplPair(t)
	uploadPaperGraph(t, p.leaderTS)
	p.waitReplicated(t)

	type health struct {
		Replication *struct {
			Role       string `json:"role"`
			Leader     string `json:"leader"`
			Connected  bool   `json:"connected"`
			LagRecords uint64 `json:"lag_records"`
		} `json:"replication"`
	}

	var lh health
	_, body := do(t, "GET", p.leaderTS.URL+"/healthz", nil)
	if err := json.Unmarshal(body, &lh); err != nil {
		t.Fatal(err)
	}
	if lh.Replication == nil || lh.Replication.Role != "leader" {
		t.Fatalf("leader healthz replication = %s", body)
	}

	// The follower should settle connected with zero lag.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var fh health
		_, body = do(t, "GET", p.followerTS.URL+"/healthz", nil)
		if err := json.Unmarshal(body, &fh); err != nil {
			t.Fatal(err)
		}
		if fh.Replication == nil || fh.Replication.Role != "follower" {
			t.Fatalf("follower healthz replication = %s", body)
		}
		if fh.Replication.Connected && fh.Replication.LagRecords == 0 {
			if fh.Replication.Leader != p.leader.Addr() {
				t.Fatalf("follower healthz leader = %q, want %q", fh.Replication.Leader, p.leader.Addr())
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower healthz never settled: %s", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Standalone nodes report no replication block at all.
	ts, _ := newTestServer(t)
	var sh health
	_, body = do(t, "GET", ts.URL+"/healthz", nil)
	if err := json.Unmarshal(body, &sh); err != nil {
		t.Fatal(err)
	}
	if sh.Replication != nil {
		t.Fatalf("standalone healthz has replication block: %s", body)
	}
}

func TestDebugReplicationEndpoint(t *testing.T) {
	p := newReplPair(t)
	uploadPaperGraph(t, p.leaderTS)
	p.waitReplicated(t)

	var ls replication.Status
	resp, body := do(t, "GET", p.leaderTS.URL+"/api/v1/debug/replication", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("leader debug: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &ls); err != nil {
		t.Fatal(err)
	}
	if ls.Role != "leader" || ls.Addr != p.leader.Addr() {
		t.Fatalf("leader status = %s", body)
	}

	var fs replication.Status
	_, body = do(t, "GET", p.followerTS.URL+"/api/v1/debug/replication", nil)
	if err := json.Unmarshal(body, &fs); err != nil {
		t.Fatal(err)
	}
	if fs.Role != "follower" || fs.Leader != p.leader.Addr() {
		t.Fatalf("follower status = %s", body)
	}

	// Standalone nodes answer with an explicit role instead of a 404.
	ts, _ := newTestServer(t)
	resp, body = do(t, "GET", ts.URL+"/api/v1/debug/replication", nil)
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"standalone"`)) {
		t.Fatalf("standalone debug: %d %s", resp.StatusCode, body)
	}
}

func TestPromoteEndpoint(t *testing.T) {
	p := newReplPair(t)
	uploadPaperGraph(t, p.leaderTS)
	p.waitReplicated(t)

	// Promoting a leader is a conflict.
	resp, body := do(t, "POST", p.leaderTS.URL+"/api/v1/admin/promote", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote leader: %d %s", resp.StatusCode, body)
	}

	// Promoting a standalone node is a conflict too.
	ts, _ := newTestServer(t)
	resp, body = do(t, "POST", ts.URL+"/api/v1/admin/promote", nil)
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("promote standalone: %d %s", resp.StatusCode, body)
	}

	// Promoting the follower makes it writable.
	resp, body = do(t, "POST", p.followerTS.URL+"/api/v1/admin/promote", nil)
	if resp.StatusCode != 200 || !bytes.Contains(body, []byte(`"promoted":true`)) {
		t.Fatalf("promote follower: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", p.followerTS.URL+"/api/v1/graphs/paper/nodes",
		`{"label": "SA", "attrs": {"experience": {"kind":"int","i":7}}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("write after promote: %d %s", resp.StatusCode, body)
	}

	// The new leader reports its role.
	_, body = do(t, "GET", p.followerTS.URL+"/api/v1/debug/replication", nil)
	var st replication.Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Role != "leader" {
		t.Fatalf("role after promote = %s", body)
	}
}
