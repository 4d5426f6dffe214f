package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"expfinder/internal/dataset"
	"expfinder/internal/engine"
)

func TestPartitionEndpoints(t *testing.T) {
	ts, eng := newTestServer(t)
	uploadPaperGraph(t, ts)

	// Stats before a build: 404.
	resp, _ := do(t, "GET", ts.URL+"/api/v1/graphs/paper/partitions", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats before build: %d", resp.StatusCode)
	}

	// Build with an explicit fragment count and strategy.
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/partitions",
		`{"parts": 3, "strategy": "greedy"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	var st struct {
		Parts     int    `json:"parts"`
		Strategy  string `json:"strategy"`
		Nodes     int    `json:"nodes"`
		CutEdges  int    `json:"cut_edges"`
		Fragments []struct {
			Nodes  int `json:"nodes"`
			Ghosts int `json:"ghosts"`
		} `json:"fragments"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Parts != 3 || st.Strategy != "greedy" || len(st.Fragments) != 3 {
		t.Fatalf("build stats = %+v", st)
	}

	// Bounded queries now route through the partitioned plan.
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	var qr struct {
		Plan   string `json:"plan"`
		Source string `json:"source"`
	}
	if err := json.Unmarshal(body, &qr); err != nil {
		t.Fatal(err)
	}
	if qr.Plan != string(engine.PlanPartitioned) || qr.Source != string(engine.SourcePartitioned) {
		t.Fatalf("plan/source = %s/%s, want partitioned", qr.Plan, qr.Source)
	}

	// Partition stats are embedded in the graph stats and update their
	// eval counters.
	resp, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"partitions"`) {
		t.Fatalf("graph stats: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/partitions", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var live struct {
		Evals int64 `json:"evals"`
	}
	if err := json.Unmarshal(body, &live); err != nil {
		t.Fatal(err)
	}
	if live.Evals != 1 {
		t.Fatalf("evals = %d, want 1", live.Evals)
	}

	// Unknown strategy: 400. Defaulted build (empty body): parts fall
	// back to the engine's parallelism.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/paper/partitions", `{"strategy": "zoned"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad strategy: %d", resp.StatusCode)
	}
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/paper/partitions", ``)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("defaulted build: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Parts != eng.Parallelism() {
		t.Fatalf("defaulted parts = %d, want %d", st.Parts, eng.Parallelism())
	}

	// Drop, then 404s.
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/partitions", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/partitions", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double drop: %d", resp.StatusCode)
	}
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/missing/partitions", `{}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing graph: %d", resp.StatusCode)
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	resp, body := do(t, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var h struct {
		Status           string `json:"status"`
		Ready            bool   `json:"ready"`
		Graphs           int    `json:"graphs"`
		Persistence      bool   `json:"persistence"`
		RecoveryComplete bool   `json:"recovery_complete"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || !h.Ready || h.Graphs != 1 || h.Persistence || !h.RecoveryComplete {
		t.Fatalf("healthz body = %+v", h)
	}
}

func TestHealthzReportsRecovery(t *testing.T) {
	eng := engine.New(engine.Options{})
	srv := New(eng)
	srv.SetRecoverySummary(&engine.RecoverySummary{Graphs: []engine.GraphRecovery{
		{Name: "good", Nodes: 9, Edges: 12, Records: 3},
		{Name: "bad", Err: "mid-log corruption"},
	}})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	resp, body := do(t, "GET", ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d %s", resp.StatusCode, body)
	}
	var h struct {
		RecoveryComplete bool `json:"recovery_complete"`
		RecoveryFailed   int  `json:"recovery_failed"`
		Recovery         []struct {
			Name  string `json:"name"`
			Error string `json:"error"`
		} `json:"recovery"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatal(err)
	}
	if !h.RecoveryComplete || h.RecoveryFailed != 1 || len(h.Recovery) != 2 {
		t.Fatalf("healthz recovery = %+v", h)
	}
	if h.Recovery[1].Name != "bad" || h.Recovery[1].Error == "" {
		t.Fatalf("failed graph not reported: %+v", h.Recovery)
	}
}
