package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/trace"
	"expfinder/internal/wal"
)

func durableServer(t *testing.T) (*Server, *engine.Engine) {
	t.Helper()
	m, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	eng := engine.New(engine.Options{Persistence: m})
	t.Cleanup(func() { eng.Close() })
	return New(eng), eng
}

func TestPersistenceStatsDisabled(t *testing.T) {
	srv := New(engine.New(engine.Options{}))
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/admin/persistence", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	var body struct {
		Enabled bool `json:"enabled"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Enabled {
		t.Fatal("persistence reported enabled on a memory-only engine")
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/admin/persistence/checkpoint", nil))
	if rec.Code != http.StatusConflict {
		t.Fatalf("checkpoint without persistence: status %d, want 409", rec.Code)
	}
}

func TestPersistenceStatsAndForceCheckpoint(t *testing.T) {
	srv, eng := durableServer(t)
	g := graph.New(0)
	a := g.AddNode("SA", graph.Attrs{"name": graph.String("Ann")})
	b := g.AddNode("SD", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	if err := eng.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	// Append a couple of records past the initial snapshot.
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/graphs/g/updates",
		strings.NewReader(`{"ops":[{"op":"delete","from":0,"to":1},{"op":"insert","from":1,"to":0}]}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("updates: %d %s", rec.Code, rec.Body)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/admin/persistence", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("stats: %d %s", rec.Code, rec.Body)
	}
	var stats struct {
		Enabled bool `json:"enabled"`
		Stats   struct {
			Policy string `json:"fsync_policy"`
			Graphs []struct {
				Name                 string `json:"name"`
				BytesSinceCheckpoint int64  `json:"bytes_since_checkpoint"`
				SnapshotVersion      uint64 `json:"snapshot_version"`
			} `json:"graphs"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if !stats.Enabled || len(stats.Stats.Graphs) != 1 || stats.Stats.Graphs[0].Name != "g" {
		t.Fatalf("unexpected stats body: %s", rec.Body)
	}
	if stats.Stats.Graphs[0].BytesSinceCheckpoint == 0 {
		t.Fatal("updates did not grow the WAL")
	}
	if stats.Stats.Policy != "interval" {
		t.Fatalf("policy %q, want interval default", stats.Stats.Policy)
	}

	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/admin/persistence/checkpoint",
		strings.NewReader(`{"graph":"g"}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body)
	}
	var ck struct {
		Checkpointed []string `json:"checkpointed"`
		Stats        struct {
			Graphs []struct {
				BytesSinceCheckpoint int64  `json:"bytes_since_checkpoint"`
				SnapshotVersion      uint64 `json:"snapshot_version"`
			} `json:"graphs"`
		} `json:"stats"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &ck); err != nil {
		t.Fatal(err)
	}
	if len(ck.Checkpointed) != 1 || ck.Checkpointed[0] != "g" {
		t.Fatalf("checkpointed %v", ck.Checkpointed)
	}
	if ck.Stats.Graphs[0].BytesSinceCheckpoint != 0 {
		t.Fatal("force-checkpoint did not truncate the WAL")
	}
	gg, err := eng.Graph("g")
	if err != nil {
		t.Fatal(err)
	}
	if ck.Stats.Graphs[0].SnapshotVersion != gg.Version() {
		t.Fatalf("snapshot at %d, graph at %d", ck.Stats.Graphs[0].SnapshotVersion, gg.Version())
	}

	// Unknown graph -> 404; empty body -> checkpoint everything.
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/admin/persistence/checkpoint",
		strings.NewReader(`{"graph":"nope"}`)))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	srv.ServeHTTP(rec, httptest.NewRequest("POST", "/api/v1/admin/persistence/checkpoint", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint-all: %d %s", rec.Code, rec.Body)
	}
}

// TestNodeWritesAreTracedAndBilled: a traced node insert, node removal
// and attribute set each append one WAL record under a wal.append span of
// its request's trace, and the request's client is billed those bytes.
func TestNodeWritesAreTracedAndBilled(t *testing.T) {
	srv, eng := durableServer(t)
	g, p := dataset.PaperGraph()
	if err := eng.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct{ client, method, path, body string }{
		{"adder", "POST", "/api/v1/graphs/paper/nodes", `{"label":"SA","attrs":{"experience":{"kind":"int","i":7}}}`},
		{"remover", "DELETE", fmt.Sprintf("/api/v1/graphs/paper/nodes/%d", p.Dan), ""},
		{"setter", "POST", fmt.Sprintf("/api/v1/graphs/paper/nodes/%d/attrs", p.Bob), `{"experience":{"kind":"int","i":1}}`},
	} {
		req := httptest.NewRequest(w.method, w.path+"?trace=1", strings.NewReader(w.body))
		req.Header.Set("X-Client-ID", w.client)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code >= 300 {
			t.Fatalf("%s: status %d: %s", w.client, rec.Code, rec.Body)
		}
		appends := 0
		srv.tracer.Recent()[0].Walk(func(sp *trace.SpanJSON) {
			if sp.Name == "wal.append" && sp.Int("bytes") > 0 {
				appends++
			}
		})
		if appends != 1 {
			t.Errorf("%s: %d wal.append spans with bytes, want 1", w.client, appends)
		}
		var billed int64
		for _, cu := range srv.ledger.Snapshot(0) {
			if cu.Client == w.client {
				billed = cu.WALBytes
			}
		}
		if billed <= 0 {
			t.Errorf("%s: billed %d WAL bytes, want a nonzero charge", w.client, billed)
		}
	}
}
