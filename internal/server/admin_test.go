package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"expfinder/internal/engine"
	"expfinder/internal/graph"
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
