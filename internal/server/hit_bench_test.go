package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"expfinder/internal/api"
	"expfinder/internal/engine"
	"expfinder/internal/testutil"
)

// BenchmarkServeQueryHit is a cache hit through the whole handler stack:
// decode, the pattern memo's lookup (the warm-up request parsed the text),
// the cache lookup, the response written into a pooled buffer around the
// entry's encoded matches, on the repository benchmark's graph (collab,
// 6,000 nodes), k = 10, with a broad and a shallow pattern, and a batch
// of four hits (broad, deep, shallow, star) in one request. It reports
// the response body's length beside ns/op and allocs/op.
func BenchmarkServeQueryHit(b *testing.B) {
	eng := engine.New(engine.Options{})
	if err := eng.AddGraph("collab", testutil.CollabGraph().Clone()); err != nil {
		b.Fatal(err)
	}
	srv := New(eng)
	var batch api.BatchRequest
	for _, dsl := range []string{testutil.BroadDSL, testutil.DeepDSL, testutil.ShallowDSL, testutil.StarDSL} {
		batch.Queries = append(batch.Queries, api.BatchQuery{Graph: "collab", DSL: dsl, K: 10})
	}
	for _, cell := range []struct {
		name, path string
		req        any
		hits       int // "source":"cache" in a warm response
	}{
		{"broad", "/api/v1/graphs/collab/query", api.QueryRequest{DSL: testutil.BroadDSL, K: 10}, 1},
		{"shallow", "/api/v1/graphs/collab/query", api.QueryRequest{DSL: testutil.ShallowDSL, K: 10}, 1},
		{"batch", "/api/v1/query/batch", batch, len(batch.Queries)},
	} {
		body, err := json.Marshal(cell.req)
		if err != nil {
			b.Fatal(err)
		}
		serve := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, cell.path, bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			return rec
		}
		serve() // the misses that fill the entries
		if rec := serve(); strings.Count(rec.Body.String(), `"source":"cache"`) != cell.hits {
			b.Fatalf("repeat request was not %d hits: %.200s", cell.hits, rec.Body)
		}
		b.Run(cell.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n = serve().Body.Len()
			}
			b.ReportMetric(float64(n), "body_B")
		})
	}
}
