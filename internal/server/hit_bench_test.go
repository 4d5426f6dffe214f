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
// decode, parse, the cache lookup, the render of matches and top-K, and
// the JSON encode, on the repository benchmark's graph (collab, 6,000
// nodes), k = 10, with a broad and a shallow pattern. It reports the
// response body's length beside ns/op and allocs/op.
func BenchmarkServeQueryHit(b *testing.B) {
	eng := engine.New(engine.Options{})
	if err := eng.AddGraph("collab", testutil.CollabGraph().Clone()); err != nil {
		b.Fatal(err)
	}
	srv := New(eng)
	for _, shape := range []struct{ name, dsl string }{{"broad", testutil.BroadDSL}, {"shallow", testutil.ShallowDSL}} {
		body, err := json.Marshal(api.QueryRequest{DSL: shape.dsl, K: 10})
		if err != nil {
			b.Fatal(err)
		}
		serve := func() *httptest.ResponseRecorder {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/graphs/collab/query", bytes.NewReader(body))
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				b.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			return rec
		}
		serve() // the miss that fills the entry
		if rec := serve(); !strings.Contains(rec.Body.String(), `"source":"cache"`) {
			b.Fatalf("repeat query was not a hit: %.200s", rec.Body)
		}
		b.Run(shape.name, func(b *testing.B) {
			b.ReportAllocs()
			n := 0
			for i := 0; i < b.N; i++ {
				n = serve().Body.Len()
			}
			b.ReportMetric(float64(n), "body_B")
		})
	}
}
