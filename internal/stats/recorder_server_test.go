package stats_test

// The serving tier feeds the plan-outcome recorder one Outcome per
// engine.query span of each finished trace. This test drives that path
// end to end through a server and reads the recorder back from
// GET /stats/queries.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/server"
)

func call(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode/100 != 2 {
		t.Fatalf("%s %s: %d %s", method, url, resp.StatusCode, out)
	}
	return out
}

func queryStats(t *testing.T, url string) api.QueryStatsResponse {
	t.Helper()
	var qs api.QueryStatsResponse
	if err := json.Unmarshal(call(t, "GET", url+"/api/v1/stats/queries", ""), &qs); err != nil {
		t.Fatal(err)
	}
	return qs
}

// TestRecorderIgnoresNonQuerySpans traces requests that run no query (an
// upload, graph reads, the statistics endpoints) and finds no outcome
// recorded; the first traced query then records exactly one. An
// untraced query records nothing.
func TestRecorderIgnoresNonQuerySpans(t *testing.T) {
	g, _ := dataset.PaperGraph()
	gj, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q, err := json.Marshal(map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, traced := range []bool{true, false} {
		cfg := server.Config{}
		if traced {
			cfg.TraceSample = 1
		}
		ts := httptest.NewServer(server.New(engine.New(engine.Options{}), cfg))
		t.Cleanup(ts.Close)
		call(t, "POST", ts.URL+"/api/v1/graphs/paper", fmt.Sprintf(`{"graph": %s}`, gj))
		call(t, "GET", ts.URL+"/api/v1/graphs/paper", "")
		call(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", "")
		queryStats(t, ts.URL)
		if qs := queryStats(t, ts.URL); len(qs.Summaries) != 0 || qs.Dropped != 0 {
			t.Fatalf("traced=%v: non-query requests recorded: %+v", traced, qs)
		}
		call(t, "POST", ts.URL+"/api/v1/graphs/paper/query", string(q))
		qs := queryStats(t, ts.URL)
		want := 0
		if traced {
			want = 1
		}
		if len(qs.Summaries) != want || qs.Dropped != 0 {
			t.Fatalf("traced=%v: after one query, outcomes %+v, want %d bucket", traced, qs, want)
		}
		if traced {
			if s := qs.Summaries[0]; s.Graph != "paper" || s.Count != 1 {
				t.Fatalf("query outcome = %+v", s)
			}
		}
	}
}
