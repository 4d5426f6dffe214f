package account_test

// The serving tier builds each request's Charge: wall time, status and
// bytes from the middleware, and the cost counters from the request's
// finished trace. These tests drive that path end to end through a
// server and read the bills back from GET /stats/clients.

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
	"expfinder/internal/wal"
)

// traceSpan mirrors the JSON of one span in GET /debug/traces.
type traceSpan struct {
	Name       string         `json:"name"`
	DurationUS int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs"`
	Children   []*traceSpan   `json:"children"`
}

// num reads a numeric attribute; JSON decodes every number as float64.
func (sp *traceSpan) num(key string) int64 {
	f, _ := sp.Attrs[key].(float64)
	return int64(f)
}

func (sp *traceSpan) walk(fn func(*traceSpan)) {
	fn(sp)
	for _, c := range sp.Children {
		c.walk(fn)
	}
}

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

// workload creates the paper graph and inserts an edge into it, then
// runs the paper's query twice: the first computes the answer, the
// second is served from the result cache.
func workload(t *testing.T, url string) {
	t.Helper()
	g, _ := dataset.PaperGraph()
	gj, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	call(t, "POST", url+"/api/v1/graphs/paper", fmt.Sprintf(`{"graph": %s}`, gj))
	call(t, "POST", url+"/api/v1/graphs/paper/updates", `{"ops": [{"op": "insert", "from": 0, "to": 1}]}`)
	q, err := json.Marshal(map[string]any{"dsl": dataset.PaperQueryDSL, "k": 3})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		call(t, "POST", url+"/api/v1/graphs/paper/query", string(q))
	}
}

func totals(t *testing.T, url string) api.ClientStatsResponse {
	t.Helper()
	var cs api.ClientStatsResponse
	if err := json.Unmarshal(call(t, "GET", url+"/api/v1/stats/clients?window=total", ""), &cs); err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestChargeAddTrace traces every request of a durable server (an
// upload, an edge insert that appends to the WAL, a query that computes
// its answer, one the cache serves) and checks the ledger billed each
// cost counter exactly as the finished traces carry it: admission waits
// as queue time, each
// engine.query's matches and result bytes, each cache hit's bytes and
// each WAL append's bytes. Untraced requests are still charged, with no
// cost counters.
func TestChargeAddTrace(t *testing.T) {
	m, err := wal.Open(wal.Options{Dir: t.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(engine.Options{Persistence: m})
	t.Cleanup(func() { eng.Close() })
	ts := httptest.NewServer(server.New(eng, server.Config{TraceSample: 1}))
	t.Cleanup(ts.Close)
	workload(t, ts.URL)

	// The stats request is charged after its body renders, so the totals
	// cover exactly the four requests before it.
	tot := totals(t, ts.URL).Totals
	var ring struct {
		Traces []struct {
			Name string     `json:"name"`
			Root *traceSpan `json:"root"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(call(t, "GET", ts.URL+"/api/v1/debug/traces", ""), &ring); err != nil {
		t.Fatal(err)
	}
	var want struct{ waits, queueUS, candidates, computed, served, wal int64 }
	traced := 0
	for _, tr := range ring.Traces {
		if tr.Name == "client_stats" {
			continue
		}
		traced++
		tr.Root.walk(func(sp *traceSpan) {
			switch sp.Name {
			case "admission.wait":
				want.waits++
				want.queueUS += sp.DurationUS
			case "engine.query":
				want.candidates += sp.num("matches")
				want.computed += sp.num("result_bytes")
			case "cache.lookup":
				if hit, _ := sp.Attrs["hit"].(bool); hit {
					want.served += sp.num("bytes")
				}
			case "wal.append":
				want.wal += sp.num("bytes")
			}
		})
	}
	if traced != 4 || tot.Requests != 4 {
		t.Fatalf("traced %d requests, charged %d; want 4 each", traced, tot.Requests)
	}
	if want.waits == 0 || want.candidates == 0 || want.computed == 0 || want.served == 0 || want.wal == 0 {
		t.Fatalf("traces lack a cost span: %+v", want)
	}
	if tot.QueueUS != want.queueUS || tot.Candidates != want.candidates || tot.WALBytes != want.wal {
		t.Fatalf("queue, work, wal: charged %+v, traces carry %+v", tot, want)
	}
	if tot.CacheBytesComputed != want.computed || tot.CacheBytesServed != want.served {
		t.Fatalf("cache bytes: charged %+v, traces carry %+v", tot, want)
	}

	// Sampled out: every request is billed its wall time and bytes, and
	// nothing a trace would carry.
	plain := httptest.NewServer(server.New(engine.New(engine.Options{})))
	t.Cleanup(plain.Close)
	workload(t, plain.URL)
	u := totals(t, plain.URL).Totals
	if u.Requests != 4 || u.WallUS <= 0 || u.BytesOut <= 0 {
		t.Fatalf("untraced requests not charged: %+v", u)
	}
	if u.QueueUS != 0 || u.Candidates != 0 || u.CacheBytesComputed != 0 || u.CacheBytesServed != 0 || u.WALBytes != 0 {
		t.Fatalf("untraced requests charged trace costs: %+v", u)
	}
}
