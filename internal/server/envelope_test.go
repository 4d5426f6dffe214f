package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/trace"
	"expfinder/internal/viz"
)

// referenceResponse is the api.QueryResponse the handler encoded with
// encoding/json before it wrote responses itself: every match list copied
// into the map, display names from the graph, DOT over a rebuilt result
// graph.
func referenceResponse(g *graph.Graph, q *pattern.Pattern, res *engine.Result, withDot bool) api.QueryResponse {
	resp := api.QueryResponse{
		Plan:      string(res.Plan),
		Source:    string(res.Source),
		ElapsedUS: res.Elapsed.Microseconds(),
		Matches:   map[string][]int64{},
	}
	for i := 0; i < q.NumNodes(); i++ {
		idx := pattern.NodeIdx(i)
		out := []int64{}
		for _, id := range res.Relation.MatchesOf(idx) {
			out = append(out, int64(id))
		}
		resp.Matches[q.Node(idx).Name] = out
	}
	for _, t := range res.TopK {
		entry := api.TopEntry{Node: int64(t.Node), Rank: t.Rank, Connected: t.Connected}
		if v, ok := g.Attr(t.Node, "name"); ok {
			entry.Name = v.Str()
		}
		resp.TopK = append(resp.TopK, entry)
	}
	if withDot {
		var dot jsonBuilder
		rg := match.BuildResultGraph(g, q, res.Relation)
		if err := viz.WriteTopK(&dot, g, rg, res.TopK, viz.Options{}); err == nil {
			resp.ResultDOT = dot.String()
		}
	}
	return resp
}

func encodeJSON(t *testing.T, v any) string {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(v); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEnvelopeEqualsEncodingJSON: for random answers, the hand-written
// envelope is byte for byte what json.Encoder writes for api.QueryResponse
// and api.BatchResponse. Names need escaping (HTML characters, quotes,
// control bytes, non-ASCII, U+2028), match sets are empty, top-K is nil,
// empty or full with ranks at the float format's cut-offs, and DOT, the
// trace and failed batch entries appear.
func TestEnvelopeEqualsEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"Bob", "<b>", "a&b", `q"t`, `back\slash`, "Zoë", "名前", "line\u2028sep", "\u2029", "\t\n", "\x01", " "}
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(3); n >= 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	const nodes = 40
	g := graph.New(nodes)
	for i := 0; i < nodes; i++ {
		attrs := graph.Attrs{"name": graph.String(word())}
		switch i % 5 {
		case 0:
			attrs = nil // no display name
		case 1:
			attrs["name"] = graph.String("") // an empty one, omitted
		}
		g.AddNode(word(), attrs)
	}
	for i := 0; i < 3*nodes; i++ {
		_ = g.AddEdge(graph.NodeID(rng.Intn(nodes)), graph.NodeID(rng.Intn(nodes)))
	}
	ranks := []float64{0, 1e-7, 1e21, 1.0 / 3, 2.5, -4, 1e-300}
	answer := func() (*pattern.Pattern, *engine.Result, bool) {
		q := pattern.New()
		for n := 1 + rng.Intn(4); n > 0; n-- {
			_, _ = q.AddNode(word(), pattern.Predicate{})
		}
		_ = q.SetOutput(0)
		rel := match.NewRelation(q.NumNodes())
		for u := 0; u < q.NumNodes(); u++ {
			for k := rng.Intn(3) * rng.Intn(8); k > 0; k-- {
				rel.Add(pattern.NodeIdx(u), graph.NodeID(rng.Intn(nodes)))
			}
		}
		rel.Freeze()
		res := &engine.Result{
			Relation: rel,
			Matches:  rel.AppendJSON(nil, q),
			Plan:     engine.Plan(word()),
			Source:   engine.Source(word()),
			Elapsed:  time.Duration(rng.Int63n(int64(time.Hour))),
		}
		switch rng.Intn(3) {
		case 0: // nil top-K
		case 1:
			res.TopK = []rank.Ranked{}
		default:
			for k := 1 + rng.Intn(5); k > 0; k-- {
				res.TopK = append(res.TopK, rank.Ranked{
					Node:      graph.NodeID(rng.Intn(nodes)),
					Rank:      ranks[rng.Intn(len(ranks))] * float64(1+rng.Intn(3)),
					Connected: rng.Intn(9),
				})
			}
		}
		return q, res, rng.Intn(4) == 0
	}
	traceOf := func() *trace.TraceJSON {
		if rng.Intn(2) == 0 {
			return nil
		}
		return &trace.TraceJSON{
			ID: word(), Name: "query", Start: time.Unix(rng.Int63n(1<<32), rng.Int63n(1e9)).UTC(), DurationUS: rng.Int63n(1e6),
			Root: &trace.SpanJSON{Name: "route", DurationUS: 7, Attrs: map[string]any{"graph": word(), "k": int64(3)},
				Children: []*trace.SpanJSON{{Name: "engine.query", StartUS: 1, DurationUS: 5}}},
		}
	}
	for i := 0; i < 500; i++ {
		q, res, withDot := answer()
		tr := traceOf()
		want := referenceResponse(g, q, res, withDot)
		want.Trace = tr
		got, err := closeResponse(appendQueryResponse(nil, g, q, res, withDot), tr)
		if err != nil {
			t.Fatal(err)
		}
		if w := encodeJSON(t, want); string(got) != w {
			t.Fatalf("response %d:\ngot  %s\nwant %s", i, got, w)
		}

		n := 1 + rng.Intn(4)
		rendered, errs := make([][]byte, n), make([]string, n)
		batch := api.BatchResponse{Results: make([]api.BatchEntry, n), Trace: traceOf()}
		for j := range rendered {
			if rng.Intn(3) == 0 {
				errs[j] = "graph " + word() + " not found"
				batch.Results[j].Error = errs[j]
				continue
			}
			q, res, _ := answer()
			rendered[j] = appendQueryResponse(nil, g, q, res, false)
			batch.Results[j].QueryResponse = referenceResponse(g, q, res, false)
		}
		gotBatch, err := batchResponse(rendered, errs, batch.Trace)
		if err != nil {
			t.Fatal(err)
		}
		if w := encodeJSON(t, batch); string(gotBatch) != w {
			t.Fatalf("batch %d:\ngot  %s\nwant %s", i, gotBatch, w)
		}
	}
}

// TestUnconnectedMatchRanksNull: a pattern with no edges leaves every
// match connected to nothing, which ranks +Inf. encoding/json refuses
// +Inf; the response writes that rank as null (connected 0) and still
// answers 200 with a body, on the single endpoint and in a batch, by the
// default ranking and by closeness.
func TestUnconnectedMatchRanksNull(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	const dsl = `node SA [label = "SA"] output`
	check := func(what string, top []map[string]any) {
		t.Helper()
		if len(top) == 0 {
			t.Fatalf("%s: no top-k entries", what)
		}
		for _, e := range top {
			if r, ok := e["rank"]; !ok || r != nil || e["connected"] != float64(0) {
				t.Fatalf("%s: entry %v, want rank null and connected 0", what, e)
			}
		}
	}
	for _, metric := range []string{"", "closeness"} {
		for range 2 { // the miss, then the hit
			resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query", map[string]any{"dsl": dsl, "k": 3, "metric": metric})
			var out struct {
				TopK []map[string]any `json:"top_k"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &out) != nil {
				t.Fatalf("metric %q: %d with %d-byte body %q", metric, resp.StatusCode, len(body), body)
			}
			check("query metric="+metric, out.TopK)

			resp, body = do(t, "POST", ts.URL+"/api/v1/query/batch", map[string]any{"queries": []map[string]any{
				{"graph": "paper", "dsl": dsl, "k": 3, "metric": metric}, {"graph": "nope", "dsl": dsl},
			}})
			var batch struct {
				Results []struct {
					TopK  []map[string]any `json:"top_k"`
					Error string           `json:"error"`
				} `json:"results"`
			}
			if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &batch) != nil || len(batch.Results) != 2 {
				t.Fatalf("batch metric %q: %d with %d-byte body %q", metric, resp.StatusCode, len(body), body)
			}
			check("batch metric="+metric, batch.Results[0].TopK)
			if batch.Results[1].Error == "" {
				t.Fatalf("batch metric %q: the query on a missing graph did not fail: %s", metric, body)
			}
		}
	}
}

// TestWriteJSONRefusedBodyIs500: a body encoding/json refuses is a 500
// error envelope, not a 200 with nothing after the header.
func TestWriteJSONRefusedBodyIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	writeJSON(rec, http.StatusOK, map[string]float64{"rank": math.Inf(1)})
	var env api.ErrorEnvelope
	if rec.Code != http.StatusInternalServerError || json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != api.CodeInternal {
		t.Fatalf("got %d %q, want 500 with the %s envelope", rec.Code, rec.Body, api.CodeInternal)
	}
}
