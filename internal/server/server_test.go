package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Engine) {
	t.Helper()
	eng := engine.New(engine.Options{})
	ts := httptest.NewServer(New(eng))
	t.Cleanup(ts.Close)
	return ts, eng
}

func do(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd *bytes.Reader
	switch b := body.(type) {
	case nil:
		rd = bytes.NewReader(nil)
	case string:
		rd = bytes.NewReader([]byte(b))
	default:
		data, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func uploadPaperGraph(t *testing.T, ts *httptest.Server) {
	t.Helper()
	g, _ := dataset.PaperGraph()
	gj, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper",
		fmt.Sprintf(`{"graph": %s}`, gj))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create graph: %d %s", resp.StatusCode, body)
	}
}

func TestGraphCRUD(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	resp, body := do(t, "GET", ts.URL+"/api/v1/graphs", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"paper"`) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	resp, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["nodes"].(float64) != 10 {
		t.Errorf("stats nodes = %v, want 10", stats["nodes"])
	}

	resp, _ = do(t, "GET", ts.URL+"/api/v1/graphs/paper", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("get graph: %d", resp.StatusCode)
	}

	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after delete: %d", resp.StatusCode)
	}
}

func TestDuplicateGraphConflicts(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	g, _ := dataset.PaperGraph()
	gj, _ := g.MarshalJSON()
	resp, _ := do(t, "POST", ts.URL+"/api/v1/graphs/paper", fmt.Sprintf(`{"graph": %s}`, gj))
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("duplicate create: %d, want 409", resp.StatusCode)
	}
}

func TestGeneratedGraph(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/synth",
		`{"generator": {"kind": "collab", "nodes": 200, "avg_degree": 4, "seed": 1}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("generate: %d %s", resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out["nodes"].(float64) != 200 {
		t.Errorf("generated nodes = %v", out["nodes"])
	}
	// Unknown generator kind is a 400.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/bad",
		`{"generator": {"kind": "nope", "nodes": 10}}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad generator: %d", resp.StatusCode)
	}
}

// TestQueryViaDSL answers the paper query with DOT twice: the miss and
// the hit, which rebuilds the result graph from the cached relation, draw
// the same bytes.
func TestQueryViaDSL(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	req := map[string]any{"dsl": dataset.PaperQueryDSL, "k": 1}
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query?dot=1", req)
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	resp, hitBody := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query?dot=1", req)
	var hit struct {
		Source    string `json:"source"`
		ResultDOT string `json:"result_dot"`
	}
	if resp.StatusCode != 200 || json.Unmarshal(hitBody, &hit) != nil || hit.Source != "cache" {
		t.Fatalf("repeat query: %d %s", resp.StatusCode, hitBody)
	}
	var out struct {
		Plan    string             `json:"plan"`
		Source  string             `json:"source"`
		Matches map[string][]int64 `json:"matches"`
		TopK    []struct {
			Name string  `json:"name"`
			Rank float64 `json:"rank"`
		} `json:"top_k"`
		ResultDOT string `json:"result_dot"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan != "bounded-simulation" {
		t.Errorf("plan = %q", out.Plan)
	}
	if len(out.Matches["SA"]) != 2 || len(out.Matches["SD"]) != 3 {
		t.Errorf("matches = %v", out.Matches)
	}
	if len(out.TopK) != 1 || out.TopK[0].Name != "Bob" {
		t.Errorf("topK = %v, want Bob", out.TopK)
	}
	if !strings.Contains(out.ResultDOT, "digraph Result") ||
		!strings.Contains(out.ResultDOT, "color=red") {
		t.Error("result DOT missing or lacks highlight")
	}
	if out.Source == "cache" || hit.ResultDOT != out.ResultDOT {
		t.Errorf("%s answer drew\n%s\nthe hit drew\n%s", out.Source, out.ResultDOT, hit.ResultDOT)
	}
}

func TestQueryViaJSONPattern(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	q := dataset.PaperQuery()
	pj, err := q.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		fmt.Sprintf(`{"pattern": %s, "k": 2}`, pj))
	if resp.StatusCode != 200 {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
}

func TestQueryErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	cases := []struct {
		body string
		want int
	}{
		{`{"dsl": "node A output", "k": 1}`, 200}, // trivial but valid
		{`{"dsl": "frobnicate", "k": 1}`, 400},
		{`{}`, 400},
		{`not even json`, 400},
	}
	for _, tc := range cases {
		resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("query %q: %d (%s), want %d", tc.body, resp.StatusCode, body, tc.want)
		}
	}
	resp, _ := do(t, "POST", ts.URL+"/api/v1/graphs/missing/query", `{"dsl": "node A output"}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("query on missing graph: %d", resp.StatusCode)
	}
}

func TestUpdateFlow(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	_, p := dataset.PaperGraph()

	// Register the paper query, apply e1, check the delta counts.
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/register",
		map[string]any{"dsl": dataset.PaperQueryDSL})
	if resp.StatusCode != 200 {
		t.Fatalf("register: %d %s", resp.StatusCode, body)
	}
	e1 := dataset.E1(p)
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/paper/updates", map[string]any{
		"ops": []map[string]any{{"op": "insert", "from": e1.From, "to": e1.To}},
	})
	if resp.StatusCode != 200 {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Applied int `json:"applied"`
		Deltas  []struct {
			Added   int `json:"added"`
			Removed int `json:"removed"`
		} `json:"deltas"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Applied != 1 || len(out.Deltas) != 1 || out.Deltas[0].Added != 1 || out.Deltas[0].Removed != 0 {
		t.Errorf("update response = %+v, want 1 applied, 1 added", out)
	}
	// Bad op rejected.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/paper/updates",
		`{"ops": [{"op": "frob", "from": 0, "to": 1}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad op: %d", resp.StatusCode)
	}
}

func TestCompressEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/compress",
		`{"scheme": "simulation-equivalence", "view": []}`)
	if resp.StatusCode != 200 {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Scheme string  `json:"scheme"`
		Nodes  int     `json:"nodes"`
		Ratio  float64 `json:"ratio"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Nodes >= 10 || out.Ratio <= 0 {
		t.Errorf("compression did not shrink: %+v", out)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/compress", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("drop compression: %d", resp.StatusCode)
	}
	// Unknown scheme.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/paper/compress", `{"scheme": "zip"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad scheme: %d", resp.StatusCode)
	}
}

// TestQuotientVisibleUntilTheCut: a collaboration graph's quotient pays,
// so GET .../stats lists it and queries read it; the benchmark's write
// stream takes it past the cut, after which it is gone from the stats and
// the same query answers directly. Throughout, the matches equal those of
// a twin graph that never had a quotient.
func TestQuotientVisibleUntilTheCut(t *testing.T) {
	ts, _ := newTestServer(t)
	const gen = `{"generator": {"kind": "collab", "nodes": 200, "avg_degree": 8, "seed": 1}}`
	for _, name := range []string{"gc", "g"} {
		if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/"+name, gen); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", name, resp.StatusCode, body)
		}
	}
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/gc/compress", `{"view": ["experience"]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("compress: %d %s", resp.StatusCode, body)
	}
	listed := func() bool {
		t.Helper()
		_, body := do(t, "GET", ts.URL+"/api/v1/graphs/gc/stats", nil)
		var st struct {
			Compressed *api.CompressResponse `json:"compressed"`
		}
		if err := json.Unmarshal(body, &st); err != nil {
			t.Fatal(err)
		}
		return st.Compressed != nil
	}
	// check queries both graphs and returns gc's source.
	check := func(stage string) string {
		t.Helper()
		var out [2]api.QueryResponse
		for i, name := range []string{"gc", "g"} {
			_, body := do(t, "POST", ts.URL+"/api/v1/graphs/"+name+"/query", map[string]any{"dsl": dataset.PaperQueryDSL})
			if err := json.Unmarshal(body, &out[i]); err != nil {
				t.Fatal(err)
			}
		}
		if out[1].Source != "direct" || len(out[1].Matches) == 0 || !reflect.DeepEqual(out[0].Matches, out[1].Matches) {
			t.Fatalf("%s: gc answered %v from %s, g %v from %s", stage, out[0].Matches, out[0].Source, out[1].Matches, out[1].Source)
		}
		return out[0].Source
	}
	if !listed() || check("after compress") != "compressed" {
		t.Fatal("after compress: the quotient is not listed or not read")
	}
	replica, err := generator.Collaboration(generator.Config{Nodes: 200, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	writes := testutil.NewEdgeStream(replica, 3)
	for batch := 1; listed(); batch++ {
		if batch > 1000 {
			t.Fatal("the quotient still pays after 1,000 batches")
		}
		var req api.UpdateRequest
		for _, op := range writes.Batch(16) {
			req.Ops = append(req.Ops, api.UpdateOp{Op: map[bool]string{true: "insert", false: "delete"}[op.Insert], From: int64(op.From), To: int64(op.To)})
		}
		for _, name := range []string{"gc", "g"} {
			if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/"+name+"/updates", req); resp.StatusCode != http.StatusOK {
				t.Fatalf("batch %d on %s: %d %s", batch, name, resp.StatusCode, body)
			}
		}
	}
	if src := check("past the cut"); src != "direct" {
		t.Fatalf("past the cut: gc answered from %s, want direct", src)
	}
}

func TestDOTEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	resp, body := do(t, "GET", ts.URL+"/api/v1/graphs/paper/dot?drilldown=1", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("dot: %d", resp.StatusCode)
	}
	s := string(body)
	if !strings.Contains(s, "digraph G") || !strings.Contains(s, "Bob") ||
		!strings.Contains(s, "experience") {
		t.Errorf("dot output incomplete: %.200s", s)
	}
}

func TestQueryDualSemantics(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "k": 2, "semantics": "dual"})
	if resp.StatusCode != 200 {
		t.Fatalf("dual query: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Plan    string             `json:"plan"`
		Matches map[string][]int64 `json:"matches"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Plan != "dual-simulation" {
		t.Errorf("plan = %q", out.Plan)
	}
	// Dual is a subset: still matches Fig. 1's SAs.
	if len(out.Matches["SA"]) == 0 {
		t.Errorf("dual matches = %v", out.Matches)
	}
	// Unknown semantics rejected.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "semantics": "psychic"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad semantics: %d", resp.StatusCode)
	}
}

func TestQueryMetricSelection(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	for _, metric := range []string{"", "avg-distance", "closeness", "degree", "pagerank"} {
		resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
			map[string]any{"dsl": dataset.PaperQueryDSL, "k": 1, "metric": metric})
		if resp.StatusCode != 200 {
			t.Fatalf("metric %q: %d %s", metric, resp.StatusCode, body)
		}
		var out struct {
			TopK []struct {
				Name string `json:"name"`
			} `json:"top_k"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		// Bob wins under every built-in metric on Fig. 1.
		if len(out.TopK) != 1 || out.TopK[0].Name != "Bob" {
			t.Errorf("metric %q top-1 = %v, want Bob", metric, out.TopK)
		}
	}
	resp, _ := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query",
		map[string]any{"dsl": dataset.PaperQueryDSL, "metric": "astrology"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad metric: %d", resp.StatusCode)
	}
}

func TestNodeEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	// Add a senior SA.
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/nodes",
		`{"label": "SA", "attrs": {"name": {"kind":"string","s":"Zed"}, "experience": {"kind":"int","i":9}}}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("add node: %d %s", resp.StatusCode, body)
	}
	var created map[string]int64
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	id := created["id"]

	// Update their experience.
	resp, body = do(t, "POST", fmt.Sprintf("%s/api/v1/graphs/paper/nodes/%d/attrs", ts.URL, id),
		`{"experience": {"kind":"int","i":12}}`)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("set attrs: %d %s", resp.StatusCode, body)
	}

	// Remove them.
	resp, _ = do(t, "DELETE", fmt.Sprintf("%s/api/v1/graphs/paper/nodes/%d", ts.URL, id), nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("remove node: %d", resp.StatusCode)
	}
	// Double-remove is a 404.
	resp, _ = do(t, "DELETE", fmt.Sprintf("%s/api/v1/graphs/paper/nodes/%d", ts.URL, id), nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("double remove: %d", resp.StatusCode)
	}
	// Bad id is a 400.
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/nodes/banana", nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad id: %d", resp.StatusCode)
	}
	// Graph is intact.
	resp, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatal("stats after node ops")
	}
	var stats map[string]any
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats["nodes"].(float64) != 10 {
		t.Errorf("nodes = %v, want 10 after add+remove", stats["nodes"])
	}
}

func TestCacheStatsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	req := map[string]any{"dsl": dataset.PaperQueryDSL, "k": 1}
	do(t, "POST", ts.URL+"/api/v1/graphs/paper/query", req)
	do(t, "POST", ts.URL+"/api/v1/graphs/paper/query", req)
	resp, body := do(t, "GET", ts.URL+"/api/v1/cache/stats", nil)
	if resp.StatusCode != 200 {
		t.Fatalf("cache stats: %d", resp.StatusCode)
	}
	var st map[string]int
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st["hits"] < 1 {
		t.Errorf("cache stats = %v, want at least one hit", st)
	}
}

func TestQueryBatchEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	req := map[string]any{"queries": []map[string]any{
		{"graph": "paper", "dsl": dataset.PaperQueryDSL, "k": 1},
		{"graph": "missing", "dsl": dataset.PaperQueryDSL, "k": 1},
		{"graph": "paper", "dsl": "node broken ["},
		{"graph": "paper", "dsl": dataset.PaperQueryDSL, "k": 2, "metric": "degree"},
		{"graph": "paper", "dsl": dataset.PaperQueryDSL, "k": 1, "semantics": "dual"},
		{"graph": "paper", "dsl": dataset.PaperQueryDSL, "semantics": "psychic"},
	}}
	resp, body := do(t, "POST", ts.URL+"/api/v1/query/batch", req)
	if resp.StatusCode != 200 {
		t.Fatalf("batch: %d %s", resp.StatusCode, body)
	}
	var out struct {
		Results []struct {
			Plan    string             `json:"plan"`
			Matches map[string][]int64 `json:"matches"`
			TopK    []struct {
				Name string `json:"name"`
			} `json:"top_k"`
			Error string `json:"error"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 6 {
		t.Fatalf("results = %d, want 6", len(out.Results))
	}
	if out.Results[0].Error != "" || out.Results[0].Plan != "bounded-simulation" {
		t.Errorf("result 0 = %+v", out.Results[0])
	}
	if len(out.Results[0].TopK) != 1 || out.Results[0].TopK[0].Name != "Bob" {
		t.Errorf("result 0 topK = %v, want Bob", out.Results[0].TopK)
	}
	if !strings.Contains(out.Results[1].Error, "no such graph") {
		t.Errorf("result 1 error = %q, want no such graph", out.Results[1].Error)
	}
	if out.Results[2].Error == "" {
		t.Error("result 2: bad DSL did not error")
	}
	if out.Results[3].Error != "" || len(out.Results[3].TopK) != 2 {
		t.Errorf("result 3 = %+v", out.Results[3])
	}
	// One bounded and one dual entry in the same batch: each its own plan
	// and relation (Dan and Mat have no ST ancestor within one hop).
	if d := out.Results[4]; d.Error != "" || d.Plan != "dual-simulation" || len(d.Matches["SD"]) != 1 || len(out.Results[0].Matches["SD"]) != 3 {
		t.Errorf("result 4 (dual) = %+v beside result 0 (bounded) = %+v", d, out.Results[0])
	}
	if !strings.Contains(out.Results[5].Error, "unknown semantics") {
		t.Errorf("result 5 error = %q, want unknown semantics", out.Results[5].Error)
	}
}

func TestQueryBatchEndpointRejectsEmpty(t *testing.T) {
	ts, _ := newTestServer(t)
	resp, _ := do(t, "POST", ts.URL+"/api/v1/query/batch", map[string]any{"queries": []any{}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty batch: %d, want 400", resp.StatusCode)
	}
}

func TestIndexEndpoints(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	// No index yet: stats 404.
	resp, _ := do(t, "GET", ts.URL+"/api/v1/graphs/paper/index", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats before build: %d", resp.StatusCode)
	}

	// Build (empty body -> complete index).
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/index", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("build index: %d %s", resp.StatusCode, body)
	}
	var st struct {
		Landmarks int  `json:"landmarks"`
		Complete  bool `json:"complete"`
		Fresh     bool `json:"fresh"`
		Entries   int  `json:"entries"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Complete || !st.Fresh || st.Landmarks != 10 || st.Entries == 0 {
		t.Fatalf("implausible index stats: %s", body)
	}

	// No query reads the index: a bounded query answers as on a bare graph.
	sameAnswerAsBareGraph(t, ts, dataset.PaperQueryDSL)

	// Graph stats embed the index stats.
	resp, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("graph stats: %d", resp.StatusCode)
	}
	var gs map[string]any
	if err := json.Unmarshal(body, &gs); err != nil {
		t.Fatal(err)
	}
	if _, ok := gs["index"]; !ok {
		t.Fatalf("graph stats missing index block: %s", body)
	}

	// Partial build replaces the index.
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/paper/index", `{"landmarks": 3}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial build: %d %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Complete || st.Landmarks != 3 {
		t.Fatalf("partial index stats: %s", body)
	}

	// Drop; stats 404 again; double drop 404.
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/index", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/api/v1/graphs/paper/index", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stats after drop: %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/index", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double drop: %d", resp.StatusCode)
	}

	// Unknown graph: 404.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/nope/index", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("build on unknown graph: %d", resp.StatusCode)
	}
}

// sameAnswerAsBareGraph posts a bounded query to ts's paper graph and to a
// fresh server holding the bare paper graph, and requires the same
// response body, plan and source included, with elapsed_us zeroed.
func sameAnswerAsBareGraph(t *testing.T, ts *httptest.Server, dsl string) {
	t.Helper()
	bare, _ := newTestServer(t)
	uploadPaperGraph(t, bare)
	var bodies [2]string
	for i, srv := range []*httptest.Server{ts, bare} {
		resp, body := do(t, "POST", srv.URL+"/api/v1/graphs/paper/query", map[string]any{"dsl": dsl, "k": 3})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %s", resp.StatusCode, body)
		}
		bodies[i] = string(elapsedRE.ReplaceAll(body, []byte(`"elapsed_us":0`)))
	}
	if bodies[0] != bodies[1] {
		t.Fatalf("answer with the structure attached:\n%s\nwant the bare graph's:\n%s", bodies[0], bodies[1])
	}
	if !strings.Contains(bodies[0], `"source":"direct"`) {
		t.Fatalf("answer not evaluated on the kernel: %s", bodies[0])
	}
}

// TestIndexSurvivesUpdateFlow: an update answers as usual with an index
// attached and detaches it — GET …/index is 404 index_not_found and the
// graph stats list no index — until a re-POST rebuilds it.
func TestIndexSurvivesUpdateFlow(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/index", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/updates",
		`{"ops": [{"op": "insert", "from": 7, "to": 6}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/index", nil)
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), `"index_not_found"`) {
		t.Fatalf("index after an insert: %d %s, want 404 index_not_found", resp.StatusCode, body)
	}
	if _, body := do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil); strings.Contains(string(body), `"index"`) {
		t.Fatalf("graph stats list a detached index: %s", body)
	}
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/index", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("rebuild: %d %s", resp.StatusCode, body)
	}
	var st struct {
		Fresh   bool   `json:"fresh"`
		Version uint64 `json:"graph_version"`
	}
	_, body = do(t, "GET", ts.URL+"/api/v1/graphs/paper/index", nil)
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Fresh || st.Version == 0 {
		t.Fatalf("rebuilt index: %s", body)
	}
}

// TestConcurrentGraphStatsIsOneSnapshot: GET …/stats renders one read of
// the graph. While a writer streams edge batches, every body's version
// and counts must equal those of the statistics it embeds.
func TestConcurrentGraphStatsIsOneSnapshot(t *testing.T) {
	ts, eng := newTestServer(t)
	uploadPaperGraph(t, ts)
	stop := make(chan struct{})
	done := make(chan int)
	go func() {
		batches := [2][]graph.Update{{graph.Insert(7, 6)}, {graph.Delete(7, 6)}}
		n := 0
		for ; ; n++ {
			select {
			case <-stop:
				done <- n
				return
			default:
			}
			if _, err := eng.ApplyUpdates("paper", batches[n%2]); err != nil {
				t.Error(err)
				done <- n
				return
			}
		}
	}()
	type counts struct {
		Nodes int `json:"nodes"`
		Edges int `json:"edges"`
	}
	var body struct {
		counts
		Version    uint64 `json:"version"`
		Statistics struct {
			counts
			GraphVersion uint64 `json:"graph_version"`
		} `json:"statistics"`
	}
	torn, bad := 0, ""
	for i := 0; i < 200 && bad == ""; i++ {
		resp, raw := do(t, "GET", ts.URL+"/api/v1/graphs/paper/stats", nil)
		if resp.StatusCode != http.StatusOK || json.Unmarshal(raw, &body) != nil {
			bad = fmt.Sprintf("stats: %d %s", resp.StatusCode, raw)
		} else if body.Version != body.Statistics.GraphVersion || body.counts != body.Statistics.counts {
			torn++
		}
	}
	close(stop)
	writes := <-done
	if bad != "" {
		t.Fatal(bad)
	}
	if writes == 0 {
		t.Fatal("the writer applied no batch while the reads ran")
	}
	if torn > 0 {
		t.Fatalf("%d of 200 stats bodies mix graph versions", torn)
	}
}

// TestQueryDualSemanticsIndexed: a distance index does not change how a
// dual query is answered — same matches and top-K before and after
// POST …/index, from source "direct" or "cache". The repeat right after the build
// is a hit (an index is not a write); the insert that follows bumps the
// graph version, so the last query is evaluated again on the kernel.
func TestQueryDualSemanticsIndexed(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	dualReq := `{"dsl": "node SD [label = \"SD\"] output\nnode BA [label = \"BA\"]\nedge SD -> BA bound 2", "semantics": "dual", "k": 3}`
	ask := func(wantSource string) api.QueryResponse {
		t.Helper()
		resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/query", dualReq)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("dual query: %d %s", resp.StatusCode, body)
		}
		var out api.QueryResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Plan != string(engine.PlanDual) || out.Source != wantSource {
			t.Fatalf("dual plan/source = %s/%s, want dual-simulation/%s", out.Plan, out.Source, wantSource)
		}
		return out
	}
	direct := ask("direct")
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/index", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("build: %d %s", resp.StatusCode, body)
	}
	answers := []api.QueryResponse{ask("cache")}
	// Bill (GD) -> Tess (ST): neither matches the pattern, so the answer
	// stays.
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/updates",
		`{"ops": [{"op": "insert", "from": 2, "to": 9}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("insert: %d %s", resp.StatusCode, body)
	}
	answers = append(answers, ask("direct"))
	for i, got := range answers {
		if fmt.Sprintf("%v", got.Matches) != fmt.Sprintf("%v", direct.Matches) ||
			fmt.Sprintf("%v", got.TopK) != fmt.Sprintf("%v", direct.TopK) {
			t.Fatalf("dual answer %d after the index was built differs:\n%v\nvs\n%v", i, got, direct)
		}
	}
}
