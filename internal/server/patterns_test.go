package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// serve sends one request through s and returns the recorder; safe to
// call from any goroutine.
func serve(s *Server, method, path string, body any) *httptest.ResponseRecorder {
	data, err := json.Marshal(body)
	if err != nil {
		panic(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(data)))
	return rec
}

// answerOf is the part of a query answer that depends on the pattern
// alone: its matches and ranking (plan, source and timing do not).
type answerOf struct {
	Matches map[string][]int64 `json:"matches"`
	TopK    []api.TopEntry     `json:"top_k"`
}

// TestPatternMemoConcurrentRoutesParseOnce sends one DSL text through
// /query, /query/batch, /register and /subscribe from many goroutines at
// once (run it under -race: every request shares the one frozen
// pattern). The memo parses the text once, and every answer equals the
// one a freshly parsed pattern gets.
func TestPatternMemoConcurrentRoutesParseOnce(t *testing.T) {
	// Enough execution slots and queue that no request is shed.
	s := New(engine.New(engine.Options{Parallelism: 16}))
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	uploadPaperGraph(t, ts)
	dsl := dataset.PaperQueryDSL

	fresh, err := pattern.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	var wantBody []byte
	if _, err := s.eng.Execute(context.Background(), engine.QueryRequest{
		Graph: "paper", Pattern: fresh, K: 3,
		Render: func(g *graph.Graph, res *engine.Result) {
			wantBody, _ = closeResponse(appendQueryResponse(nil, g, fresh, res, false), nil)
		},
	}); err != nil {
		t.Fatal(err)
	}
	var want answerOf
	if err := json.Unmarshal(wantBody, &want); err != nil {
		t.Fatal(err)
	}
	wantHash := fresh.Hash()

	const rounds = 8
	batch := api.BatchRequest{Queries: []api.BatchQuery{
		{Graph: "paper", DSL: dsl, K: 3}, {Graph: "paper", DSL: dsl, K: 3},
	}}
	requests := []struct {
		path  string
		body  any
		code  int
		check func(body []byte) error
	}{
		{"/api/v1/graphs/paper/query", api.QueryRequest{DSL: dsl, K: 3}, http.StatusOK, func(body []byte) error {
			var got answerOf
			if err := json.Unmarshal(body, &got); err != nil || !reflect.DeepEqual(got, want) {
				return fmt.Errorf("query answered %s (%v)", body, err)
			}
			return nil
		}},
		{"/api/v1/query/batch", batch, http.StatusOK, func(body []byte) error {
			var got struct{ Results []answerOf }
			if err := json.Unmarshal(body, &got); err != nil || len(got.Results) != 2 ||
				!reflect.DeepEqual(got.Results[0], want) || !reflect.DeepEqual(got.Results[1], want) {
				return fmt.Errorf("batch answered %s (%v)", body, err)
			}
			return nil
		}},
		{"/api/v1/graphs/paper/register", api.QueryRequest{DSL: dsl}, http.StatusOK, func(body []byte) error {
			var got api.RegisterResponse
			if err := json.Unmarshal(body, &got); err != nil || got.Registered != wantHash {
				return fmt.Errorf("register answered %s (%v), want hash %s", body, err, wantHash)
			}
			return nil
		}},
		{"/api/v1/graphs/paper/subscriptions", api.SubscribeRequest{DSL: dsl, K: 3}, http.StatusCreated, func(body []byte) error {
			var got api.SubscribeResponse
			if err := json.Unmarshal(body, &got); err != nil || got.PatternHash != wantHash {
				return fmt.Errorf("subscribe answered %s (%v), want hash %s", body, err, wantHash)
			}
			return nil
		}},
	}

	var wg sync.WaitGroup
	errs := make(chan error, rounds*len(requests))
	for i := 0; i < rounds; i++ {
		for _, rq := range requests {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := serve(s, http.MethodPost, rq.path, rq.body)
				if rec.Code != rq.code {
					errs <- fmt.Errorf("POST %s: %d %s", rq.path, rec.Code, rec.Body)
					return
				}
				if err := rq.check(rec.Body.Bytes()); err != nil {
					errs <- err
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	parses := rounds * (len(requests) + len(batch.Queries) - 1)
	if m, h := s.patterns.misses.Load(), s.patterns.hits.Load(); m != 1 || h != int64(parses-1) {
		t.Errorf("memo misses %d, hits %d; want 1 and %d", m, h, parses-1)
	}
	_, body := do(t, "GET", ts.URL+"/metrics", nil)
	for _, line := range []string{
		"expfinder_pattern_memo_entries 1\n",
		"expfinder_pattern_memo_misses 1\n",
		fmt.Sprintf("expfinder_pattern_memo_hits %d\n", parses-1),
	} {
		if !strings.Contains(string(body), line) {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestPatternMemoStaysWithinBound: ten times the memo's bound in distinct
// texts leaves it holding at most its bound, the texts still answer, and
// a text longer than the length cap is parsed every time and never kept.
func TestPatternMemoStaysWithinBound(t *testing.T) {
	_, s := newConfiguredServer(t, Config{})
	ctx := context.Background()
	for i := 0; i < 10*patternMemoEntries; i++ {
		dsl := fmt.Sprintf(`node A [experience >= %d] output`, i)
		q, err := s.parsePattern(ctx, dsl, nil)
		if err != nil {
			t.Fatal(err)
		}
		if q.Node(0).Pred.String() != fmt.Sprintf("[experience >= %d]", i) {
			t.Fatalf("text %d answered %s", i, q)
		}
		if n := s.patterns.len(); n > patternMemoEntries {
			t.Fatalf("after %d texts the memo holds %d entries, bound %d", i+1, n, patternMemoEntries)
		}
	}
	if n := s.patterns.len(); n != patternMemoEntries {
		t.Errorf("memo holds %d entries, want its bound %d", n, patternMemoEntries)
	}

	long := "node A output\n" + strings.Repeat("# padding\n", patternMemoMaxText/10)
	misses := s.patterns.misses.Load()
	for i := 0; i < 2; i++ {
		q, err := s.parsePattern(ctx, long, nil)
		if err != nil || q.NumNodes() != 1 {
			t.Fatalf("long text: %v, %v", q, err)
		}
	}
	if got := s.patterns.misses.Load() - misses; got != 2 {
		t.Errorf("a text over the length cap was parsed %d times in 2 requests", got)
	}
	s.patterns.mu.Lock()
	_, kept := s.patterns.entries[patternKey{text: long}]
	s.patterns.mu.Unlock()
	if kept {
		t.Error("the memo kept a text over its length cap")
	}
}

// TestPatternMemoRejectsInvalidEveryTime: a parse error is not memoised,
// so an invalid DSL is parsed again and rejected with the same 400 on
// every request, and the memo keeps nothing for it. The JSON form of a
// pattern and the same bytes sent as DSL do not share an entry.
func TestPatternMemoRejectsInvalidEveryTime(t *testing.T) {
	ts, s := newConfiguredServer(t, Config{})
	uploadPaperGraph(t, ts)
	var first string
	for i := 0; i < 3; i++ {
		rec := serve(s, http.MethodPost, "/api/v1/graphs/paper/query", api.QueryRequest{DSL: "node A [experience >=] output"})
		if rec.Code != http.StatusBadRequest || decodeEnvelope(t, rec.Body.Bytes()).Error.Code != api.CodeInvalidPattern {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body)
		}
		if i == 0 {
			first = rec.Body.String()
		} else if rec.Body.String() != first {
			t.Errorf("request %d answered %s, the first %s", i, rec.Body, first)
		}
	}
	if m, n := s.patterns.misses.Load(), s.patterns.len(); m != 3 || n != 0 {
		t.Errorf("memo misses %d, entries %d; want 3 and 0", m, n)
	}

	pj, err := dataset.PaperQuery().MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if rec := serve(s, http.MethodPost, "/api/v1/graphs/paper/query", api.QueryRequest{Pattern: pj, K: 1}); rec.Code != http.StatusOK {
		t.Fatalf("JSON pattern: %d %s", rec.Code, rec.Body)
	}
	if rec := serve(s, http.MethodPost, "/api/v1/graphs/paper/query", api.QueryRequest{DSL: string(pj), K: 1}); rec.Code != http.StatusBadRequest {
		t.Errorf("the JSON form sent as DSL: %d %s, want 400", rec.Code, rec.Body)
	}
}

// TestPatternMemoTrace: a traced miss records pattern_memo "miss" on its
// root and opens a pattern.parse span under it; a traced hit records
// "hit" and parses nothing.
func TestPatternMemoTrace(t *testing.T) {
	ts := synthServer(t, "", "")
	for _, want := range []string{"miss", "hit"} {
		tj := queryWithTrace(t, ts).Trace
		if got := tj.Root.Str("pattern_memo"); got != want {
			t.Errorf("root pattern_memo = %q, want %q", got, want)
		}
		var parses int
		for _, sp := range tj.Root.Children {
			if sp.Name == "pattern.parse" {
				parses++
			}
		}
		if wantParses := map[string]int{"miss": 1, "hit": 0}[want]; parses != wantParses {
			t.Errorf("%s: %d pattern.parse spans under the root, want %d", want, parses, wantParses)
		}
	}
}
