package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"expfinder/internal/dataset"
)

const subDSL = `
node SA [label = "SA", experience >= 5] output
node SD [label = "SD", experience >= 2]
edge SA -> SD bound 2
`

func createSub(t *testing.T, tsURL string, body any) (id, eventsURL string) {
	t.Helper()
	resp, data := do(t, "POST", tsURL+"/api/v1/graphs/paper/subscriptions", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create subscription: %d %s", resp.StatusCode, data)
	}
	var out struct {
		ID        string `json:"id"`
		Hash      string `json:"pattern_hash"`
		EventsURL string `json:"events_url"`
	}
	if err := json.Unmarshal(data, &out); err != nil {
		t.Fatal(err)
	}
	if out.ID == "" || out.Hash == "" || out.EventsURL == "" {
		t.Fatalf("incomplete response: %s", data)
	}
	return out.ID, out.EventsURL
}

func TestSubscriptionLifecycle(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	id, _ := createSub(t, ts.URL, map[string]any{"dsl": subDSL})

	resp, body := do(t, "GET", ts.URL+"/api/v1/graphs/paper/subscriptions", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), fmt.Sprintf("%q", id)) {
		t.Fatalf("list: %d %s", resp.StatusCode, body)
	}

	// Updates report the subscription fan-out.
	resp, body = do(t, "POST", ts.URL+"/api/v1/graphs/paper/updates",
		`{"ops": [{"op": "insert", "from": 0, "to": 1}]}`)
	if resp.StatusCode != 200 {
		t.Fatalf("updates: %d %s", resp.StatusCode, body)
	}
	var upd struct {
		Notified int `json:"notified"`
	}
	if err := json.Unmarshal(body, &upd); err != nil {
		t.Fatal(err)
	}

	resp, body = do(t, "GET", ts.URL+"/api/v1/subscriptions/stats", nil)
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"subscriptions":1`) {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}

	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/subscriptions/"+id, nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/subscriptions/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete: %d", resp.StatusCode)
	}
}

func TestSubscriptionErrors(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	// Unknown graph.
	resp, _ := do(t, "POST", ts.URL+"/api/v1/graphs/nope/subscriptions",
		map[string]any{"dsl": subDSL})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown graph: %d", resp.StatusCode)
	}
	resp, _ = do(t, "GET", ts.URL+"/api/v1/graphs/nope/subscriptions", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("list unknown graph: %d", resp.StatusCode)
	}
	// Bad pattern.
	resp, _ = do(t, "POST", ts.URL+"/api/v1/graphs/paper/subscriptions",
		map[string]any{"dsl": "node ["})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad pattern: %d", resp.StatusCode)
	}
	// Subscription id pinned to its graph.
	id, _ := createSub(t, ts.URL, map[string]any{"dsl": subDSL})
	g, _ := dataset.PaperGraph()
	gj, _ := g.MarshalJSON()
	if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/other",
		fmt.Sprintf(`{"graph": %s}`, gj)); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create other: %d %s", resp.StatusCode, body)
	}
	resp, _ = do(t, "DELETE", ts.URL+"/api/v1/graphs/other/subscriptions/"+id, nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("cross-graph delete: %d", resp.StatusCode)
	}
}

// sseClient reads one SSE stream, delivering parsed events on a channel.
type sseFrame struct {
	event string
	data  string
}

func readSSE(t *testing.T, resp *http.Response, frames chan<- sseFrame) {
	t.Helper()
	sc := bufio.NewScanner(resp.Body)
	var cur sseFrame
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.event != "" {
				frames <- cur
			}
			cur = sseFrame{}
		}
	}
	close(frames)
}

func TestSubscriptionEventStream(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)

	id, eventsURL := createSub(t, ts.URL, map[string]any{"dsl": dataset.PaperQueryDSL, "k": 2})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+eventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("stream: %d %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	frames := make(chan sseFrame, 16)
	go readSSE(t, resp, frames)

	next := func() sseFrame {
		select {
		case fr, ok := <-frames:
			if !ok {
				t.Fatal("stream ended early")
			}
			return fr
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for SSE frame")
		}
		panic("unreachable")
	}

	// 1. The snapshot arrives first and matches the paper relation.
	fr := next()
	if fr.event != "snapshot" {
		t.Fatalf("first frame = %q, want snapshot", fr.event)
	}
	var snap struct {
		Seq   uint64             `json:"seq"`
		Pairs map[string][]int64 `json:"pairs"`
		TopK  []json.RawMessage  `json:"top_k"`
	}
	if err := json.Unmarshal([]byte(fr.data), &snap); err != nil {
		t.Fatalf("snapshot data %q: %v", fr.data, err)
	}
	total := 0
	for _, ids := range snap.Pairs {
		total += len(ids)
	}
	if total != 7 { // the paper's M(Q,G) has 7 pairs
		t.Fatalf("snapshot pairs = %v (total %d), want 7", snap.Pairs, total)
	}
	if len(snap.TopK) == 0 {
		t.Fatal("k=2 subscription snapshot missing top_k")
	}

	// 2. The Example 3 insertion streams the (SD, Fred) delta.
	g, p := dataset.PaperGraph()
	_ = g
	e1 := dataset.E1(p)
	resp2, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/updates",
		fmt.Sprintf(`{"ops": [{"op": "insert", "from": %d, "to": %d}]}`, e1.From, e1.To))
	if resp2.StatusCode != 200 {
		t.Fatalf("updates: %d %s", resp2.StatusCode, body)
	}
	if !strings.Contains(string(body), `"notified":1`) {
		t.Fatalf("update response missing fan-out: %s", body)
	}
	fr = next()
	if fr.event != "delta" {
		t.Fatalf("second frame = %q, want delta", fr.event)
	}
	var delta struct {
		Seq   uint64             `json:"seq"`
		Added map[string][]int64 `json:"added"`
	}
	if err := json.Unmarshal([]byte(fr.data), &delta); err != nil {
		t.Fatal(err)
	}
	if delta.Seq <= snap.Seq || len(delta.Added["SD"]) != 1 {
		t.Fatalf("delta = %s", fr.data)
	}

	// 3. Deleting the subscription ends the stream with a closed frame.
	if resp3, _ := do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/subscriptions/"+id, nil); resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp3.StatusCode)
	}
	fr = next()
	if fr.event != "closed" || !strings.Contains(fr.data, "closed") {
		t.Fatalf("terminal frame = %+v", fr)
	}
}

func TestSubscriptionStreamGraphRemoved(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	_, eventsURL := createSub(t, ts.URL, map[string]any{"dsl": subDSL})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+eventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan sseFrame, 16)
	go readSSE(t, resp, frames)
	<-frames // snapshot

	if resp2, _ := do(t, "DELETE", ts.URL+"/api/v1/graphs/paper", nil); resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("remove graph: %d", resp2.StatusCode)
	}
	select {
	case fr := <-frames:
		if fr.event != "closed" || !strings.Contains(fr.data, "graph-removed") {
			t.Fatalf("terminal frame = %+v", fr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stream did not close after graph removal")
	}
}

// TestSubscriptionStreamsNodeMutations: node-level mutations repair the
// standing query in place and publish at once, so an SSE subscriber sees
// the delta immediately instead of at the next edge batch.
func TestSubscriptionStreamsNodeMutations(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	_, eventsURL := createSub(t, ts.URL, map[string]any{"dsl": subDSL})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, "GET", ts.URL+eventsURL, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := make(chan sseFrame, 16)
	go readSSE(t, resp, frames)
	<-frames // snapshot: SA matches include Bob (node 0)

	// Removing Bob must stream a delta without any edge update arriving.
	if resp2, body := do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/nodes/0", nil); resp2.StatusCode != http.StatusNoContent {
		t.Fatalf("remove node: %d %s", resp2.StatusCode, body)
	}
	select {
	case fr := <-frames:
		if fr.event != "delta" || !strings.Contains(fr.data, `"removed"`) {
			t.Fatalf("frame after node removal = %+v", fr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("node removal did not stream a delta")
	}

	// Attribute churn that disqualifies Walt (node 1) also streams.
	if resp3, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper/nodes/1/attrs",
		`{"experience": {"kind": "int", "i": 0}}`); resp3.StatusCode != http.StatusNoContent {
		t.Fatalf("set attrs: %d %s", resp3.StatusCode, body)
	}
	select {
	case fr := <-frames:
		if fr.event != "delta" {
			t.Fatalf("frame after attr change = %+v", fr)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("attribute change did not stream a delta")
	}
}
