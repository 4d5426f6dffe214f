package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"testing"
	"time"

	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/subscribe"
	"expfinder/internal/testutil"
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

// TestStreamUnconnectedRankNull: a subscription whose pattern has no
// edges leaves every match connected to nothing, which ranks +Inf. The
// stream writes that rank as null, as /query does, and keeps running:
// deleting the subscription still ends it with a closed frame.
func TestStreamUnconnectedRankNull(t *testing.T) {
	ts, _ := newTestServer(t)
	uploadPaperGraph(t, ts)
	id, eventsURL := createSub(t, ts.URL, map[string]any{"dsl": `node SA [label = "SA"] output`, "k": 2})

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
	next := func() sseFrame {
		t.Helper()
		select {
		case fr, ok := <-frames:
			if !ok {
				t.Fatal("stream ended without a frame")
			}
			return fr
		case <-time.After(5 * time.Second):
			t.Fatal("timed out waiting for SSE frame")
		}
		panic("unreachable")
	}

	fr := next()
	var snap struct {
		TopK []map[string]any `json:"top_k"`
	}
	if fr.event != "snapshot" || json.Unmarshal([]byte(fr.data), &snap) != nil || len(snap.TopK) != 2 {
		t.Fatalf("first frame = %+v, want a snapshot with two top_k entries", fr)
	}
	for _, e := range snap.TopK {
		if r, ok := e["rank"]; !ok || r != nil || e["connected"] != float64(0) {
			t.Fatalf("snapshot entry %v, want rank null and connected 0", e)
		}
	}

	if resp, _ := do(t, "DELETE", ts.URL+"/api/v1/graphs/paper/subscriptions/"+id, nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: %d", resp.StatusCode)
	}
	if fr := next(); fr.event != "closed" || fr.data != `{"reason":"closed"}` {
		t.Fatalf("terminal frame = %+v", fr)
	}
}

// Reference wire form of a subscription event: the structs the stream
// encoded with encoding/json before it wrote frames itself.
type refEvent struct {
	Seq     uint64             `json:"seq"`
	Kind    string             `json:"kind"`
	Resync  bool               `json:"resync,omitempty"`
	Pairs   map[string][]int64 `json:"pairs,omitempty"`
	Added   map[string][]int64 `json:"added,omitempty"`
	Removed map[string][]int64 `json:"removed,omitempty"`
	TopK    []refTopEntry      `json:"top_k,omitempty"`
}

type refTopEntry struct {
	Node      int64   `json:"node"`
	Rank      float64 `json:"rank"`
	Connected int     `json:"connected"`
}

func refGroupPairs(q *pattern.Pattern, pairs []match.Pair) map[string][]int64 {
	if len(pairs) == 0 {
		return nil
	}
	out := map[string][]int64{}
	for _, p := range pairs {
		name := q.Node(p.PNode).Name
		out[name] = append(out[name], int64(p.Node))
	}
	return out
}

func refFrame(q *pattern.Pattern, ev subscribe.Event) (string, error) {
	wire := refEvent{
		Seq: ev.Seq, Kind: string(ev.Kind), Resync: ev.Resync,
		Pairs:   refGroupPairs(q, ev.Pairs),
		Added:   refGroupPairs(q, ev.Added),
		Removed: refGroupPairs(q, ev.Removed),
	}
	for _, t := range ev.TopK {
		wire.TopK = append(wire.TopK, refTopEntry{Node: int64(t.Node), Rank: t.Rank, Connected: t.Connected})
	}
	data, err := json.Marshal(wire)
	return fmt.Sprintf("event: %s\ndata: %s\n\n", ev.Kind, data), err
}

// TestStreamFrameEqualsEncodingJSON: over random graphs, patterns (with
// node names that need escaping and sort out of index order), update
// streams, buffers and k, every frame the stream writes for an event
// whose ranks are all finite is byte for byte the frame encoding/json
// wrote for the reference structs: snapshots, resyncs, coalesced deltas,
// and events with and without top_k.
func TestStreamFrameEqualsEncodingJSON(t *testing.T) {
	names := []string{"SA", "<b>", "a&b", `q"t`, "Zoë", "名前", "line\u2028sep", "\t", "n10", "n2", "A"}
	seen := map[string]int{}
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		g := testutil.RandomGraph(r, 30+r.Intn(30), 90+r.Intn(90))
		rq := testutil.RandomPattern(r, 2+r.Intn(3))
		q := pattern.New()
		for i, j := range r.Perm(len(names))[:rq.NumNodes()] {
			q.MustAddNode(names[j], rq.Node(pattern.NodeIdx(i)).Pred)
		}
		for _, e := range rq.Edges() {
			q.MustAddEdge(e.From, e.To, e.Bound)
		}
		if err := q.SetOutput(rq.Output()); err != nil {
			t.Fatal(err)
		}
		e := engine.New(engine.Options{})
		if err := e.AddGraph("g", g.Clone()); err != nil {
			t.Fatal(err)
		}
		sub, err := e.Subscribe("g", q, subscribe.Options{K: r.Intn(4), Buffer: 1 + r.Intn(4), NoCoalesce: r.Intn(2) == 0})
		if err != nil {
			t.Fatal(err)
		}
		stream := testutil.NewEdgeStream(g, int64(trial))
		for round := 0; round < 30; round++ {
			if _, err := e.ApplyUpdates("g", stream.Batch(1+r.Intn(6))); err != nil {
				t.Fatal(err)
			}
			if r.Intn(3) > 0 {
				continue // let deltas pile up, coalesce and overflow
			}
			for ev, ok := sub.Poll(); ok; ev, ok = sub.Poll() {
				want, err := refFrame(q, ev)
				if err != nil {
					seen["non-finite"]++ // encoding/json refuses the event
					continue
				}
				if got := string(appendEvent(nil, q, ev)); got != want {
					t.Fatalf("trial %d round %d: frame\n%q\nwant\n%q", trial, round, got, want)
				}
				seen[string(ev.Kind)]++
				if ev.Resync {
					seen["resync"]++
				}
				if len(ev.TopK) > 0 {
					seen["top_k"]++
				}
			}
		}
	}
	for _, what := range []string{"snapshot", "delta", "resync", "top_k"} {
		if seen[what] == 0 {
			t.Errorf("no %s frame compared (%v)", what, seen)
		}
	}
}
