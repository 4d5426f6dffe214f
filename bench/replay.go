package main

// The in-process replay: generated requests pushed through each layer's
// public functions in pipeline order, single goroutine, with a span
// around every call. The same pipeline, spans off and routed through the
// reference algorithms, produces the expected response bytes the live
// server's answers are checked against.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/bsim"
	"expfinder/internal/cache"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/simulation"
	"expfinder/internal/stats"
	"expfinder/internal/wal"
)

// span is one timed call into a layer. Spans of one request share Req;
// Parent is the enclosing span's ID, -1 at the root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer is
// "tracing off": every method is a no-op.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	// counts are work counters taken at the same boundaries as spans.
	counts map[string]float64
}

func newTracer() *tracer { return &tracer{t0: time.Now(), counts: map[string]float64{}} }

func (t *tracer) begin(name string, req int) {
	if t == nil {
		return
	}
	parent := -1
	if len(t.stack) > 0 {
		parent = t.stack[len(t.stack)-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0))})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	id := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[id].End = int64(time.Since(t.t0))
}

func (t *tracer) add(counter string, v float64) {
	if t != nil {
		t.counts[counter] += v
	}
}

// heap returns bytes allocated so far, for per-call allocation deltas
// (exact here: the replay is the only running goroutine).
func (t *tracer) heap() uint64 {
	if t == nil {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// selfTimes returns, per span name, the call count and the summed self
// time in ns: each span's duration minus its children's.
func (t *tracer) selfTimes() (calls map[string]int, selfNS map[string]int64) {
	calls, selfNS = map[string]int{}, map[string]int64{}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for i, s := range t.spans {
		calls[s.Name]++
		selfNS[s.Name] += s.End - s.Start - child[i]
	}
	return calls, selfNS
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// route is where the live server said an answer came from.
type route struct{ Plan, Source string }

var direct = route{Source: "direct"}

// replica is the in-process mirror of one workload's server state, built
// from the same generated inputs through the layers' public functions.
type replica struct {
	tr *tracer
	g  *graph.Graph

	idx  *distindex.Index
	part *partition.Partitioning
	comp *compress.Compressed

	matchers map[string]*incremental.Matcher // pattern hash -> matcher
	st       *stats.Graph
	log      *wal.Manager

	cache *cache.Cache
	memo  map[cache.Key]memoEntry

	// build holds set-up timings in seconds, by metric name.
	build map[string]float64
}

type memoEntry struct {
	rg     *match.ResultGraph
	ranked []rank.Ranked
}

func timed(fn func()) float64 {
	start := time.Now()
	fn()
	return time.Since(start).Seconds()
}

// plainReplica holds the dataset and nothing else: enough to answer any
// query through the reference algorithms.
func plainReplica() *replica {
	rp := &replica{
		cache:    cache.New(64 << 20),
		memo:     map[cache.Key]memoEntry{},
		matchers: map[string]*incremental.Matcher{},
		build:    map[string]float64{},
	}
	rp.build["generator.collab_s"] = timed(func() { rp.g = dataset() })
	return rp
}

// newReplica mirrors the live set-up of in's workload. walDir is used
// by the write workloads only.
func newReplica(in *inputs, walDir string) (*replica, error) {
	rp := plainReplica()
	accel, fullNode := in.Workload == "query-accel", len(in.Writes) > 0
	var err error
	if accel {
		rp.build["distindex.build_s"] = timed(func() { rp.idx = distindex.Build(rp.g, distindex.Options{}) })
	}
	if accel || fullNode {
		rp.build["partition.build_s"] = timed(func() {
			rp.part, err = partition.Partition(rp.g, partition.Options{Parts: 2, Strategy: partition.StrategyGreedy})
		})
		if err != nil {
			return nil, err
		}
		rp.build["compress.build_s"] = timed(func() {
			rp.comp = compress.CompressWithView(rp.g, compress.Bisimulation, compress.View{"experience"})
		})
	}
	if fullNode {
		rp.st = stats.NewGraph(rp.g)
		for _, dsl := range in.Register {
			q, err := pattern.Parse(dsl)
			if err != nil {
				return nil, err
			}
			rp.build["incremental.new_matcher_ms"] += 1e3 * timed(func() {
				rp.matchers[q.Hash()] = incremental.NewMatcher(rp.g, q)
			}) / float64(len(in.Register))
		}
		if rp.log, err = wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncInterval}); err != nil {
			return nil, err
		}
		if err := rp.log.Create("g", rp.g); err != nil {
			return nil, err
		}
		for i := range in.Warm {
			if _, err := rp.update(-1, &in.Warm[i]); err != nil {
				return nil, err
			}
		}
	}
	return rp, nil
}

func (rp *replica) close() {
	if rp.log != nil {
		_ = rp.log.Close()
	}
}

// query runs one query request through the layers in pipeline order and
// returns the response tail (from `,"matches":` on) the server must have
// sent. Routed anywhere but direct, the accelerated relation is checked
// against the reference algorithm; agree reports the outcome.
func (rp *replica) query(reqID int, rq *request, rt route) (tail []byte, agree bool, err error) {
	tr := rp.tr
	tr.begin("request", reqID)
	defer tr.end()

	tr.begin("api.decode", reqID)
	var qr api.QueryRequest
	err = json.Unmarshal(rq.body, &qr)
	tr.end()
	if err != nil {
		return nil, false, err
	}
	tr.begin("pattern.parse", reqID)
	q, err := pattern.Parse(qr.DSL)
	tr.end()
	if err != nil {
		return nil, false, err
	}

	key := cache.Key{GraphName: rq.Graph, Epoch: 1, GraphVersion: rp.g.Version(), PatternHash: q.Hash()}
	tr.begin("cache.get", reqID)
	rel, hit := rp.cache.Get(key)
	tr.end()
	agree = true
	if !hit {
		rel = rp.evaluate(reqID, q, rt)
		if rt.Source != direct.Source {
			if ref := reference(rp.g, q); !rel.Equal(ref) {
				rel, agree = ref, false
			}
		}
		tr.begin("cache.put", reqID)
		rp.cache.Put(key, rel)
		tr.end()
	}

	// The engine memoizes result graph and ranking per (version,
	// pattern): a relation-cache hit pays neither again.
	m, memoized := rp.memo[key]
	if !memoized {
		h0 := tr.heap()
		tr.begin("match.result_graph", reqID)
		m.rg = match.BuildResultGraph(rp.g, q, rel)
		tr.end()
		h1 := tr.heap()
		tr.begin("rank.topk", reqID)
		m.ranked = rank.TopKWithResultGraph(m.rg, q, rel, 0)
		tr.end()
		tr.add("match.alloc_bytes", float64(h1-h0))
		tr.add("rank.alloc_bytes", float64(tr.heap()-h1))
		tr.add("match.pairs", float64(rel.Size()))
		rp.memo[key] = m
	}

	tr.begin("api.encode", reqID)
	body := renderQuery(rp.g, q, rel, m.ranked, qr.K)
	tr.end()
	tr.add("api.bytes", float64(len(body)))
	tr.add("queries", 1)
	_, _, tail, ok := splitResponse(body)
	if !ok {
		return nil, false, fmt.Errorf("replay rendered an unsplittable response")
	}
	return tail, agree, nil
}

// reference is the answer every plan must reproduce.
func reference(g *graph.Graph, q *pattern.Pattern) *match.Relation {
	if q.IsPlainSimulation() {
		return simulation.Compute(g, q)
	}
	return bsim.Compute(g, q)
}

// evaluate computes M(Q,G) the way the live server's route did.
func (rp *replica) evaluate(reqID int, q *pattern.Pattern, rt route) *match.Relation {
	tr := rp.tr
	var rel *match.Relation
	switch {
	case rt.Source == "indexed" && rp.idx != nil:
		before := rp.idx.Stats()
		tr.begin("bsim.compute_indexed", reqID)
		rel = bsim.ComputeIndexed(rp.g, q, rp.idx)
		tr.end()
		after := rp.idx.Stats()
		tr.add("distindex.probes", float64(after.Queries-before.Queries))
		tr.add("distindex.fallbacks", float64(after.Fallbacks-before.Fallbacks))
	case rt.Source == "partitioned" && rp.part != nil:
		tr.begin("partition.eval", reqID)
		r, st, err := partition.Eval(rp.g, q, rp.part, partition.Bounded)
		tr.end()
		if err != nil {
			return reference(rp.g, q)
		}
		rel = r
		tr.add("partition.supersteps", float64(st.Supersteps))
		tr.add("partition.messages", float64(st.Messages))
	case rt.Source == "compressed" && rp.comp != nil:
		tr.begin("compress.eval", reqID)
		rel = rp.comp.Decompress(reference(rp.comp.Graph(), q))
		tr.end()
	case rt.Source == "incremental" && rp.matchers[q.Hash()] != nil:
		tr.begin("incremental.relation", reqID)
		rel = rp.matchers[q.Hash()].Relation()
		tr.end()
	case q.IsPlainSimulation():
		tr.begin("simulation.compute", reqID)
		rel = simulation.Compute(rp.g, q)
		tr.end()
	default:
		h0 := tr.heap()
		tr.begin("bsim.compute", reqID)
		rel = bsim.Compute(rp.g, q)
		tr.end()
		tr.add("bsim.alloc_bytes", float64(tr.heap()-h0))
	}
	return rel
}

// renderQuery mirrors the server's response rendering: the wire DTO,
// display names from the graph, encoded the way writeJSON encodes.
func renderQuery(g *graph.Graph, q *pattern.Pattern, rel *match.Relation, ranked []rank.Ranked, k int) []byte {
	resp := api.QueryResponse{Plan: "", Source: "", Matches: map[string][]int64{}}
	for i := 0; i < q.NumNodes(); i++ {
		idx := pattern.NodeIdx(i)
		ids := rel.MatchesOf(idx)
		out := make([]int64, len(ids))
		for j, id := range ids {
			out[j] = int64(id)
		}
		resp.Matches[q.Node(idx).Name] = out
	}
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	for _, t := range ranked {
		entry := api.TopEntry{Node: int64(t.Node), Rank: t.Rank, Connected: t.Connected}
		if v, ok := g.Attr(t.Node, "name"); ok {
			entry.Name = v.Str()
		}
		resp.TopK = append(resp.TopK, entry)
	}
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(resp)
	return buf.Bytes()
}

// splitResponse cuts a query response at `,"matches":`: the head carries
// plan, source and elapsed_us — what the server is free to choose — and
// the tail is the answer, compared byte for byte.
func splitResponse(body []byte) (plan, source string, tail []byte, ok bool) {
	i := bytes.Index(body, []byte(`,"matches":`))
	if i < 0 {
		return "", "", nil, false
	}
	var head struct{ Plan, Source string }
	if json.Unmarshal(append(body[:i:i], '}'), &head) != nil {
		return "", "", nil, false
	}
	return head.Plan, head.Source, body[i:], true
}

// update runs one update batch through the write path's layers in the
// engine's order and returns the response body.
func (rp *replica) update(reqID int, rq *request) ([]byte, error) {
	tr := rp.tr
	tr.begin("request", reqID)
	defer tr.end()

	tr.begin("api.decode", reqID)
	var ur api.UpdateRequest
	err := json.Unmarshal(rq.body, &ur)
	tr.end()
	if err != nil {
		return nil, err
	}

	tr.begin("graph.apply", reqID)
	for _, o := range ur.Ops {
		if o.Op == "insert" {
			err = rp.g.AddEdge(graph.NodeID(o.From), graph.NodeID(o.To))
		} else {
			err = rp.g.RemoveEdge(graph.NodeID(o.From), graph.NodeID(o.To))
		}
		if err != nil {
			break
		}
	}
	tr.end()
	if err != nil {
		return nil, fmt.Errorf("replica rejected a generated op: %w", err)
	}

	resp := api.UpdateResponse{Applied: len(ur.Ops), Deltas: []api.DeltaSummary{}}
	tr.begin("incremental.apply", reqID)
	iops := make([]incremental.Update, len(ur.Ops))
	for i, o := range ur.Ops {
		iops[i] = incremental.Update{Insert: o.Op == "insert", From: graph.NodeID(o.From), To: graph.NodeID(o.To)}
	}
	for h, m := range rp.matchers {
		added, removed, serr := m.Sync(iops)
		if serr != nil {
			err = serr
		}
		resp.Deltas = append(resp.Deltas, api.DeltaSummary{PatternHash: h, Added: len(added), Removed: len(removed)})
	}
	tr.end()
	if err != nil {
		return nil, err
	}

	if rp.comp != nil {
		tr.begin("compress.sync", reqID)
		cops := make([]compress.Update, len(iops))
		for i, o := range iops {
			cops[i] = compress.Update{Insert: o.Insert, From: o.From, To: o.To}
		}
		err = rp.comp.Sync(cops)
		tr.end()
		if err != nil {
			return nil, err
		}
	}
	if rp.part != nil {
		tr.begin("partition.sync", reqID)
		pops := make([]partition.Update, len(iops))
		for i, o := range iops {
			pops[i] = partition.Update{Insert: o.Insert, From: o.From, To: o.To}
		}
		rp.part.Sync(pops)
		tr.end()
	}
	if rp.st != nil {
		tr.begin("stats.sync", reqID)
		sops := make([]stats.Update, len(iops))
		for i, o := range iops {
			sops[i] = stats.Update{Insert: o.Insert, From: o.From, To: o.To}
		}
		rp.st.Sync(rp.g, sops)
		tr.end()
	}
	if rp.log != nil {
		tr.begin("wal.append", reqID)
		wops := make([]wal.Update, len(iops))
		for i, o := range iops {
			wops[i] = wal.Update{Insert: o.Insert, From: o.From, To: o.To}
		}
		err = rp.log.LogUpdates("g", wops, rp.g.Version())
		tr.end()
		if err != nil {
			return nil, err
		}
	}

	tr.begin("api.encode", reqID)
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(resp)
	tr.end()
	return buf.Bytes(), nil
}
