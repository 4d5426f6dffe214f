package main

// What is replayed for each workload, and how spans and counters turn
// into the per-layer metrics of BENCHMARK.json.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"expfinder/internal/cache"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/engine"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/server"
	"expfinder/internal/wal"
)

const (
	replaySubset  = 16   // requests of the spans-off and whole-engine passes (cold)
	replayHot     = 2000 // cache-hot requests replayed
	replayBatches = 1000 // update batches per replay pass
	replayChunk   = 50   // batches between switching spans on and off
	readEvery     = 5    // mixed-rw replay: one query per this many batches
	ballSamples   = 256
)

// replayed is what a replay hands back to the run.
type replayed struct {
	expected   map[int][]byte // Reads index -> reference response tail
	disagree   int            // accelerated relations that differed from the reference
	rp         *replica
	tr         *tracer
	onNS       int64   // pipeline time with spans on ...
	offSeconds float64 // ... and off, over the same amount of work
	subset     map[int]bool
}

// reads returns the Reads indices a replay walks: the verification
// sample on cold workloads, a prefix of the request list when hot.
func replayReads(in *inputs) []int {
	if in.Workload == "query-hot" {
		n := min(len(in.Reads), replayHot)
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return idx
	}
	return in.Sample
}

// replayQueries walks the query pipeline over idx, each request routed
// the way the live server routed it; with no routes it is the
// verification pass through the reference algorithms.
func replayQueries(rp *replica, in *inputs, idx []int, routes map[int]route, out *replayed) error {
	for _, i := range idx {
		rt := direct
		if r, ok := routes[i]; ok {
			rt = r
		}
		tail, agree, err := rp.query(i, &in.Reads[i], rt)
		if err != nil {
			return err
		}
		if !agree {
			out.disagree++
		}
		if out.expected != nil {
			out.expected[i] = tail
		}
	}
	return nil
}

func (out *replayed) rootNS(in func(span) bool) int64 {
	var ns int64
	for _, s := range out.tr.spans {
		if s.Name == "request" && in(s) {
			ns += s.End - s.Start
		}
	}
	return ns
}

// tracedReplay performs the per-layer half of a run after the live
// phase: the layer pipeline with spans on, the same work with spans off
// (tracing overhead), and the whole-engine calls the layer sums are
// compared with.
func tracedReplay(in *inputs, p *phase, rp *replica, runDir, walDir string, seed int64) (*replayed, error) {
	out := &replayed{expected: map[int][]byte{}, rp: rp, tr: newTracer(), subset: map[int]bool{}}
	tr := out.tr
	rp.tr = tr
	switch {
	case len(in.Writes) > 0:
		// The same batches through two identical replicas, spans on and
		// spans off, alternating chunk by chunk so drift hits both alike.
		n := min(len(in.Writes), replayBatches)
		off, err := newReplica(in, filepath.Join(runDir, "wal-replica-off"))
		if err != nil {
			return nil, err
		}
		defer off.close()
		chunk := func(rp *replica, from int) error {
			for i := from; i < min(from+replayChunk, n); i++ {
				if _, err := rp.update(i, &in.Writes[i]); err != nil {
					return err
				}
				if len(in.Reads) > 0 && i%readEvery == readEvery-1 {
					j := (i / readEvery) % len(in.Reads)
					_, agree, err := rp.query(len(in.Writes)+i, &in.Reads[j], p.routes[j])
					if err != nil {
						return err
					}
					if !agree && rp.tr != nil {
						out.disagree++
					}
				}
			}
			return nil
		}
		for from := 0; from < n && err == nil; from += replayChunk {
			if err = chunk(rp, from); err == nil {
				out.offSeconds += timed(func() { err = chunk(off, from) })
			}
		}
		if err != nil {
			return nil, err
		}
		out.onNS = out.rootNS(func(span) bool { return true })
		tr.begin("wal.checkpoint", -1)
		err = rp.log.Checkpoint("g", rp.g)
		tr.end()
		if err != nil {
			return nil, err
		}
		if err := engineWrites(in, tr, filepath.Join(runDir, "wal-engine"), n); err != nil {
			return nil, err
		}
		if err := walRecovery(tr, walDir); err != nil {
			return nil, err
		}
	default:
		hot := in.Workload == "query-hot"
		if hot {
			out.expected = nil // the pool was verified inline
		}
		// Each request of the subset runs twice back to back, spans on
		// then off, so drift hits both alike. Off a hot workload the
		// second run gets empty caches: it must redo the work.
		var sub []int
		for n, i := range replayReads(in) {
			if err := replayQueries(rp, in, []int{i}, p.routes, out); err != nil {
				return nil, err
			}
			if !hot && n >= replaySubset {
				continue
			}
			sub = append(sub, i)
			out.subset[i] = true
			c, m := rp.cache, rp.memo
			if !hot {
				rp.cache, rp.memo = cache.New(64<<20), map[cache.Key]memoEntry{}
			}
			rp.tr = nil
			var err error
			out.offSeconds += timed(func() { err = replayQueries(rp, in, []int{i}, p.routes, &replayed{}) })
			rp.tr, rp.cache, rp.memo = tr, c, m
			if err != nil {
				return nil, err
			}
		}
		out.onNS = out.rootNS(func(s span) bool { return out.subset[s.Req] })
		if err := engineReads(in, tr, sub); err != nil {
			return nil, err
		}
	}
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < ballSamples; i++ {
		v := graph.NodeID(r.Intn(graphNodes))
		tr.begin("graph.out_ball", -1)
		rp.g.VisitOutBall(v, 3, func(graph.NodeID, int) bool { return true })
		tr.end()
	}
	return out, nil
}

// mirrorEngine builds an in-process engine configured like the live
// server's: same cache sizes, same graphs, same accelerators.
func mirrorEngine(in *inputs, pers *wal.Manager) (*engine.Engine, error) {
	eng := engine.New(engine.Options{CacheSize: 256, CacheBytes: 64 << 20, Persistence: pers})
	for _, name := range in.Graphs {
		if err := eng.AddGraph(name, dataset()); err != nil {
			return nil, err
		}
	}
	parts := partition.Options{Parts: 2, Strategy: partition.StrategyGreedy}
	view := compress.View{"experience"}
	var err error
	switch {
	case in.Workload == "query-accel":
		if _, err = eng.BuildIndex("gi", distindex.Options{}); err == nil {
			if _, err = eng.PartitionGraph("gp", parts); err == nil {
				_, err = eng.CompressGraph("gc", compress.Bisimulation, view)
			}
		}
	case len(in.Writes) > 0:
		if _, err = eng.PartitionGraph("g", parts); err == nil {
			_, err = eng.CompressGraph("g", compress.Bisimulation, view)
		}
		for _, dsl := range in.Register {
			if q, perr := pattern.Parse(dsl); perr == nil && err == nil {
				err = eng.RegisterQuery("g", q)
			}
		}
	}
	return eng, err
}

// engineReads times whole-engine calls for the requests in sub: a miss,
// then a hit, then the full HTTP handler on the hit (no socket).
func engineReads(in *inputs, tr *tracer, sub []int) error {
	eng, err := mirrorEngine(in, nil)
	if err != nil {
		return err
	}
	qs := map[int]*pattern.Pattern{}
	for _, i := range sub {
		if qs[i], err = pattern.Parse(in.Reads[i].DSL); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for _, name := range []string{"engine.query", "engine.query_hit"} {
		for _, i := range sub {
			key := in.Reads[i].Graph + "\x00" + in.Reads[i].DSL
			span := name
			if name == "engine.query" {
				if seen[key] {
					continue // already cached: not a miss
				}
				seen[key] = true
			}
			tr.begin(span, i)
			_, err := eng.QueryCtx(context.Background(), in.Reads[i].Graph, qs[i], topK)
			tr.end()
			if err != nil {
				return err
			}
		}
	}
	h := server.New(eng)
	for _, i := range sub {
		req := httptest.NewRequest(http.MethodPost, in.Reads[i].path(), bytes.NewReader(in.Reads[i].body))
		rec := httptest.NewRecorder()
		tr.begin("server.handler", i)
		h.ServeHTTP(rec, req)
		tr.end()
		if rec.Code != http.StatusOK {
			return fmt.Errorf("server.handler: status %d: %s", rec.Code, rec.Body)
		}
	}
	return nil
}

// engineWrites times whole ApplyUpdates calls with everything attached
// (matchers, quotient, partitions, statistics, WAL) over the batches the
// layer pass replayed, plus the interleaved queries on mixed-rw.
func engineWrites(in *inputs, tr *tracer, walDir string, n int) error {
	pers, err := wal.Open(wal.Options{Dir: walDir, Fsync: wal.FsyncInterval})
	if err != nil {
		return err
	}
	eng, err := mirrorEngine(in, pers)
	if err != nil {
		return err
	}
	defer eng.Close()
	apply := func(rq *request) error {
		ops := make([]incremental.Update, len(rq.Ops))
		for i, o := range rq.Ops {
			ops[i] = incremental.Update{Insert: o.Op == "insert", From: graph.NodeID(o.From), To: graph.NodeID(o.To)}
		}
		_, err := eng.ApplyUpdates("g", ops)
		return err
	}
	for i := range in.Warm {
		if err := apply(&in.Warm[i]); err != nil {
			return err
		}
	}
	for i := 0; i < n; i++ {
		tr.begin("engine.apply_updates", i)
		err := apply(&in.Writes[i])
		tr.end()
		if err != nil {
			return err
		}
		if len(in.Reads) > 0 && i%readEvery == readEvery-1 {
			rq := &in.Reads[(i/readEvery)%len(in.Reads)]
			q, err := pattern.Parse(rq.DSL)
			if err != nil {
				return err
			}
			tr.begin("engine.query", len(in.Writes)+i)
			_, err = eng.QueryCtx(context.Background(), "g", q, topK)
			tr.end()
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// walRecovery times crash recovery (snapshot load, record replay and the
// re-checkpoint recovery ends with) on the data dir the killed live
// server left behind.
func walRecovery(tr *tracer, dataDir string) error {
	m, err := wal.Open(wal.Options{Dir: dataDir, Fsync: wal.FsyncInterval})
	if err != nil {
		return err
	}
	defer m.Close()
	tr.begin("wal.recover", -1)
	_, err = m.Recover("g")
	tr.end()
	return err
}

// engineLayers are the spans that together make up one engine.query.
var engineLayers = map[string]bool{
	"cache.get": true, "cache.put": true, "simulation.compute": true, "bsim.compute": true,
	"bsim.compute_indexed": true, "partition.eval": true, "compress.eval": true,
	"incremental.relation": true, "match.result_graph": true, "rank.topk": true,
}

// layerMetrics turns one traced run into the per-layer metrics.
func layerMetrics(in *inputs, p *phase, out *replayed, sources map[string]int) map[string]float64 {
	tr, rp := out.tr, out.rp
	calls, self := tr.selfTimes()
	mean := func(name string, unitNS float64) float64 {
		if calls[name] == 0 {
			return 0
		}
		return float64(self[name]) / float64(calls[name]) / unitNS
	}
	per := func(counter, name string) float64 {
		if calls[name] == 0 {
			return 0
		}
		return tr.counts[counter] / float64(calls[name])
	}
	const us, ms = 1e3, 1e6
	m := map[string]float64{
		"pattern.parse_us":               mean("pattern.parse", us),
		"cache.get_us":                   mean("cache.get", us),
		"cache.put_us":                   mean("cache.put", us),
		"api.decode_us":                  mean("api.decode", us),
		"api.encode_us":                  mean("api.encode", us),
		"api.bytes_per_query":            ratio(tr.counts["api.bytes"], tr.counts["queries"]),
		"server.handler_us":              mean("server.handler", us),
		"engine.query_hit_us":            mean("engine.query_hit", us),
		"simulation.compute_ms":          mean("simulation.compute", ms),
		"bsim.compute_ms":                mean("bsim.compute", ms),
		"bsim.alloc_kb_per_op":           per("bsim.alloc_bytes", "bsim.compute") / 1024,
		"graph.out_ball_us":              mean("graph.out_ball", us),
		"match.result_graph_ms":          mean("match.result_graph", ms),
		"match.alloc_kb_per_op":          per("match.alloc_bytes", "match.result_graph") / 1024,
		"match.pairs_per_query":          per("match.pairs", "match.result_graph"),
		"rank.topk_ms":                   mean("rank.topk", ms),
		"rank.alloc_kb_per_op":           per("rank.alloc_bytes", "rank.topk") / 1024,
		"engine.query_ms":                mean("engine.query", ms),
		"bsim.compute_indexed_ms":        mean("bsim.compute_indexed", ms),
		"distindex.probes_per_query":     per("distindex.probes", "bsim.compute_indexed"),
		"distindex.fallback_ratio":       ratio(tr.counts["distindex.fallbacks"], tr.counts["distindex.probes"]),
		"partition.eval_ms":              mean("partition.eval", ms),
		"partition.supersteps_per_query": per("partition.supersteps", "partition.eval"),
		"partition.messages_per_query":   per("partition.messages", "partition.eval"),
		"compress.eval_ms":               mean("compress.eval", ms),
		"incremental.relation_us":        mean("incremental.relation", us),
		"graph.apply_us":                 mean("graph.apply", us),
		"incremental.apply_us":           mean("incremental.apply", us),
		"compress.sync_us":               mean("compress.sync", us),
		"partition.sync_us":              mean("partition.sync", us),
		"stats.sync_us":                  mean("stats.sync", us),
		"wal.append_us":                  mean("wal.append", us),
		"engine.apply_updates_us":        mean("engine.apply_updates", us),
		"wal.recover_ms":                 mean("wal.recover", ms),
		"wal.checkpoint_ms":              mean("wal.checkpoint", ms),
		"trace.overhead_ratio":           ratio(float64(out.onNS)/1e9, out.offSeconds),
		"distindex.build_s":              rp.build["distindex.build_s"],
		"partition.build_s":              rp.build["partition.build_s"],
		"compress.build_s":               rp.build["compress.build_s"],
		"generator.collab_s":             rp.build["generator.collab_s"],
		"incremental.new_matcher_ms":     rp.build["incremental.new_matcher_ms"],
		"distindex.bytes_mb":             0,
		"partition.cut_ratio":            0,
		"compress.node_ratio":            0,
	}
	if rp.idx != nil {
		m["distindex.bytes_mb"] = float64(rp.idx.Stats().Bytes) / (1 << 20)
	}
	if rp.part != nil {
		m["partition.cut_ratio"] = rp.part.Stats().CutRatio
	}
	if rp.comp != nil {
		m["compress.node_ratio"] = ratio(float64(rp.comp.Graph().NumNodes()), float64(rp.g.NumNodes()))
	}

	// Layer self times against the whole-engine call, over the requests
	// both passes ran as misses.
	var engineNS, layerNS int64
	both := map[int]bool{}
	for _, s := range tr.spans {
		if s.Name == "engine.query" {
			engineNS += s.End - s.Start
			both[s.Req] = true
		}
	}
	for _, s := range tr.spans {
		if engineLayers[s.Name] && both[s.Req] && (out.subset[s.Req] || len(in.Writes) > 0) {
			layerNS += s.End - s.Start
		}
	}
	if in.Workload == "query-hot" {
		layerNS = 0 // its replay has no miss to compare
	}
	m["trace.layer_sum_ratio"] = ratio(float64(layerNS), float64(engineNS))

	// The live server's own counters over the measured phase.
	rd, wr := okLatencies(p.reads), okLatencies(p.writes)
	d := func(a, b float64) float64 { return b - a }
	hits, misses := d(p.before.cacheHits, p.after.cacheHits), d(p.before.cacheMisses, p.after.cacheMisses)
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions"] = d(p.before.cacheEvictions, p.after.cacheEvictions)
	m["wal.bytes_per_edge_op"] = ratio(d(p.before.walBytes, p.after.walBytes), float64(len(wr)*batchOps))
	m["wal.fsyncs_per_s"] = ratio(d(p.before.walFsyncs, p.after.walFsyncs), p.elapsed)
	m["runtime.gc_pause_ms_per_s"] = ratio(1e3*d(p.before.gcPauseS, p.after.gcPauseS), p.elapsed)
	m["runtime.gc_cycles_per_s"] = ratio(d(p.before.gcCycles, p.after.gcCycles), p.elapsed)
	m["runtime.heap_mb"] = p.after.heapBytes / (1 << 20)
	total := 0
	for _, n := range sources {
		total += n
	}
	for _, src := range []string{"cache", "direct", "indexed", "partitioned", "compressed", "incremental"} {
		m["engine.source_share_"+src] = ratio(float64(sources[src]), float64(total))
	}
	m["server.query_p50_ms"] = percentile(rd, 0.50)
	m["server.query_p95_ms"] = percentile(rd, 0.95)
	m["server.query_p99_ms"] = percentile(rd, 0.99)
	m["server.update_p50_ms"] = percentile(wr, 0.50)
	m["server.update_p95_ms"] = percentile(wr, 0.95)
	m["server.edge_ops_per_s"] = ratio(float64(len(wr)*batchOps), p.elapsed)
	shed, late := 0, 0
	for _, outcomes := range [][]outcome{p.reads, p.writes} {
		for i := range outcomes {
			if outcomes[i].status == http.StatusServiceUnavailable {
				shed++
			}
			if outcomes[i].late {
				late++
			}
		}
	}
	m["server.shed_ratio"] = ratio(float64(shed), float64(p.attempted-p.unsent))
	m["loadgen.late_ratio"] = ratio(float64(late), float64(len(p.writes))) // only paced sends can be late
	m["loadgen.client_cpu_share"] = ratio(p.clientCPU, p.clientCPU+p.serverCPU)
	return m
}
