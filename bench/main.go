// Command bench is the repository's benchmark: for each named workload
// it drives a real expfinder-server process over loopback HTTP (the
// end-to-end metrics, tracing off) and replays the same generated
// requests in-process through every layer's public functions with a
// span around each call (the per-layer metrics). See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh [-workload NAME] [-seed N] [-seconds S] [-trace 0|1|2]
//	                  [-out FILE] [-spans FILE]
//	bash bench/run.sh -compare A.json[,A2.json...] B.json[,B2.json...]
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

type metricDef struct{ Name, Unit string }

var workloadNames = []string{"query-cold", "query-hot", "query-accel", "ingest", "mixed-rw"}

// endToEnd lists what a user of the server sees. Every workload reports
// every one: latency is that of the workload's latency-critical client
// (queries; 16-op update batches on ingest and, from their due time, on
// mixed-rw) and throughput that of its closed-loop clients (queries;
// update batches on ingest).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_p50_ms", "ms"},
	{"latency_p95_ms", "ms"},
	{"throughput_rps", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer lists the layer metrics, layer = package name. A value of 0
// means the layer is not on that workload's path.
var perLayer = []metricDef{
	{"pattern.parse_us", "us"}, {"cache.get_us", "us"}, {"cache.put_us", "us"},
	{"api.decode_us", "us"}, {"api.encode_us", "us"}, {"api.bytes_per_query", "B"},
	{"server.handler_us", "us"}, {"engine.query_hit_us", "us"},
	{"simulation.compute_ms", "ms"}, {"bsim.compute_ms", "ms"}, {"bsim.alloc_kb_per_op", "KB"},
	{"graph.out_ball_us", "us"}, {"match.result_graph_ms", "ms"}, {"match.alloc_kb_per_op", "KB"},
	{"match.pairs_per_query", "count"}, {"rank.topk_ms", "ms"}, {"rank.alloc_kb_per_op", "KB"},
	{"engine.query_ms", "ms"},
	{"bsim.compute_indexed_ms", "ms"}, {"distindex.probes_per_query", "count"},
	{"distindex.fallback_ratio", "ratio"}, {"partition.eval_ms", "ms"},
	{"partition.supersteps_per_query", "count"}, {"partition.messages_per_query", "count"},
	{"partition.cut_ratio", "ratio"}, {"compress.eval_ms", "ms"}, {"compress.node_ratio", "ratio"},
	{"incremental.relation_us", "us"},
	{"distindex.build_s", "s"}, {"distindex.bytes_mb", "MB"}, {"partition.build_s", "s"},
	{"compress.build_s", "s"}, {"generator.collab_s", "s"}, {"incremental.new_matcher_ms", "ms"},
	{"graph.apply_us", "us"}, {"incremental.apply_us", "us"}, {"compress.sync_us", "us"},
	{"partition.sync_us", "us"}, {"stats.sync_us", "us"}, {"wal.append_us", "us"},
	{"engine.apply_updates_us", "us"}, {"wal.bytes_per_edge_op", "B"}, {"wal.fsyncs_per_s", "1/s"},
	{"wal.recover_ms", "ms"}, {"wal.checkpoint_ms", "ms"},
	{"cache.hit_ratio", "ratio"}, {"cache.evictions", "count"},
	{"engine.source_share_cache", "ratio"}, {"engine.source_share_direct", "ratio"},
	{"engine.source_share_indexed", "ratio"}, {"engine.source_share_partitioned", "ratio"},
	{"engine.source_share_compressed", "ratio"}, {"engine.source_share_incremental", "ratio"},
	{"server.query_p50_ms", "ms"}, {"server.query_p95_ms", "ms"}, {"server.query_p99_ms", "ms"},
	{"server.update_p50_ms", "ms"}, {"server.update_p95_ms", "ms"}, {"server.edge_ops_per_s", "1/s"},
	{"server.shed_ratio", "ratio"},
	{"runtime.gc_pause_ms_per_s", "ms/s"}, {"runtime.gc_cycles_per_s", "1/s"}, {"runtime.heap_mb", "MB"},
	{"loadgen.late_ratio", "ratio"}, {"loadgen.client_cpu_share", "ratio"},
	{"trace.overhead_ratio", "ratio"}, {"trace.layer_sum_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output for one workload.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadReport is one workload's entry in the -out file.
type workloadReport struct {
	Attempted int                    `json:"ops_attempted"`
	Failed    int                    `json:"ops_failed"`
	Failures  []string               `json:"failures,omitempty"`
	Setups    []float64              `json:"setup_runs_s,omitempty"`
	EndToEnd  map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer  map[string]metricValue `json:"per_layer,omitempty"`
}

type report struct {
	Host      map[string]any            `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Workloads map[string]workloadReport `json:"workloads"`
}

type config struct {
	server  string
	seed    int64
	seconds float64
	trace   int
	spans   string
}

func main() {
	var cfg config
	workload := flag.String("workload", "", "workload to run (default: all five)")
	flag.StringVar(&cfg.server, "server", ".bench_build/bin/expfinder-server", "expfinder-server binary (run.sh builds it)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the generated traffic")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured phase at the seed commit; scales every request count")
	flag.IntVar(&cfg.trace, "trace", 2, "0: end-to-end metrics only, 1: per-layer metrics only, 2: both")
	flag.StringVar(&cfg.spans, "spans", "", "span file (default .bench_build/spans-<workload>.jsonl)")
	out := flag.String("out", "", "write the full report as JSON to this file")
	compare := flag.Bool("compare", false, "compare two reports (or comma-separated sets of reports): -compare A B")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: -compare A.json[,A2.json...] B.json[,B2.json...]")
		}
		if err := compareReports(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1)); err != nil {
			fatal("%v", err)
		}
		return
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	rep := report{Host: hostInfo(), Seed: cfg.seed, Seconds: cfg.seconds, Workloads: map[string]workloadReport{}}
	failed := 0
	for _, name := range names {
		wr, err := runWorkload(cfg, name)
		if err != nil {
			fatal("%s: %v", name, err)
		}
		rep.Workloads[name] = *wr
		failed += wr.Failed
		printWorkload(name, cfg.trace, wr)
	}
	if *out != "" {
		raw, _ := json.MarshalIndent(rep, "", "  ")
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			fatal("%v", err)
		}
	}
	if failed > 0 { // the seed commit's baseline share of failed ops is 0
		os.Exit(1)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}

func hostInfo() map[string]any {
	kernel, _ := os.ReadFile("/proc/sys/kernel/osrelease")
	return map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"kernel": strings.TrimSpace(string(kernel)), "client_connections": clientConns,
	}
}

// printWorkload prints every metric by name with its unit, then the
// result line the driver parses.
func printWorkload(name string, trace int, wr *workloadReport) {
	fmt.Printf("== %s: ops_attempted %d ops_failed %d\n", name, wr.Attempted, wr.Failed)
	for _, f := range wr.Failures {
		fmt.Printf("   failure: %s\n", f)
	}
	line := resultLine{Correct: wr.Failed == 0, Attempted: wr.Attempted, Failed: wr.Failed, Metrics: map[string]metricValue{}}
	show := func(defs []metricDef, vals map[string]metricValue) {
		for _, d := range defs {
			v := vals[d.Name]
			fmt.Printf("%-34s %14.4f %s\n", d.Name, v.Value, v.Unit)
			line.Metrics[d.Name] = v
		}
	}
	if trace != 1 {
		show(endToEnd, wr.EndToEnd)
	}
	if trace >= 1 {
		show(perLayer, wr.PerLayer)
	}
	raw, _ := json.Marshal(line)
	fmt.Println(string(raw))
}

func withUnits(defs []metricDef, vals map[string]float64) map[string]metricValue {
	out := map[string]metricValue{}
	for _, d := range defs {
		out[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return out
}

// runWorkload is one run of one workload: generate, drive the live
// server, verify, and (trace >= 1) replay with spans.
func runWorkload(cfg config, name string) (wr *workloadReport, err error) {
	in, err := generate(name, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	runDir := filepath.Join(".bench_build", "run", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(runDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if err == nil { // a failed run keeps its server log and data dirs
			os.RemoveAll(runDir)
		}
	}()
	traced := cfg.trace >= 1

	// The replica every answer is checked against. Verification-only
	// runs route everything through the reference algorithms, so the
	// replica needs no accelerators.
	var rp *replica
	switch {
	case traced:
		if rp, err = newReplica(in, filepath.Join(runDir, "wal-replica")); err != nil {
			return nil, err
		}
		defer rp.close()
	case len(in.Writes) == 0:
		rp = plainReplica()
	}

	// query-hot answers are checked inline against the pool's reference
	// tails, computed before the phase (which also warms the replica's
	// cache for the hit replay).
	sources := map[string]int{}
	var mu sync.Mutex
	var inline func(*request, []byte) bool
	if name == "query-hot" {
		pool := map[string][]byte{}
		for i := 0; i < hotPool; i++ {
			tail, _, err := rp.query(i, &in.Warm[i], direct)
			if err != nil {
				return nil, err
			}
			pool[in.Warm[i].DSL] = tail
		}
		inline = func(rq *request, body []byte) bool {
			_, source, tail, ok := splitResponse(body)
			mu.Lock()
			sources[source]++
			mu.Unlock()
			return ok && bytes.Equal(tail, pool[rq.DSL])
		}
	}

	setups := 3 // setup_s is their median
	if cfg.trace == 1 {
		setups = 1
	}
	p, walDir, err := liveRun(cfg.server, runDir, in, cfg.seconds, setups, inline)
	if err != nil {
		return nil, err
	}
	p.collectRoutes()
	for _, rt := range p.routes {
		sources[rt.Source]++
	}

	expected := map[int][]byte{}
	var out *replayed
	switch {
	case traced:
		if out, err = tracedReplay(in, p, rp, runDir, walDir, cfg.seed); err != nil {
			return nil, err
		}
		expected = out.expected
		for i := 0; i < out.disagree; i++ {
			p.fail("replay: accelerated relation differs from the reference")
		}
	case len(in.Sample) > 0:
		out = &replayed{expected: expected}
		if err := replayQueries(rp, in, in.Sample, nil, out); err != nil {
			return nil, err
		}
	}
	checkAnswers(p, in, expected)

	wr = &workloadReport{Attempted: p.attempted, Failed: p.failed, Failures: p.failures, Setups: p.setups}
	if cfg.trace != 1 {
		wr.EndToEnd = withUnits(endToEnd, endToEndMetrics(in, p))
	}
	if traced {
		wr.PerLayer = withUnits(perLayer, layerMetrics(in, p, out, sources))
		spans := cfg.spans
		if spans == "" {
			spans = filepath.Join(".bench_build", "spans-"+name+".jsonl")
		}
		if err := out.tr.write(spans); err != nil {
			return nil, err
		}
	}
	return wr, nil
}

func endToEndMetrics(in *inputs, p *phase) map[string]float64 {
	rd, wr := okLatencies(p.reads), okLatencies(p.writes)
	lat, closed := rd, rd
	switch in.Workload {
	case "ingest":
		lat, closed = wr, wr
	case "mixed-rw":
		lat = wr
	}
	return map[string]float64{
		"setup_s":        median(p.setups),
		"latency_p50_ms": percentile(lat, 0.50),
		"latency_p95_ms": percentile(lat, 0.95),
		"throughput_rps": ratio(float64(len(closed)), p.elapsed),
		"cpu_ms_per_op":  ratio(1e3*p.serverCPU, float64(len(rd)+len(wr))),
		"peak_rss_mb":    p.peakRSSMB,
	}
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ---- compare ----

type benchmarkFile struct {
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
}

// side is one side of a comparison: one or more reports of one commit.
type side []report

func loadSide(list string) (side, error) {
	var s side
	for _, path := range strings.Split(list, ",") {
		raw, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		s = append(s, r)
	}
	return s, nil
}

// stat returns the median of a metric over the side's reports and its
// recorded spread, (max-min)/median; spread is 0 for a single report.
func (s side) stat(workload, metric string) (med, spread float64, ok bool) {
	var xs []float64
	for _, r := range s {
		if v, found := r.Workloads[workload].EndToEnd[metric]; found {
			xs = append(xs, v.Value)
		}
	}
	if len(xs) == 0 {
		return 0, 0, false
	}
	sort.Float64s(xs)
	med = median(xs)
	if med != 0 {
		spread = (xs[len(xs)-1] - xs[0]) / med
	}
	return med, spread, true
}

// compareReports prints, per workload and end-to-end metric, both
// values, the ratio B/A, and a verdict against the metric's bound.
func compareReports(w io.Writer, benchmarkPath, listA, listB string) error {
	raw, err := os.ReadFile(benchmarkPath)
	if err != nil {
		return err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		return fmt.Errorf("%s: %w", benchmarkPath, err)
	}
	a, err := loadSide(listA)
	if err != nil {
		return err
	}
	b, err := loadSide(listB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-12s %-16s %12s %12s %9s %8s %8s %6s  %s\n",
		"workload", "metric", "A", "B", "B/A", "spreadA", "spreadB", "bound", "verdict")
	for _, wl := range workloadNames {
		for _, m := range bf.EndToEnd {
			va, sa, okA := a.stat(wl, m.Name)
			vb, sb, okB := b.stat(wl, m.Name)
			if !okA || !okB || va == 0 {
				continue
			}
			ratio := vb / va
			worse := ratio - 1 // relative change in the "worse" direction
			if m.Better == "higher" {
				worse = 1 - ratio
			}
			verdict := "within-bound"
			switch {
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved" // the runs disagree with themselves by more than the bound
			case worse > m.Bound:
				verdict = "worse"
			case -worse > m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-12s %-16s %12.4f %12.4f %9.4f %8.4f %8.4f %6.2f  %s (base A=%.4f %s)\n",
				wl, m.Name, va, vb, ratio, sa, sb, m.Bound, verdict, va, m.Unit)
		}
	}
	return nil
}
