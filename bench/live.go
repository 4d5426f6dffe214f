package main

// The end-to-end half: a real expfinder-server process on loopback,
// loaded and driven over its public HTTP API, tracing off.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/api"
)

// outcome is one measured request as the client saw it.
type outcome struct {
	req    *request
	idx    int     // index into the workload's Reads or Writes
	ms     float64 // latency; from the due time for paced requests
	late   bool    // paced request sent more than 1 ms after it was due
	status int
	body   []byte // nil when the answer was checked inline
	ok     bool   // transport succeeded, and the inline check if any
}

// phase is everything observed during one measured phase.
type phase struct {
	reads, writes []outcome
	elapsed       float64 // seconds, first send to last completion
	attempted     int     // requests the phase was to send
	unsent        int     // of those, cut off by the deadline guard
	serverCPU     float64 // seconds
	clientCPU     float64
	peakRSSMB     float64
	before, after counters
	setups        []float64 // seconds each
	routes        map[int]route
	failed        int
	failures      []string // first few reasons, for the log
}

func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 5 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// setUp starts a fresh server and brings it to the point where the
// first measured request can be sent: boot, graph creation, accelerator
// builds, registration, warm-up. The returned duration is setup_s.
func setUp(bin, runDir string, in *inputs, n int) (*serverProc, string, float64, error) {
	var extra []string
	dataDir := ""
	if len(in.Writes) > 0 { // the "full node": durable, interval fsync
		dataDir = filepath.Join(runDir, fmt.Sprintf("data-%d", n))
		extra = []string{"-data-dir", dataDir, "-fsync", "interval"}
	}
	start := time.Now()
	s, err := startServer(bin, runDir, extra...)
	if err != nil {
		return nil, "", 0, err
	}
	gen := api.CreateGraphRequest{Generator: &api.GeneratorSpec{
		Kind: "collab", Nodes: graphNodes, AvgDegree: graphDegree, Seed: datasetSeed}}
	parts := api.PartitionRequest{Parts: 2, Strategy: "greedy"}
	comp := api.CompressRequest{Scheme: "bisimulation", View: []string{"experience"}}
	type step struct {
		path string
		body any
	}
	var steps []step
	add := func(path string, body any) { steps = append(steps, step{path, body}) }
	for _, name := range in.Graphs {
		add("/api/v1/graphs/"+name, gen)
	}
	switch {
	case in.Workload == "query-accel":
		add("/api/v1/graphs/gi/index", api.IndexRequest{})
		add("/api/v1/graphs/gp/partitions", parts)
		add("/api/v1/graphs/gc/compress", comp)
	case len(in.Writes) > 0:
		add("/api/v1/graphs/g/partitions", parts)
		add("/api/v1/graphs/g/compress", comp)
		for _, dsl := range in.Register {
			add("/api/v1/graphs/g/register", api.QueryRequest{DSL: dsl})
		}
	}
	for _, st := range steps {
		if err := s.call("POST", st.path, st.body, nil); err != nil {
			s.kill()
			return nil, "", 0, err
		}
	}
	for i := range in.Warm {
		status, body, err := s.do("POST", in.Warm[i].path(), in.Warm[i].body)
		if err != nil || status != 200 {
			s.kill()
			return nil, "", 0, fmt.Errorf("warm-up %s: status %d err %v: %s", in.Warm[i].path(), status, err, body)
		}
	}
	return s, dataDir, time.Since(start).Seconds(), nil
}

// send issues one request and records its outcome. due is when the
// request was scheduled (equal to now for closed-loop clients).
func send(s *serverProc, rq *request, idx int, due time.Time, inline func(*request, []byte) bool) outcome {
	o := outcome{req: rq, idx: idx, late: time.Since(due) > time.Millisecond}
	status, body, err := s.do("POST", rq.path(), rq.body)
	o.ms = float64(time.Since(due)) / 1e6
	o.status, o.ok = status, err == nil
	if inline != nil && o.ok && status == 200 {
		o.ok = inline(rq, body)
	} else {
		o.body = body
	}
	return o
}

// closedLoop drives reqs from `clients` goroutines sharing one cursor:
// each sends its next request only after the previous one completed.
func closedLoop(s *serverProc, reqs []request, clients int, deadline time.Time, inline func(*request, []byte) bool) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) || time.Now().After(deadline) {
					return
				}
				out[i] = send(s, &reqs[i], i, time.Now(), inline)
			}
		}()
	}
	wg.Wait()
	return out
}

// measure runs the workload's measured phase against a set-up server.
func measure(s *serverProc, in *inputs, seconds float64, inline func(*request, []byte) bool) (*phase, error) {
	p := &phase{}
	var err error
	if p.before, err = s.readCounters(); err != nil {
		return nil, err
	}
	// Ops not finished by the deadline guard count as failed; it is wide
	// enough that only a hang or a several-fold slowdown reaches it.
	deadline := time.Now().Add(time.Duration((3*seconds + 5) * float64(time.Second)))
	cpu0, self0, start := s.cpuSeconds(), selfCPUSeconds(), time.Now()
	switch in.Workload {
	case "ingest":
		p.writes = closedLoop(s, in.Writes, 1, deadline, nil)
	case "mixed-rw":
		// Open-loop writer: batch i is due at its generated arrival time
		// whatever happened to batch i-1, and is timed from that due
		// time. One closed-loop reader cycles its pool until the writer
		// is done.
		done := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				j := i % len(in.Reads)
				p.reads = append(p.reads, send(s, &in.Reads[j], j, time.Now(), nil))
			}
		}()
		for i := range in.Writes {
			due := start.Add(in.Due[i])
			if due.After(deadline) {
				break
			}
			time.Sleep(time.Until(due))
			p.writes = append(p.writes, send(s, &in.Writes[i], i, due, nil))
		}
		close(done)
		wg.Wait()
	default:
		p.reads = closedLoop(s, in.Reads, 2, deadline, inline)
	}
	p.elapsed = time.Since(start).Seconds()
	p.serverCPU, p.clientCPU = s.cpuSeconds()-cpu0, selfCPUSeconds()-self0
	p.peakRSSMB = s.peakRSSMB()
	if p.after, err = s.readCounters(); err != nil {
		return nil, err
	}
	return p, nil
}

// collectRoutes records where the server said each stored answer came
// from (plan and source are recorded, never asserted).
func (p *phase) collectRoutes() {
	p.routes = map[int]route{}
	for i := range p.reads {
		if o := &p.reads[i]; o.body != nil {
			if plan, source, _, ok := splitResponse(o.body); ok {
				p.routes[o.idx] = route{plan, source}
			}
		}
	}
}

// checkAnswers verifies every response of the phase. expected maps a
// Reads index to the response tail the reference algorithms produce;
// reads without an entry are checked for 2xx, decodable, non-empty
// matches. Failures accumulate on p.
func checkAnswers(p *phase, in *inputs, expected map[int][]byte) {
	attemptedReads := len(in.Reads)
	if in.Workload == "mixed-rw" {
		attemptedReads = len(p.reads)
	}
	seen := 0
	for i := range p.reads {
		o := &p.reads[i]
		if o.req == nil {
			continue // never sent: counted below
		}
		seen++
		if !o.ok || o.status != 200 {
			p.fail("query %d: status %d ok=%v: %.120s", o.idx, o.status, o.ok, o.body)
			continue
		}
		if o.body == nil {
			continue // checked inline
		}
		plan, source, tail, ok := splitResponse(o.body)
		if !ok {
			p.fail("query %d: undecodable response", o.idx)
			continue
		}
		if want, sampled := expected[o.idx]; sampled {
			if !bytes.Equal(tail, want) {
				p.fail("query %d (%s/%s): answer differs from the reference", o.idx, plan, source)
			}
			continue
		}
		var resp api.QueryResponse
		if json.Unmarshal(o.body, &resp) != nil || len(resp.Matches) == 0 {
			p.fail("query %d: undecodable or empty matches", o.idx)
		}
	}
	p.unsent += attemptedReads - seen
	sentWrites := 0
	for i := range p.writes {
		o := &p.writes[i]
		if o.req == nil {
			continue
		}
		sentWrites++
		var resp api.UpdateResponse
		if !o.ok || o.status != 200 || json.Unmarshal(o.body, &resp) != nil || resp.Applied != len(o.req.Ops) {
			p.fail("update %d: status %d ok=%v: %.120s", o.idx, o.status, o.ok, o.body)
		}
	}
	p.unsent += len(in.Writes) - sentWrites
	p.attempted = attemptedReads + len(in.Writes)
	for i := 0; i < p.unsent; i++ {
		p.fail("request not sent before the deadline guard")
	}
}

// checkGraph compares the server's graph "g" — version and full image —
// with the replica the update stream was generated against.
func checkGraph(s *serverProc, in *inputs) error {
	var st struct{ Version uint64 }
	if err := s.call("GET", "/api/v1/graphs/g/stats", nil, &st); err != nil {
		return err
	}
	if st.Version != in.Final.Version() {
		return fmt.Errorf("graph version %d, replica %d", st.Version, in.Final.Version())
	}
	status, image, err := s.do("GET", "/api/v1/graphs/g", nil)
	if err != nil || status != 200 {
		return fmt.Errorf("GET graph: status %d err %v", status, err)
	}
	want, err := in.Final.MarshalJSON()
	if err != nil {
		return err
	}
	if !bytes.Equal(image, want) {
		return fmt.Errorf("graph image differs from the replica (%d vs %d bytes)", len(image), len(want))
	}
	return nil
}

// liveRun is one full end-to-end pass of a workload: `setups` fresh
// set-ups (the last one is measured), the measured phase, and the
// checks that need the live server (final graph state, crash recovery).
// It returns the phase and the data dir the server left behind (write
// workloads), with the server stopped; the caller checks the answers.
func liveRun(bin, runDir string, in *inputs, seconds float64, setups int, inline func(*request, []byte) bool) (*phase, string, error) {
	var s *serverProc
	var dataDir string
	var times []float64
	for n := 0; n < setups; n++ {
		if s != nil {
			s.kill()
			if dataDir != "" {
				os.RemoveAll(dataDir)
			}
		}
		var took float64
		var err error
		if s, dataDir, took, err = setUp(bin, runDir, in, n); err != nil {
			return nil, "", err
		}
		times = append(times, took)
	}
	defer func() { s.kill() }()
	p, err := measure(s, in, seconds, inline)
	if err != nil {
		return nil, "", err
	}
	p.setups = times
	walDir := dataDir // what a crash here would leave: the replay times recovery on it
	if in.Final != nil {
		if err := checkGraph(s, in); err != nil {
			p.fail("final state: %v", err)
		}
	}
	if in.Workload == "ingest" {
		// Durability of acknowledged writes: crash the server, restart it
		// on the same data dir, and demand the same graph again.
		s.kill()
		// Recovery re-checkpoints the dir; the replay times recovery on a
		// copy of what the crash left.
		walDir = dataDir + "-crashed"
		if err := os.CopyFS(walDir, os.DirFS(dataDir)); err != nil {
			return nil, "", err
		}
		if s, err = startServer(bin, runDir, "-data-dir", dataDir, "-fsync", "interval"); err != nil {
			return nil, "", fmt.Errorf("restart after SIGKILL: %w", err)
		}
		if err := checkGraph(s, in); err != nil {
			p.fail("state lost across the crash: %v", err)
		}
	}
	return p, walDir, nil
}

func okLatencies(outcomes []outcome) []float64 {
	var ms []float64
	for i := range outcomes {
		if o := &outcomes[i]; o.req != nil && o.ok && o.status == 200 {
			ms = append(ms, o.ms)
		}
	}
	sort.Float64s(ms)
	return ms
}

// percentile is nearest-rank on a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
