package main

// A11: per-client accounting overhead and attribution accuracy (ISSUE
// 10: observability). The A7 mixed workload — HTTP, reads plus attr
// writes — driven by eight synthetic client identities (X-Client-ID)
// with a fixed request count per worker, executed against two servers
// that differ only in DisableAccounting. Accounting observes, never
// steers: the identity probe on the untouched graph must answer
// byte-identically between the arms, and on the accounting arm the
// per-client rows of /api/v1/stats/clients must reconcile with the global
// totals exactly and with the requests actually issued to within 1%. The
// throughput overhead is printed, not enforced: the arms time a window of
// a few milliseconds, and the difference swings -7% ... +14% run to run
// on an idle machine — scheduler noise well above any threshold worth
// setting. The repository benchmark (bench/) is where serving cost is
// measured.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"time"

	"expfinder/internal/api"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/server"
)

// a11Stats is one arm's outcome for one rep.
type a11Stats struct {
	label     string
	elapsed   time.Duration
	total     int // requests that got a response (charged ones)
	ok        int
	errs      int
	identBody []byte
	// attributionErr is |sum(per-client requests) - issued| / issued;
	// -1 on the arm without accounting.
	attributionErr float64
	clients        int
}

// runA11Arm drives the fixed workload with workers concurrent clients,
// perWorker requests each, every worker carrying one of eight tenant
// identities.
func runA11Arm(label string, cfg server.Config, n int, seed int64, workers, perWorker int) a11Stats {
	eng := engine.New(engine.Options{})
	if err := eng.AddGraph("g", collab(n, seed)); err != nil {
		panic(err)
	}
	ident, _ := dataset.PaperGraph()
	if err := eng.AddGraph("ident", ident); err != nil {
		panic(err)
	}
	ts := httptest.NewServer(server.New(eng, cfg))
	defer ts.Close()
	client := &http.Client{Timeout: 30 * time.Second}

	queryBody := []byte(fmt.Sprintf(`{"dsl": %q, "k": 5}`, dataset.PaperQueryDSL))
	post := func(url, tenant string, body []byte) (int, []byte) {
		req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			return 0, nil
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-Client-ID", tenant)
		}
		resp, err := client.Do(req)
		if err != nil {
			return 0, nil
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, b
	}

	st := a11Stats{label: label, attributionErr: -1}
	var (
		mu  sync.Mutex
		wg  sync.WaitGroup
		beg = time.Now()
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", w%8)
			rng := rand.New(rand.NewSource(seed + int64(w)))
			var total, ok, errs int
			for i := 0; i < perWorker; i++ {
				var code int
				if rng.Float64() < 0.8 {
					code, _ = post(ts.URL+"/api/v1/graphs/g/query", tenant, queryBody)
				} else {
					body := []byte(fmt.Sprintf(`{"load": {"kind":"int","i":%d}}`, rng.Intn(100)))
					code, _ = post(fmt.Sprintf("%s/api/v1/graphs/g/nodes/%d/attrs", ts.URL, rng.Intn(n)), tenant, body)
				}
				if code == 0 {
					errs++ // no response: nothing charged
					continue
				}
				total++
				if code >= 200 && code < 300 {
					ok++
				}
			}
			mu.Lock()
			st.total += total
			st.ok += ok
			st.errs += errs
			mu.Unlock()
		}(w)
	}
	wg.Wait()
	st.elapsed = time.Since(beg)

	// Identity probe after the storm, against the graph no writer touched.
	code, body := post(ts.URL+"/api/v1/graphs/ident/query", "", queryBody)
	if code != http.StatusOK {
		panic(fmt.Sprintf("a11: identity probe failed: %d %s", code, body))
	}
	st.identBody = canonQueryBody(body)

	// Attribution gate on the accounting arm: the per-client rows must
	// sum to the server's own totals exactly, and to the requests this
	// harness actually saw answered (storm + ident probe) within 1%.
	if cfg.DisableAccounting {
		return st
	}
	resp, err := client.Get(ts.URL + "/api/v1/stats/clients?window=total")
	if err != nil {
		panic(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		panic(fmt.Sprintf("a11: stats/clients failed: %d %s", resp.StatusCode, raw))
	}
	var cs api.ClientStatsResponse
	if err := json.Unmarshal(raw, &cs); err != nil {
		panic(err)
	}
	var sum int64
	for _, cu := range cs.Clients {
		sum += cu.Requests
	}
	if sum != cs.Totals.Requests {
		panic(fmt.Sprintf("a11: per-client rows sum to %d but totals report %d", sum, cs.Totals.Requests))
	}
	issued := int64(st.total + 1) // + the ident probe; the stats GET is charged after its response
	st.attributionErr = math.Abs(float64(sum-issued)) / float64(issued)
	st.clients = len(cs.Clients)
	return st
}

// runA11 checks that accounting observes without steering and attributes
// every request, and reports its serving-path tax.
func runA11(full bool, seed int64) {
	fmt.Println("=== A11: per-client accounting overhead and attribution accuracy ===")
	n, perWorker := 2000, 40
	if full {
		n, perWorker = 8000, 120
	}
	workers := 2 * runtime.GOMAXPROCS(0)
	fmt.Printf("collab graph n=%d, %d workers / 8 tenants, %d requests each (~80%% query / ~20%% attr write), best of 5 interleaved reps per arm\n",
		n, workers, perWorker)

	// Both arms trace every request so the only difference is the
	// ledger/SLO charge path itself.
	on := server.Config{TraceSample: 1}
	off := server.Config{TraceSample: 1, DisableAccounting: true}

	const reps = 5
	dOn := time.Duration(1<<62 - 1)
	dOff := dOn
	var stOn, stOff a11Stats
	for r := 0; r < reps; r++ {
		st := runA11Arm("accounting-off", off, n, seed, workers, perWorker)
		if st.elapsed < dOff {
			dOff = st.elapsed
		}
		stOff = st
		st = runA11Arm("accounting-on", on, n, seed, workers, perWorker)
		if st.elapsed < dOn {
			dOn = st.elapsed
		}
		stOn = st
	}

	fmt.Printf("%16s %9s %9s %6s %12s %10s\n", "arm", "requests", "ok", "errs", "best time", "qps")
	for _, p := range []struct {
		st *a11Stats
		d  time.Duration
	}{{&stOff, dOff}, {&stOn, dOn}} {
		fmt.Printf("%16s %9d %9d %6d %12s %10.0f\n",
			p.st.label, p.st.total, p.st.ok, p.st.errs, p.d, float64(p.st.total)/p.d.Seconds())
	}

	// Correctness gate: accounting observes, never steers.
	if !bytes.Equal(stOn.identBody, stOff.identBody) {
		panic(fmt.Sprintf("a11: query results diverged between arms:\n  on:  %s\n  off: %s",
			stOn.identBody, stOff.identBody))
	}
	fmt.Println("query results byte-identical between arms on the untouched graph (enforced)")

	overhead := (float64(dOn)/float64(dOff) - 1) * 100
	fmt.Printf("accounting overhead: %+.2f%% (reported, not enforced: within this window's run-to-run noise)\n", overhead)
	fmt.Printf("attribution: %d client rows, per-client sum within %.3f%% of issued requests (enforced <= 1%%, row sum == totals exact)\n",
		stOn.clients, stOn.attributionErr*100)
	if stOn.attributionErr > 0.01 {
		panic(fmt.Sprintf("a11: per-client attribution off by %.3f%%, over the 1%% gate", stOn.attributionErr*100))
	}

	art := newArtifact("a11", full, seed)
	art.addDuration("accounting_off_best", dOff)
	art.addDuration("accounting_on_best", dOn)
	art.add("accounting_off_qps", float64(stOff.total)/dOff.Seconds(), "req/s")
	art.add("accounting_on_qps", float64(stOn.total)/dOn.Seconds(), "req/s")
	art.add("overhead_pct", overhead, "%")
	art.add("attribution_err_pct", stOn.attributionErr*100, "%")
	art.add("client_rows", float64(stOn.clients), "clients")
	art.write()
}
