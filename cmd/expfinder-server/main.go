// Command expfinder-server serves the ExpFinder HTTP API — the library's
// stand-in for the demo's desktop GUI. It optionally preloads the paper's
// Fig. 1 dataset and imports the graphs of a store directory.
//
// Usage:
//
//	expfinder-server [-addr :8080] [-store DIR] [-demo]
//	                 [-data-dir DIR] [-fsync always|interval|off]
//	                 [-replication-listen ADDR | -replicate-from ADDR]
//	                 [-auth-token TOKEN] [-rate-limit N] [-rate-burst N]
//	                 [-parallelism N] [-request-timeout D]
//	                 [-cache-bytes N] [-trace-sample F] [-slow-query D] [-debug]
//	                 [-log-format text|json]
//	                 [-slo-targets query=500ms,read=100ms] [-shed-heaviest]
//
// With -data-dir set, every graph mutation is durable: mutations append
// to a per-graph write-ahead log under DIR, a background checkpointer
// snapshots growing logs, and at boot the server recovers every
// persisted graph — content, node ids, and version — before serving.
// Only graphs are persisted: statistics are recounted at recovery, and a
// distance index, partitioning or quotient built before the restart must
// be requested again. -fsync selects the durability/throughput trade-off
// (default interval).
//
// -store DIR is a one-shot import: at boot, every graph in the store
// whose name the engine does not already hold (recovered from -data-dir,
// or the demo graph) is loaded and added. With -data-dir an imported
// graph is persisted like any other, so later boots recover it from the
// write-ahead log and skip its store file without decoding it.
//
// Replication (see ARCHITECTURE.md): -replication-listen ADDR makes
// this node a leader streaming its WAL to followers (requires
// -data-dir — the WAL is the replication stream). -replicate-from ADDR
// makes it a follower: it mirrors the leader's graphs, serves reads,
// queries, and subscriptions, and rejects writes with the read_only
// error code naming the leader; POST /api/v1/admin/promote detaches it
// for failover. A follower with -data-dir persists what it applies (and
// its resume state), so a restart catches up by record replay instead
// of re-fetching every graph.
//
// Serving-tier guardrails: -auth-token requires a bearer token on every
// API route, -rate-limit enforces a per-client token-bucket rate
// (req/s), and -request-timeout sets the deadline propagated into the
// engine. Every query, and every other request but streams, promote and
// the debug routes, waits for one of the engine's -parallelism execution
// slots in one queue bounded at 4x that; past it, requests are shed with
// 503 + Retry-After. Non-2xx
// responses carry the uniform envelope
// {"error":{"code","message","details"}} with stable machine-readable
// codes.
//
// Observability: any query request can ask for an inline execution
// profile with ?trace=1 (or X-Trace: 1) — the response then carries the
// span tree of the whole request: cache lookup, the evaluation stage and
// its fixpoint phases, result graph, ranking, WAL appends.
// -trace-sample F additionally traces a random fraction of all requests
// into a bounded ring served at GET /api/v1/debug/traces, -slow-query D
// logs and retains requests over the threshold (GET /api/v1/debug/slow),
// and -debug mounts the Go pprof handlers under /debug/pprof/ (behind
// the bearer token when one is configured). Both debug rings accept
// ?plan=, ?route=, and ?min_ms= filters.
//
// Accounting (always on): every finished request is charged to its
// client (the X-Client-ID header, else the remote host — the same key
// the rate limiter uses; the 32 heaviest are tracked individually) and
// served back at GET /api/v1/stats/clients; per-route-class SLO attainment
// with burn rates is at GET /api/v1/slo (-slo-targets overrides the p99
// targets, e.g. "query=250ms,mutation=100ms"); component health
// (replication lag, checkpoint age, WAL growth, admission queue,
// subscription backlog) rolls up into /healthz as ok|degraded|unhealthy
// with per-component reasons. -shed-heaviest sheds the heaviest client
// first under queue pressure. All log output —
// access log, slow_query lines, boot and replication notices — goes
// through one log/slog handler: key=value text lines, or with
// -log-format json one JSON object per line.
//
// API overview (every route is mounted at /api/v1; other /api/* paths
// answer 404):
//
//	GET    /api/v1/graphs                      list graphs
//	POST   /api/v1/graphs/{name}               upload {"graph": ...} or {"generator": {...}}
//	GET    /api/v1/graphs/{name}               download graph JSON
//	DELETE /api/v1/graphs/{name}               remove graph
//	GET    /api/v1/graphs/{name}/stats         statistics (degree histograms, label selectivity, index/partition state)
//	GET    /api/v1/graphs/{name}/dot           Graphviz export (?drilldown=1)
//	POST   /api/v1/graphs/{name}/query         {"dsl": "...", "k": 5, "semantics": "bounded|dual"} (?dot=1)
//	POST   /api/v1/graphs/{name}/register      register query for incremental maintenance
//	POST   /api/v1/graphs/{name}/updates       {"ops": [{"op":"insert","from":1,"to":2}]}
//	POST   /api/v1/graphs/{name}/nodes         {"label": "SA", "attrs": {...}}
//	DELETE /api/v1/graphs/{name}/nodes/{id}    remove node (+ incident edges)
//	POST   /api/v1/graphs/{name}/nodes/{id}/attrs   {"experience": {"kind":"int","i":9}}
//	POST   /api/v1/graphs/{name}/compress      {"scheme": "bisimulation", "view": ["experience"]}
//	DELETE /api/v1/graphs/{name}/compress      drop compression
//	POST   /api/v1/graphs/{name}/index         build landmark distance index ({"landmarks": k}); no query reads it
//	GET    /api/v1/graphs/{name}/index         index stats
//	DELETE /api/v1/graphs/{name}/index         drop index
//	POST   /api/v1/graphs/{name}/partitions    build edge-cut partitioning ({"parts": P, "strategy": "greedy|hash"}); no query reads it
//	GET    /api/v1/graphs/{name}/partitions    partition stats (fragments, cut edges, exchange volume)
//	DELETE /api/v1/graphs/{name}/partitions    drop partitioning
//	POST   /api/v1/query/batch                 {"queries": [{"graph": ..., "dsl": ..., "k": 5, "semantics": "bounded|dual"}, ...]}
//	POST   /api/v1/graphs/{name}/subscriptions      register a continuous query ({"dsl": ..., "k": 5})
//	GET    /api/v1/graphs/{name}/subscriptions      list subscriptions
//	DELETE /api/v1/graphs/{name}/subscriptions/{id} cancel a subscription
//	GET    /api/v1/graphs/{name}/subscriptions/{id}/events  SSE stream of snapshot + match deltas
//	GET    /api/v1/subscriptions/stats         subscription-hub counters
//	GET    /api/v1/cache/stats                 result-cache counters (byte-budgeted LRU)
//	GET    /api/v1/stats/queries               plan-outcome telemetry (per graph/plan/shape, p50/p95)
//	GET    /api/v1/stats/clients               per-client resource accounting (?window=1m|5m|1h|total)
//	GET    /api/v1/slo                         per-route-class SLO attainment + burn rates
//	GET    /api/v1/admin/persistence           durability stats (WAL sizes, snapshots)
//	POST   /api/v1/admin/persistence/checkpoint  force a checkpoint ({"graph": ...} or all)
//	POST   /api/v1/admin/promote               follower failover: detach and accept writes
//	GET    /api/v1/debug/traces                recent traced requests (span trees)
//	GET    /api/v1/debug/slow                  slow-query log (over -slow-query)
//	GET    /api/v1/debug/replication           replication role, lag, peers, counters
//	GET    /healthz                            component-health rollup (ok|degraded|unhealthy) + recovery (no auth)
//	GET    /metrics                            Prometheus-style metrics (no auth)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"expfinder"
	"expfinder/internal/dataset"
	"expfinder/internal/engine"
	"expfinder/internal/replication"
	"expfinder/internal/server"
	"expfinder/internal/wal"
)

// parseSLOTargets parses the -slo-targets flag: a comma-separated list
// of class=duration entries, e.g. "query=250ms,mutation=100ms".
func parseSLOTargets(s string) (map[string]time.Duration, error) {
	if s == "" {
		return nil, nil
	}
	out := map[string]time.Duration{}
	for _, part := range strings.Split(s, ",") {
		class, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok || class == "" {
			return nil, fmt.Errorf("invalid -slo-targets entry %q: want class=duration", part)
		}
		d, err := time.ParseDuration(val)
		if err != nil {
			return nil, fmt.Errorf("invalid -slo-targets duration %q: %v", val, err)
		}
		out[class] = d
	}
	return out, nil
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	storeDir := flag.String("store", "", "one-shot import at boot: add this store directory's graphs whose names are not already held (recovered or demo)")
	demo := flag.Bool("demo", true, "preload the paper's Fig. 1 dataset as graph \"paper\"")
	cacheBytes := flag.Int64("cache-bytes", 64<<20, "result-cache byte budget (each answer charged its relation and ranking)")
	parallelism := flag.Int("parallelism", 0, "execution slots shared by queries and other requests; 4x as many may queue before 503 (0 = GOMAXPROCS)")
	dataDir := flag.String("data-dir", "", "enable durable persistence (per-graph WAL + snapshots) rooted here")
	fsync := flag.String("fsync", "interval", "WAL fsync policy: always | interval | off")
	authToken := flag.String("auth-token", "", "require this bearer token on all API routes (empty = open)")
	rateLimit := flag.Float64("rate-limit", 0, "per-client request rate limit in req/s (0 = off)")
	rateBurst := flag.Int("rate-burst", 0, "rate-limit burst size (0 = one second of rate)")
	requestTimeout := flag.Duration("request-timeout", 30*time.Second, "per-request deadline propagated into the engine (0 = none)")
	traceSample := flag.Float64("trace-sample", 0, "fraction of requests traced into the debug ring (0 = explicit ?trace=1 only, 1 = all)")
	slowQuery := flag.Duration("slow-query", 0, "log and retain requests slower than this (0 = off)")
	debug := flag.Bool("debug", false, "mount net/http/pprof under /debug/pprof/ (bearer-authed when -auth-token is set)")
	replListen := flag.String("replication-listen", "", "serve WAL-shipping replication to followers on this address (requires -data-dir)")
	replFrom := flag.String("replicate-from", "", "run as a read-only follower of the leader at this replication address")
	logFormat := flag.String("log-format", "text", "log output format: text (key=value lines) | json (one object per line)")
	sloTargetsFlag := flag.String("slo-targets", "", "override per-route-class p99 latency targets, e.g. query=250ms,mutation=100ms")
	shedHeaviest := flag.Bool("shed-heaviest", false, "under execution-queue pressure, shed the dominant client's requests first")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	// The replication leader's and follower's records join the same
	// stream, tagged with their component.
	replLogger := logger.With("component", "replication")
	// fatal is the boot-error exit: same structured stream as everything
	// else, so a crash-looping node's last words are machine-readable too.
	fatal := func(kv ...any) {
		logger.Error("fatal", kv...)
		os.Exit(1)
	}

	sloTargets, err := parseSLOTargets(*sloTargetsFlag)
	if err != nil {
		fatal("err", err)
	}
	if *replListen != "" && *replFrom != "" {
		fatal("err", "-replication-listen and -replicate-from are mutually exclusive: a node is a leader or a follower, not both")
	}
	if *replListen != "" && *dataDir == "" {
		fatal("err", "-replication-listen requires -data-dir: the write-ahead log is the replication stream")
	}

	opts := engine.Options{CacheBytes: *cacheBytes, Parallelism: *parallelism}
	var walMgr *wal.Manager
	if *dataDir != "" {
		policy, err := wal.ParseFsyncPolicy(*fsync)
		if err != nil {
			fatal("err", err)
		}
		walMgr, err = wal.Open(wal.Options{Dir: *dataDir, Fsync: policy})
		if err != nil {
			fatal("op", "open data dir", "err", err)
		}
		opts.Persistence = walMgr
	}
	eng := engine.New(opts)

	// The leader must exist before recovery runs: it taps the WAL
	// manager's observer hook, and recovery fires GraphCreated for every
	// recovered graph — that is how recovered state becomes replicable.
	var leader *replication.Leader
	if *replListen != "" {
		ln, err := net.Listen("tcp", *replListen)
		if err != nil {
			fatal("op", "replication listen", "err", err)
		}
		leader, err = replication.NewLeader(replication.LeaderOptions{
			Engine:   eng,
			WAL:      walMgr,
			Listener: ln,
			Logger:   replLogger,
		})
		if err != nil {
			fatal("op", "start replication leader", "err", err)
		}
		logger.Info("replication", "role", "leader", "listen", fmt.Sprint(leader.Addr()))
	}

	var recovery *engine.RecoverySummary
	if opts.Persistence != nil {
		sum, err := eng.Recover()
		if err != nil {
			fatal("op", "recover", "err", err)
		}
		recovery = sum
		for _, gr := range sum.Graphs {
			if gr.Err != "" {
				logger.Error("recover_failed", "graph", gr.Name, "err", gr.Err,
					"note", "files left for inspection")
				continue
			}
			logger.Info("recovered", "graph", gr.Name, "nodes", gr.Nodes, "edges", gr.Edges,
				"version", gr.Version, "wal_records", gr.Records,
				"torn_tail", gr.TornTail)
		}
	}

	// The follower attaches after recovery: the engine then holds every
	// locally persisted graph, so the hello reports real resume offsets
	// and catch-up replays records instead of re-shipping snapshots. It
	// also flips the engine read-only, so preloads below are skipped —
	// a follower's graphs come from the leader, nowhere else.
	var follower *replication.Follower
	if *replFrom != "" {
		fopts := replication.FollowerOptions{
			Engine: eng,
			Leader: *replFrom,
			Logger: replLogger,
		}
		if *dataDir != "" {
			fopts.StateFile = filepath.Join(*dataDir, "replication-state.json")
		}
		var err error
		follower, err = replication.NewFollower(fopts)
		if err != nil {
			fatal("op", "start replication follower", "err", err)
		}
		logger.Info("replication", "role", "follower", "leader", *replFrom,
			"note", "read-only until promoted")
		if *demo || *storeDir != "" {
			logger.Info("replication", "role", "follower",
				"note", "skipping -demo/-store preloads")
		}
		*demo, *storeDir = false, ""
	}

	if *demo {
		g, _ := dataset.PaperGraph()
		switch err := eng.AddGraph("paper", g); {
		case err == nil:
			logger.Info("preload", "graph", "paper", "source", "demo",
				"nodes", g.NumNodes(), "edges", g.NumEdges())
		case errors.Is(err, engine.ErrGraphExists):
			logger.Info("preload", "graph", "paper", "source", "demo",
				"note", "already present (recovered)")
		case errors.Is(err, wal.ErrExists):
			// Recovery failed for this name and left its files on disk; a
			// fatal exit here would turn one damaged graph into a boot
			// loop. Serve without the demo graph instead.
			logger.Warn("preload_skipped", "graph", "paper", "source", "demo",
				"err", err, "note", "unrecovered persisted state on disk")
		default:
			fatal("op", "preload demo graph", "err", err)
		}
	}
	if *storeDir != "" {
		store, err := expfinder.OpenStore(*storeDir)
		if err != nil {
			fatal("op", "open store", "err", err)
		}
		names, err := store.ListGraphs()
		if err != nil {
			fatal("op", "list store", "err", err)
		}
		held := map[string]bool{}
		for _, name := range eng.ListGraphs() {
			held[name] = true
		}
		for _, name := range names {
			if held[name] {
				logger.Info("preload", "graph", name, "source", "store",
					"note", "already present (recovered)")
				continue
			}
			g, err := store.LoadGraph(name)
			if err != nil {
				logger.Warn("preload_skipped", "graph", name, "source", "store", "err", err)
				continue
			}
			if err := eng.AddGraph(name, g); err != nil {
				logger.Warn("preload_skipped", "graph", name, "source", "store", "err", err)
				continue
			}
			logger.Info("preload", "graph", name, "source", "store",
				"nodes", g.NumNodes(), "edges", g.NumEdges())
		}
	}

	api := server.New(eng, server.Config{
		AuthToken:      *authToken,
		RateLimit:      *rateLimit,
		RateBurst:      *rateBurst,
		RequestTimeout: *requestTimeout,
		TraceSample:    *traceSample,
		SlowQuery:      *slowQuery,
		Debug:          *debug,
		Logger:         logger,
		SLOTargets:     sloTargets,
		ShedHeaviest:   *shedHeaviest,
	})
	// /healthz reports the boot recovery outcome; readiness is implied by
	// serving at all (recovery completed above, before the listener).
	api.SetRecoverySummary(recovery)
	switch {
	case leader != nil:
		api.SetReplication(leader)
	case follower != nil:
		api.SetReplication(follower)
	}
	srv := &http.Server{
		Addr:              *addr,
		Handler:           api,
		ReadHeaderTimeout: 10 * time.Second,
	}

	// Serve until SIGINT/SIGTERM, then shut down in two ordered stages:
	//
	//  1. Drain HTTP. In-flight requests finish (each carries a context
	//     the engine's executor respects); SSE subscription streams that
	//     outlive the 15s drain are cut by the forced Close. Either way,
	//     subscriptions are in-memory client handles — a reconnecting
	//     subscriber gets a fresh snapshot event via the protocol's
	//     overflow→snapshot resync path, so nothing durable is lost with
	//     them.
	//  2. Close the engine. This stops the background checkpointer and
	//     flushes+fsyncs every graph's WAL, so the final mutations the
	//     drain admitted are durable before the process exits. Closing
	//     in the other order would fail the durability hook of any
	//     mutation still draining.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr, "parallelism", eng.Parallelism())
		errc <- srv.ListenAndServe()
	}()
	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case <-ctx.Done():
		stop()
		logger.Info("shutdown", "note", "draining in-flight requests")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Warn("shutdown", "note", "forced close", "err", err)
			_ = srv.Close()
		}
	}
	// Replication detaches before the engine closes: the follower must
	// not apply records into a closing engine, and the leader's observer
	// must unhook before the final WAL flush.
	if follower != nil {
		_ = follower.Close()
	}
	if leader != nil {
		_ = leader.Close()
	}
	if err := eng.Close(); err != nil {
		fatal("op", "persistence close", "err", err)
	}
	if opts.Persistence != nil {
		logger.Info("shutdown", "note", "persistence flushed and closed",
			"dir", opts.Persistence.Dir())
	}
}
