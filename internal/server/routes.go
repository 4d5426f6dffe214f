package server

// The declarative route table. Each entry names one operation once and
// is mounted under /api/v1 through the middleware chain. The openapi
// drift test walks this table against docs/openapi.yaml.

import (
	"net/http"

	"expfinder/internal/api"
)

// route is one API operation.
type route struct {
	method string
	// pattern is the ServeMux path suffix mounted under api.Prefix,
	// using Go 1.22 {wildcard} segments (same syntax OpenAPI uses).
	pattern string
	// name labels the route in metrics, logs, and the OpenAPI spec
	// (operationId).
	name string
	// pool is how the route's requests use the engine's execution pool.
	pool pooling
	h    http.HandlerFunc
}

// pooling says how a route enters the engine's execution pool.
type pooling uint8

const (
	// poolNone: no slot, no deadline. An SSE stream is long-lived by
	// design and must not pin a slot or inherit a deadline; promote and
	// the debug routes must answer while the pool sheds.
	poolNone pooling = iota
	// poolEngine: the deadline and the shed-heaviest check only; each
	// query the handler runs takes its own slot inside Execute.
	poolEngine
	// poolSlot: the deadline, the shed-heaviest check, and one slot for
	// the whole request (Engine.Admit). Such a handler must never call
	// Execute: at Parallelism 1 it would wait for its own slot.
	poolSlot
)

// routes returns the full API route table.
func (s *Server) routes() []route {
	return []route{
		{"GET", "/graphs", "list_graphs", poolSlot, s.listGraphs},
		{"POST", "/graphs/{name}", "create_graph", poolSlot, s.createGraph},
		{"GET", "/graphs/{name}", "get_graph", poolSlot, s.getGraph},
		{"DELETE", "/graphs/{name}", "delete_graph", poolSlot, s.deleteGraph},
		{"GET", "/graphs/{name}/stats", "graph_stats", poolSlot, s.graphStats},
		{"GET", "/graphs/{name}/dot", "graph_dot", poolSlot, s.graphDOT},
		{"POST", "/graphs/{name}/query", "query", poolEngine, s.query},
		{"POST", "/query/batch", "query_batch", poolEngine, s.queryBatch},
		{"POST", "/graphs/{name}/updates", "apply_updates", poolSlot, s.applyUpdates},
		{"POST", "/graphs/{name}/nodes", "add_node", poolSlot, s.addNode},
		{"DELETE", "/graphs/{name}/nodes/{id}", "remove_node", poolSlot, s.removeNode},
		{"POST", "/graphs/{name}/nodes/{id}/attrs", "set_node_attrs", poolSlot, s.setNodeAttrs},
		{"POST", "/graphs/{name}/compress", "compress_graph", poolSlot, s.compressGraph},
		{"DELETE", "/graphs/{name}/compress", "drop_compression", poolSlot, s.dropCompression},
		{"POST", "/graphs/{name}/index", "build_index", poolSlot, s.buildIndex},
		{"GET", "/graphs/{name}/index", "index_stats", poolSlot, s.indexStats},
		{"DELETE", "/graphs/{name}/index", "drop_index", poolSlot, s.dropIndex},
		{"POST", "/graphs/{name}/partitions", "build_partitions", poolSlot, s.buildPartitions},
		{"GET", "/graphs/{name}/partitions", "partition_stats", poolSlot, s.partitionStats},
		{"DELETE", "/graphs/{name}/partitions", "drop_partitions", poolSlot, s.dropPartitions},
		{"POST", "/graphs/{name}/register", "register_query", poolSlot, s.registerQuery},
		{"POST", "/graphs/{name}/subscriptions", "create_subscription", poolSlot, s.createSubscription},
		{"GET", "/graphs/{name}/subscriptions", "list_subscriptions", poolSlot, s.listSubscriptions},
		{"DELETE", "/graphs/{name}/subscriptions/{id}", "delete_subscription", poolSlot, s.deleteSubscription},
		{"GET", "/graphs/{name}/subscriptions/{id}/events", "stream_events", poolNone, s.streamEvents},
		{"GET", "/subscriptions/stats", "subscription_stats", poolSlot, s.subscriptionStats},
		{"GET", "/cache/stats", "cache_stats", poolSlot, s.cacheStats},
		{"GET", "/stats/queries", "query_stats", poolSlot, s.statsQueries},
		{"GET", "/stats/clients", "client_stats", poolSlot, s.statsClients},
		{"GET", "/slo", "slo_report", poolSlot, s.sloReport},
		{"GET", "/admin/persistence", "persistence_stats", poolSlot, s.persistenceStats},
		{"POST", "/admin/persistence/checkpoint", "force_checkpoint", poolSlot, s.forceCheckpoint},
		// Promote must work while a degraded follower sheds load — that is
		// exactly when failover happens — so it skips the pool.
		{"POST", "/admin/promote", "promote", poolNone, s.promote},
		// Debug surfaces skip the pool: inspecting recent and slow
		// traces must keep working while the server sheds load.
		{"GET", "/debug/traces", "debug_traces", poolNone, s.debugTraces},
		{"GET", "/debug/slow", "debug_slow", poolNone, s.debugSlow},
		{"GET", "/debug/replication", "debug_replication", poolNone, s.debugReplication},
	}
}

// mount registers every route under api.Prefix with the per-route slice
// of the middleware chain: metrics -> trace -> auth -> rate limit ->
// admission -> handler. Tracing sits inside metrics (the
// request id is already assigned) and outside auth, so a traced request
// captures its auth, rate-limit, and slot-wait time too.
func (s *Server) mount(mux *http.ServeMux, rts []route) {
	for _, rt := range rts {
		var h http.Handler = rt.h
		if rt.pool != poolNone {
			h = s.withAdmission(rt.pool, h)
		}
		h = s.withRateLimit(h)
		h = s.withAuth(h)
		h = s.withTrace(rt.name, h)
		h = s.withMetrics(rt.name, h)
		mux.Handle(rt.method+" "+api.Prefix+rt.pattern, h)
	}
}
