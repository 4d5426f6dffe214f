// Package api defines the versioned wire contract of the ExpFinder HTTP
// surface: typed request/response DTOs for every /api/v1 endpoint plus
// the uniform JSON error envelope with stable, machine-readable error
// codes. internal/server renders through these types, with one exception
// on the way out: it writes query and batch responses by hand, byte for
// byte what encoding/json writes for QueryResponse and BatchResponse,
// which stay the types clients decode into. Endpoints that expose a
// subsystem's own Stats struct (index, partitions, persistence,
// subscriptions) pass it through verbatim; this package types everything
// whose shape the API itself owns.
package api

import (
	"encoding/json"

	"expfinder/internal/account"
	"expfinder/internal/graph"
	"expfinder/internal/stats"
	"expfinder/internal/trace"
)

// Version is the current API version prefix.
const Version = "v1"

// Prefix is the mount point of the API surface.
const Prefix = "/api/v1"

// GraphSummary is one entry of the graph listing.
type GraphSummary struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// GeneratorSpec asks the server to generate a synthetic graph.
type GeneratorSpec struct {
	Kind      string  `json:"kind"`
	Nodes     int     `json:"nodes"`
	AvgDegree float64 `json:"avg_degree"`
	Seed      int64   `json:"seed"`
}

// CreateGraphRequest uploads a graph directly or asks for a generated
// one; exactly one of Graph and Generator must be set.
type CreateGraphRequest struct {
	// Graph, when set, is a full graph in the standard JSON form.
	Graph json.RawMessage `json:"graph,omitempty"`
	// Generator, when set, generates a synthetic graph instead.
	Generator *GeneratorSpec `json:"generator,omitempty"`
}

// CreateGraphResponse acknowledges a created graph.
type CreateGraphResponse struct {
	Name  string `json:"name"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

// QueryRequest carries a pattern in JSON form or DSL text, plus K and an
// optional matching semantics ("bounded" default, or "dual": additionally
// enforce ancestor obligations). Both go through the engine's one query
// pipeline: slot, cache, trace, plan record and client ledger alike.
type QueryRequest struct {
	Pattern   json.RawMessage `json:"pattern,omitempty"`
	DSL       string          `json:"dsl,omitempty"`
	K         int             `json:"k"`
	Semantics string          `json:"semantics,omitempty"`
	// Metric selects the ranking: avg-distance (default), closeness,
	// degree, or pagerank.
	Metric string `json:"metric,omitempty"`
}

// TopEntry is one ranked expert of a query answer. A match connected to
// nothing ranks +Inf, which JSON cannot spell: the server writes its rank
// as null (decoded here as 0) beside a connected of 0.
type TopEntry struct {
	Node      int64   `json:"node"`
	Name      string  `json:"name,omitempty"`
	Rank      float64 `json:"rank"`
	Connected int     `json:"connected"`
}

// QueryResponse is the full query answer.
type QueryResponse struct {
	Plan      string             `json:"plan"`
	Source    string             `json:"source"`
	ElapsedUS int64              `json:"elapsed_us"`
	Matches   map[string][]int64 `json:"matches"`
	TopK      []TopEntry         `json:"top_k"`
	ResultDOT string             `json:"result_dot,omitempty"`
	// Trace is the execution span tree, present only when the request
	// opted in with ?trace=1 or X-Trace: 1.
	Trace *trace.TraceJSON `json:"trace,omitempty"`
}

// BatchQuery is one query of a batch request: a target graph plus the
// single-endpoint pattern/DSL, K, semantics and metric fields.
type BatchQuery struct {
	Graph     string          `json:"graph"`
	Pattern   json.RawMessage `json:"pattern,omitempty"`
	DSL       string          `json:"dsl,omitempty"`
	K         int             `json:"k"`
	Semantics string          `json:"semantics,omitempty"`
	Metric    string          `json:"metric,omitempty"`
}

// BatchRequest evaluates many queries in one request.
type BatchRequest struct {
	Queries []BatchQuery `json:"queries"`
}

// BatchEntry is one outcome of a batch: either Error or the embedded
// response. A failed query never fails the batch.
type BatchEntry struct {
	QueryResponse
	Error string `json:"error,omitempty"`
}

// BatchResponse returns batch outcomes in request order.
type BatchResponse struct {
	Results []BatchEntry `json:"results"`
	// Trace is the whole batch's execution span tree (one engine.query
	// span per query), present only when the request opted in with
	// ?trace=1 or X-Trace: 1.
	Trace *trace.TraceJSON `json:"trace,omitempty"`
}

// DebugTracesResponse is the recent-trace ring served by
// GET /debug/traces, newest first.
type DebugTracesResponse struct {
	Traces []*trace.TraceJSON `json:"traces"`
}

// BuildInfo identifies the running binary; exposed as the
// expfinder_build_info gauge labels and echoed in /healthz.
type BuildInfo struct {
	Version    string `json:"version"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// QueryStatsResponse is the plan-outcome telemetry served by
// GET /stats/queries: rolling per-(graph, plan, shape) summaries,
// busiest first, plus how many outcomes the bounded recorder dropped.
type QueryStatsResponse struct {
	Summaries []stats.Summary `json:"summaries"`
	Dropped   uint64          `json:"dropped"`
}

// ClientStatsResponse is the per-client resource accounting served by
// GET /stats/clients: each client's bill over the requested window,
// heaviest wall time first (clients beyond the tracked top-K fold into
// the "other" bucket), plus the exact since-boot global totals.
type ClientStatsResponse struct {
	Window  string                `json:"window"`
	Clients []account.ClientUsage `json:"clients"`
	Totals  account.Usage         `json:"totals"`
}

// SLOResponse is the per-route-class objective report served by
// GET /slo: availability and latency attainment with burn rates over
// the 1m/5m/1h windows.
type SLOResponse struct {
	Classes []account.ClassReport `json:"classes"`
}

// DebugSlowResponse is the slow-query log served by GET /debug/slow,
// newest first. ThresholdUS is the configured threshold (0 = disabled).
type DebugSlowResponse struct {
	ThresholdUS int64              `json:"threshold_us"`
	Entries     []*trace.SlowEntry `json:"entries"`
}

// UpdateOp is one edge mutation.
type UpdateOp struct {
	Op   string `json:"op"` // "insert" | "delete"
	From int64  `json:"from"`
	To   int64  `json:"to"`
}

// UpdateRequest applies a batch of edge updates.
type UpdateRequest struct {
	Ops []UpdateOp `json:"ops"`
}

// DeltaSummary reports how one registered query's matches changed.
type DeltaSummary struct {
	PatternHash string `json:"pattern_hash"`
	Added       int    `json:"added"`
	Removed     int    `json:"removed"`
}

// UpdateResponse acknowledges an applied update batch.
type UpdateResponse struct {
	Applied int            `json:"applied"`
	Deltas  []DeltaSummary `json:"deltas"`
	// Notified is how many live subscriptions were handed a match delta.
	Notified int `json:"notified"`
}

// AddNodeRequest creates one node.
type AddNodeRequest struct {
	Label string                 `json:"label"`
	Attrs map[string]graph.Value `json:"attrs,omitempty"`
}

// AddNodeResponse returns the id of a created node.
type AddNodeResponse struct {
	ID int64 `json:"id"`
}

// RegisterResponse acknowledges a query registered for incremental
// maintenance.
type RegisterResponse struct {
	Registered string `json:"registered"` // pattern hash
}

// CompressRequest selects a compression scheme and attribute view.
type CompressRequest struct {
	Scheme string   `json:"scheme"` // "bisimulation" (default) | "simulation-equivalence"
	View   []string `json:"view,omitempty"`
	// FullView distinguishes all attributes (ignores View).
	FullView bool `json:"full_view,omitempty"`
}

// CompressResponse reports the built quotient.
type CompressResponse struct {
	Scheme string  `json:"scheme"`
	Nodes  int     `json:"nodes"`
	Edges  int     `json:"edges"`
	Ratio  float64 `json:"ratio"`
}

// IndexRequest configures a distance-index build.
type IndexRequest struct {
	// Landmarks caps the landmark count; 0 (or absent) indexes every
	// node, making all bounded-reachability answers label-only.
	Landmarks int `json:"landmarks"`
}

// PartitionRequest configures a partition build.
type PartitionRequest struct {
	// Parts is the fragment count; 0 (or absent) means the engine's
	// parallelism.
	Parts int `json:"parts"`
	// Strategy is "greedy" (default: locality-aware, fewer cut edges)
	// or "hash" (stateless, perfectly balanced).
	Strategy string `json:"strategy,omitempty"`
}

// SubscribeRequest registers a standing query.
type SubscribeRequest struct {
	Pattern json.RawMessage `json:"pattern,omitempty"`
	DSL     string          `json:"dsl,omitempty"`
	// K re-ranks the top-K experts on every event (0 disables ranking).
	K int `json:"k"`
	// Buffer bounds unconsumed events (0 = default); overflow collapses
	// the backlog into one resync snapshot.
	Buffer int `json:"buffer"`
	// NoCoalesce preserves every delta instead of merging bursts.
	NoCoalesce bool `json:"no_coalesce"`
}

// SubscribeResponse acknowledges a created subscription.
type SubscribeResponse struct {
	ID          string `json:"id"`
	PatternHash string `json:"pattern_hash"`
	EventsURL   string `json:"events_url"`
}

// CacheStatsResponse reports the byte-budgeted result cache's counters.
type CacheStatsResponse struct {
	Hits      int `json:"hits"`
	Misses    int `json:"misses"`
	Evictions int `json:"evictions"`
	Entries   int `json:"entries"`
	// Bytes is the accounted size of all cached answers (relation and
	// ranking of each); BudgetBytes is the eviction threshold.
	Bytes       int64 `json:"bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
}

// CheckpointRequest selects what to checkpoint; an absent/empty graph
// name means every managed graph.
type CheckpointRequest struct {
	Graph string `json:"graph,omitempty"`
}
