// Package expfinder is a library for finding experts in social networks by
// graph pattern matching, a from-scratch reproduction of the system in
// "ExpFinder: Finding Experts by Graph Pattern Matching" (Fan, Wang, Wu —
// ICDE 2013).
//
// The core idea: express hiring-style requirements as a small pattern graph
// whose nodes carry search conditions ("a system architect with >= 5 years")
// and whose edges carry collaboration-distance bounds ("worked with a
// developer within 2 hops"), evaluate it under bounded graph simulation —
// cubic time, unlike NP-complete subgraph isomorphism — and rank the
// matches of a designated output node by social impact (average distance to
// the rest of the matched team).
//
// Quick start:
//
//	g := expfinder.NewGraph(0)
//	bob := g.AddNode("SA", expfinder.Attrs{
//	    "name":       expfinder.String("Bob"),
//	    "experience": expfinder.Int(7),
//	})
//	// ... add more people and collaboration edges ...
//
//	q, _ := expfinder.ParseQuery(`
//	    node SA [label = "SA", experience >= 5] output
//	    node SD [label = "SD", experience >= 2]
//	    edge SA -> SD bound 2
//	`)
//	eng := expfinder.NewEngine(expfinder.EngineOptions{})
//	eng.AddGraph("team", g)
//	res, _ := eng.Query("team", q, 3) // top-3 experts
//	for _, r := range res.TopK {
//	    fmt.Println(g.MustNode(r.Node).Attrs["name"], r.Rank)
//	}
//	_ = bob
//
// Beyond one-shot queries, the engine supports the full ExpFinder system:
// registered queries maintained incrementally under edge updates
// (RegisterQuery / ApplyUpdates), continuous queries streaming match
// deltas to subscribers (Engine.Subscribe / PushUpdates), query-preserving
// graph compression (CompressGraph), a result cache, file-based graph
// storage, synthetic social-network generators, and an HTTP server
// (cmd/expfinder-server) standing in for the demo's GUI.
package expfinder

import (
	"io"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/engine"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/isomorphism"
	"expfinder/internal/match"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/simulation"
	"expfinder/internal/storage"
	"expfinder/internal/strongsim"
	"expfinder/internal/subscribe"
	"expfinder/internal/wal"
)

// Graph model.
type (
	// Graph is a directed graph with labeled, attributed nodes.
	Graph = graph.Graph
	// NodeID identifies a node within a Graph.
	NodeID = graph.NodeID
	// Node is one node with its label and attributes.
	Node = graph.Node
	// Edge is a directed edge.
	Edge = graph.Edge
	// Attrs maps attribute names to typed values.
	Attrs = graph.Attrs
	// Value is a typed attribute value.
	Value = graph.Value
	// GraphStats summarizes a graph.
	GraphStats = graph.Stats
)

// NewGraph returns an empty graph with a capacity hint.
func NewGraph(nHint int) *Graph { return graph.New(nHint) }

// ReadGraphJSON parses a graph from its JSON form.
func ReadGraphJSON(r io.Reader) (*Graph, error) { return graph.ReadJSON(r) }

// Attribute value constructors.
var (
	// String makes a string attribute value.
	String = graph.String
	// Int makes an integer attribute value.
	Int = graph.Int
	// Float makes a floating-point attribute value.
	Float = graph.Float
	// Bool makes a boolean attribute value.
	Bool = graph.Bool
)

// Unreachable is the distance reported for unreachable node pairs.
const Unreachable = graph.Unreachable

// Pattern queries.
type (
	// Query is a pattern query: predicate nodes, bounded edges, an output node.
	Query = pattern.Pattern
	// QueryNodeIdx indexes a node within a Query.
	QueryNodeIdx = pattern.NodeIdx
	// Predicate is a conjunction of attribute comparisons.
	Predicate = pattern.Predicate
	// Condition is a single attribute comparison.
	Condition = pattern.Condition
	// Op is a comparison operator.
	Op = pattern.Op
)

// Comparison operators for search conditions.
const (
	OpEq       = pattern.OpEq
	OpNe       = pattern.OpNe
	OpLt       = pattern.OpLt
	OpLe       = pattern.OpLe
	OpGt       = pattern.OpGt
	OpGe       = pattern.OpGe
	OpContains = pattern.OpContains
	OpPrefix   = pattern.OpPrefix
)

// Unbounded marks a pattern edge matched by a path of any length.
const Unbounded = pattern.Unbounded

// LabelAttr is the reserved condition attribute that tests a node's label.
const LabelAttr = pattern.LabelAttr

// NewQuery returns an empty pattern query.
func NewQuery() *Query { return pattern.New() }

// ParseQuery parses the pattern DSL:
//
//	node SA [label = "SA", experience >= 5] output
//	node SD [label = "SD"]
//	edge SA -> SD bound 2
func ParseQuery(dsl string) (*Query, error) { return pattern.Parse(dsl) }

// Matching results.
type (
	// MatchRelation is the match relation M(Q,G).
	MatchRelation = match.Relation
	// MatchPair is one (pattern node, data node) match.
	MatchPair = match.Pair
	// ResultGraph is the weighted graph over matches used for display and
	// ranking.
	ResultGraph = match.ResultGraph
	// Ranked is an output-node match with its social-impact rank.
	Ranked = rank.Ranked
)

// Match evaluates q on g under bounded simulation and returns the unique
// maximum match relation. Plain graph simulation is the special case where
// every bound is 1; the engine selects it automatically.
func Match(g *Graph, q *Query) *MatchRelation { return bsim.Compute(g, q) }

// MatchParallel is Match with the dominant support-counting phase spread
// over the given number of worker goroutines; results are identical.
func MatchParallel(g *Graph, q *Query, workers int) *MatchRelation {
	return bsim.ComputeParallel(g, q, workers)
}

// MatchSimulation evaluates q under plain graph simulation (every pattern
// edge must map to a single data edge).
func MatchSimulation(g *Graph, q *Query) *MatchRelation { return simulation.Compute(g, q) }

// MatchDual evaluates q under (bounded) dual simulation: in addition to
// bounded simulation's descendant obligations, every pattern in-edge must
// be witnessed by a matching ancestor. Stricter than Match; the natural
// topology-preserving extension from the same research line.
func MatchDual(g *Graph, q *Query) *MatchRelation { return strongsim.Dual(g, q) }

// PerfectSubgraph is one strong-simulation result: a localized match.
type PerfectSubgraph = strongsim.PerfectSubgraph

// MatchStrong evaluates q under strong simulation: dual simulation
// restricted to balls of radius equal to the pattern diameter, returning
// the deduplicated set of perfect subgraphs.
func MatchStrong(g *Graph, q *Query) []PerfectSubgraph { return strongsim.Strong(g, q) }

// BuildResultGraph constructs the weighted result graph for a relation.
func BuildResultGraph(g *Graph, q *Query, r *MatchRelation) *ResultGraph {
	return match.BuildResultGraph(g, q, r)
}

// TopK ranks the matches of q's output node by social impact (lower rank =
// shorter average collaboration distance) and returns the best k.
func TopK(g *Graph, q *Query, r *MatchRelation, k int) []Ranked {
	return rank.TopK(g, q, r, k)
}

// RankMetric scores experts within a result graph; lower is better. The
// paper's metric is MetricAvgDistance; the others realize its remark that
// "other metrics can be readily supported".
type RankMetric = rank.Metric

// Built-in ranking metrics.
var (
	// MetricAvgDistance is the paper's social-impact rank f().
	MetricAvgDistance RankMetric = rank.AvgDistance{}
	// MetricCloseness is inverse closeness centrality.
	MetricCloseness RankMetric = rank.Closeness{}
	// MetricDegree prefers experts touching more of the matched team.
	MetricDegree RankMetric = rank.Degree{}
	// MetricPageRank prefers experts central to the team's structure.
	MetricPageRank RankMetric = rank.PageRank{}
)

// Engine.
type (
	// Engine manages graphs and runs the full query pipeline: cache,
	// incremental maintenance, compression routing, plan selection.
	Engine = engine.Engine
	// EngineOptions configures an Engine. Parallelism bounds concurrent
	// query executions (QueryBatch/QueryAsync and overlapping Query
	// calls), with 4×Parallelism more queued, and the bounded-simulation
	// worker fan-out; 0 means GOMAXPROCS.
	EngineOptions = engine.Options
	// QueryResult is a query answer with provenance.
	QueryResult = engine.Result
	// UpdateDelta reports how a registered query's matches changed.
	UpdateDelta = engine.Delta
	// Update is an edge insertion or deletion.
	Update = incremental.Update
	// BatchQuery is one query in full — graph, pattern, K, and optionally a
	// matching semantics (MatchSemanticsDual; bounded simulation when unset)
	// and a ranking metric — for Engine.Execute, QueryBatch and QueryAsync.
	BatchQuery = engine.QueryRequest
	// BatchOutcome is the per-query answer of Engine.QueryBatch and
	// Engine.QueryAsync: exactly one of Result and Err is set.
	BatchOutcome = engine.QueryOutcome
	// ErrOverloaded is a query's refusal by a full execution pool: more
	// than 5×Parallelism queries at once (see EngineOptions).
	ErrOverloaded = engine.ErrOverloaded
)

// The values of BatchQuery.Semantics.
const (
	MatchSemanticsBounded = match.Bounded
	MatchSemanticsDual    = match.Dual
)

// NewEngine returns an engine.
func NewEngine(opts EngineOptions) *Engine { return engine.New(opts) }

// InsertEdge builds an edge-insertion update.
func InsertEdge(from, to NodeID) Update { return incremental.Insert(from, to) }

// DeleteEdge builds an edge-deletion update.
func DeleteEdge(from, to NodeID) Update { return incremental.Delete(from, to) }

// Incremental matching without an engine.
type (
	// IncrementalMatcher maintains one query's matches under edge updates.
	IncrementalMatcher = incremental.Matcher
)

// Continuous queries: register a pattern once with Engine.Subscribe and
// receive the match deltas — pairs entering and leaving M(Q,G), and
// optionally re-ranked top-K experts — as updates stream into the graph.
// A subscription's first event is a snapshot; folding the event sequence
// through a SubscriptionMirror reconstructs the exact relation a fresh
// Match would compute, no matter how updates interleave (property-tested).
// Slow consumers never stall updates: bounded buffers coalesce bursts and
// degrade to a resync snapshot on overflow.
type (
	// Subscription is one client's handle on a continuous query; consume
	// with Next (blocking) or Poll.
	Subscription = subscribe.Subscription
	// SubscriptionOptions sets per-subscription ranking (K), buffering,
	// and coalescing.
	SubscriptionOptions = subscribe.Options
	// SubscriptionEvent is one snapshot or delta notification.
	SubscriptionEvent = subscribe.Event
	// SubscriptionInfo is a subscription's observable state.
	SubscriptionInfo = subscribe.Info
	// SubscriptionStats aggregates the engine's subscription counters.
	SubscriptionStats = subscribe.Stats
	// SubscriptionMirror materializes an event stream back into the
	// current match relation.
	SubscriptionMirror = subscribe.Mirror
)

// Subscription event kinds.
const (
	// EventSnapshot events carry the full current relation.
	EventSnapshot = subscribe.Snapshot
	// EventDelta events carry added and removed match pairs.
	EventDelta = subscribe.Delta
)

// ErrSubscriptionClosed terminates Next once a subscription is closed
// and drained; subscriptions on a removed graph end with
// subscribe.ErrGraphRemoved instead.
var ErrSubscriptionClosed = subscribe.ErrClosed

// NewSubscriptionMirror returns a mirror for patterns with n nodes
// (q.NumNodes() for the subscribed query).
func NewSubscriptionMirror(n int) *SubscriptionMirror { return subscribe.NewMirror(n) }

// NewIncrementalMatcher computes M(Q,G) and registers for maintenance. The
// matcher owns subsequent edge updates to g (use Apply).
func NewIncrementalMatcher(g *Graph, q *Query) *IncrementalMatcher {
	return incremental.NewMatcher(g, q)
}

// Compression.
type (
	// CompressedGraph is a query-preserving quotient of a data graph.
	CompressedGraph = compress.Compressed
	// CompressionScheme selects the equivalence relation.
	CompressionScheme = compress.Scheme
	// AttrView restricts which attributes compression distinguishes.
	AttrView = compress.View
	// CompressUpdate is an edge update applied through a compressed
	// graph's Maintain method.
	CompressUpdate = compress.Update
)

// Compression schemes.
const (
	// Bisimulation preserves simulation and bounded simulation.
	Bisimulation = compress.Bisimulation
	// SimulationEquivalence compresses more but preserves only plain
	// simulation.
	SimulationEquivalence = compress.SimulationEquivalence
)

// CompressGraph builds the quotient of g distinguishing all attributes.
func CompressGraph(g *Graph, scheme CompressionScheme) *CompressedGraph {
	return compress.Compress(g, scheme)
}

// CompressGraphWithView builds the quotient distinguishing only the viewed
// attributes (more compression; only queries over those attributes may be
// answered on it).
func CompressGraphWithView(g *Graph, scheme CompressionScheme, view AttrView) *CompressedGraph {
	return compress.CompressWithView(g, scheme, view)
}

// Distance index and partitioning options and stats, for callers of
// Engine.BuildIndex and Engine.PartitionGraph. No query reads either
// structure; the engine builds them, and the next write detaches them.
type (
	// DistanceIndexOptions configures Engine.BuildIndex.
	DistanceIndexOptions = distindex.Options
	// DistanceIndexStats summarizes an index.
	DistanceIndexStats = distindex.Stats
	// PartitionOptions configures Engine.PartitionGraph (fragment count and
	// assignment strategy).
	PartitionOptions = partition.Options
	// PartitionStrategy selects the node-to-fragment assignment policy.
	PartitionStrategy = partition.Strategy
	// PartitionStats summarizes fragments, cut edges, ghosts, and the
	// cumulative boundary-exchange volume.
	PartitionStats = partition.Stats
)

// Partitioning strategies.
const (
	// PartitionGreedy is locality-aware streaming assignment: fewer cut
	// edges, deterministic.
	PartitionGreedy = partition.StrategyGreedy
	// PartitionHash is stateless hashed assignment: perfectly balanced,
	// topology-blind.
	PartitionHash = partition.StrategyHash
)

// Generators.
type (
	// GeneratorConfig parameterizes the synthetic graph generators.
	GeneratorConfig = generator.Config
	// GeneratorKind names a generator.
	GeneratorKind = generator.Kind
)

// Generator kinds.
const (
	GenErdosRenyi     = generator.KindER
	GenBarabasiAlbert = generator.KindBA
	GenCollaboration  = generator.KindCollab
	GenTwitter        = generator.KindTwit
)

// Generate builds a synthetic social network.
func Generate(kind GeneratorKind, cfg GeneratorConfig) (*Graph, error) {
	return generator.Generate(kind, cfg)
}

// Storage.
type (
	// Store is a directory-backed repository of graphs.
	Store = storage.Store
	// StoreFormat selects the on-disk graph format.
	StoreFormat = storage.Format
)

// On-disk graph formats.
const (
	FormatJSON   = storage.FormatJSON
	FormatBinary = storage.FormatBinary
)

// OpenStore creates/opens a store rooted at dir.
func OpenStore(dir string) (*Store, error) { return storage.Open(dir) }

// Durable persistence: pass an open PersistenceManager as
// EngineOptions.Persistence and every mutation of every managed graph
// becomes durable — appended to a per-graph write-ahead log, snapshotted
// by a background checkpointer, and replayed by Engine.Recover() at the
// next boot. Call Engine.Close() on shutdown to flush the log.
type (
	// PersistenceManager owns the write-ahead logs and snapshots under
	// one data directory.
	PersistenceManager = wal.Manager
	// PersistenceStats aggregates log-manager counters and per-graph
	// WAL/snapshot state.
	PersistenceStats = wal.Stats
	// RecoverySummary reports Engine.Recover's per-graph outcomes.
	RecoverySummary = engine.RecoverySummary
)

// Baselines.
type (
	// IsoOptions bounds the subgraph-isomorphism baseline search.
	IsoOptions = isomorphism.Options
	// IsoResult carries isomorphism embeddings and statistics.
	IsoResult = isomorphism.Result
)

// MatchIsomorphism runs the VF2-style subgraph-isomorphism baseline — the
// comparison point the paper argues against, kept for experiments.
func MatchIsomorphism(g *Graph, q *Query, opts IsoOptions) *IsoResult {
	return isomorphism.Find(g, q, opts)
}
