// Package stats is ExpFinder's workload- and graph-statistics
// subsystem: the evidence layer the cost-based planner direction needs
// (ROADMAP, "capabilities and hints"). It has two halves:
//
//   - Graph statistics (this file): online in/out-degree histograms
//     (log-bucketed), label frequency counters, and label-pair
//     selectivity counters, maintained incrementally by the engine's
//     mutation fan-out — the same place compressed views, distance
//     indexes, and partitionings sync. Every maintained figure carries
//     a graph.Version()-keyed freshness stamp; a consumer that finds
//     the stamp stale rebuilds from the graph instead of trusting the
//     counters, so drift can cost a recount but never a wrong answer.
//
//   - Plan-outcome telemetry (recorder.go): a bounded recorder fed
//     from finished query traces that aggregates per-(graph, plan,
//     pattern-shape) execution outcomes — candidate counts, stage
//     durations, cache hits, distindex proved/refuted ratios — into
//     rolling summaries with p50/p95.
//
// Statistics are derived state and are never persisted: recovery
// recounts them from the recovered graph (NewGraph), which costs a
// fraction of decoding the graph image itself.
package stats

import (
	"math/bits"
	"sort"
	"sync"

	"expfinder/internal/graph"
)

// DegreeBuckets is the number of log-scale degree buckets: bucket i
// holds degrees d with bits.Len(d) == i, i.e. bucket 0 is degree 0,
// bucket 1 is degree 1, bucket 2 is 2–3, bucket 3 is 4–7, and so on.
// 32 buckets cover every degree an int32-id graph can produce.
const DegreeBuckets = 32

// DegreeBucket maps a degree to its histogram bucket index.
func DegreeBucket(d int) int { return bits.Len(uint(d)) }

// BucketUpperBound returns the largest degree bucket i holds
// (inclusive): 0, 1, 3, 7, 15, ...
func BucketUpperBound(i int) int {
	if i == 0 {
		return 0
	}
	return 1<<i - 1
}

// Update is one edge mutation, already applied to the graph.
type Update = graph.Update

// labelID is a dense intern id for a node label; label-pair counting
// hashes one uint64 per edge op instead of two strings.
type labelID int32

// Graph holds incrementally maintained statistics of one data graph.
// Methods are safe for concurrent use; the engine additionally
// serializes maintenance calls under the graph's write lock, so the
// internal mutex only coordinates maintenance against snapshot reads.
type Graph struct {
	mu sync.Mutex

	// version is the graph.Version() the counters describe — the
	// freshness stamp. A Snapshot finding version != g.Version()
	// rebuilds instead of trusting the counters.
	version uint64
	// rebuilds counts from-scratch recounts (one at construction).
	rebuilds uint64

	nodes, edges int
	outHist      [DegreeBuckets]int64
	inHist       [DegreeBuckets]int64

	// Per-node mirrors, indexed by NodeID (dense, tombstones included):
	// the degree a node contributed to the histograms and the label it
	// contributed to the frequency counters. The mirrors make every
	// incremental move O(1) and order-independent within a batch.
	outDeg, inDeg []int32
	labelOf       []labelID // -1 for dead/never-seen ids

	labelNames []string // labelID -> label
	labelIDs   map[string]labelID
	labelCount []int64 // live nodes per labelID
	// edgePairs counts live edges by (source label, target label) —
	// the label-pair selectivity evidence: count/edges is the fraction
	// of edges a pattern edge with those endpoint labels can match.
	edgePairs map[uint64]int64
}

// NewGraph builds statistics for g by a full recount and stamps them
// fresh at g's current version.
func NewGraph(g *graph.Graph) *Graph {
	s := &Graph{}
	s.mu.Lock()
	s.rebuildLocked(g)
	s.mu.Unlock()
	return s
}

// Fresh reports whether the counters describe g's current version.
func (s *Graph) Fresh(g *graph.Graph) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.version == g.Version()
}

// RefreshVersion re-stamps the counters at g's current version without
// touching them. For the paths where the version moved but the content
// the counters describe did not: a rolled-back update batch (content
// restored, version advanced) and replicated-record replay (version
// restored to the leader's after the syncs already ran).
func (s *Graph) RefreshVersion(g *graph.Graph) {
	s.mu.Lock()
	s.version = g.Version()
	s.mu.Unlock()
}

// Rebuilds returns how many from-scratch recounts the stats have paid
// (1 for a freshly built instance; more means a consumer caught a
// stale stamp).
func (s *Graph) Rebuilds() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rebuilds
}

// internLocked returns the dense id for a label, allocating one on
// first sight.
func (s *Graph) internLocked(label string) labelID {
	if id, ok := s.labelIDs[label]; ok {
		return id
	}
	id := labelID(len(s.labelNames))
	s.labelNames = append(s.labelNames, label)
	s.labelCount = append(s.labelCount, 0)
	s.labelIDs[label] = id
	return id
}

func pairKey(from, to labelID) uint64 {
	return uint64(uint32(from))<<32 | uint64(uint32(to))
}

// growLocked extends the per-node mirrors to cover id.
func (s *Graph) growLocked(id graph.NodeID) {
	for len(s.outDeg) <= int(id) {
		s.outDeg = append(s.outDeg, 0)
		s.inDeg = append(s.inDeg, 0)
		s.labelOf = append(s.labelOf, -1)
	}
}

// moveBucket shifts one count from the bucket of degree d to the
// bucket of degree d+delta (delta is ±1).
func moveBucket(hist *[DegreeBuckets]int64, d, delta int) {
	hist[DegreeBucket(d)]--
	hist[DegreeBucket(d+delta)]++
}

// Sync applies the histogram deltas of an edge-update batch that has
// already been applied to g, then stamps the counters at g's current
// version. The engine calls it under the graph's write lock, after the
// other consumers, on exactly the ops that applied.
func (s *Graph) Sync(g *graph.Graph, ops []Update) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, op := range ops {
		s.growLocked(op.From)
		s.growLocked(op.To)
		pk := pairKey(s.labelOf[op.From], s.labelOf[op.To])
		if op.Insert {
			moveBucket(&s.outHist, int(s.outDeg[op.From]), +1)
			s.outDeg[op.From]++
			moveBucket(&s.inHist, int(s.inDeg[op.To]), +1)
			s.inDeg[op.To]++
			s.edgePairs[pk]++
			s.edges++
		} else {
			moveBucket(&s.outHist, int(s.outDeg[op.From]), -1)
			s.outDeg[op.From]--
			moveBucket(&s.inHist, int(s.inDeg[op.To]), -1)
			s.inDeg[op.To]--
			if s.edgePairs[pk]--; s.edgePairs[pk] == 0 {
				delete(s.edgePairs, pk)
			}
			s.edges--
		}
	}
	s.version = g.Version()
}

// SyncNodeAdded accounts a node just added to g (zero degree, label
// from the graph) and stamps the counters.
func (s *Graph) SyncNodeAdded(g *graph.Graph, id graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growLocked(id)
	lid := s.internLocked(g.Label(id))
	s.labelOf[id] = lid
	s.labelCount[lid]++
	s.outHist[0]++
	s.inHist[0]++
	s.nodes++
	s.version = g.Version()
}

// SyncNodeRemoved accounts a node just removed from g. The engine
// detaches incident edges through Sync first (mirroring RemoveNode's
// two-phase shape), so the node leaves at degree zero.
func (s *Graph) SyncNodeRemoved(g *graph.Graph, id graph.NodeID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.growLocked(id)
	if lid := s.labelOf[id]; lid >= 0 {
		s.labelCount[lid]--
		s.labelOf[id] = -1
	}
	s.outHist[0]--
	s.inHist[0]--
	s.nodes--
	s.version = g.Version()
}

// SyncAttrChanged follows an attribute update: attributes do not move
// any counter (labels are immutable through the engine's mutation
// surface), so only the stamp advances.
func (s *Graph) SyncAttrChanged(g *graph.Graph) { s.RefreshVersion(g) }

// Rebuild recounts everything from g and stamps fresh.
func (s *Graph) Rebuild(g *graph.Graph) {
	s.mu.Lock()
	s.rebuildLocked(g)
	s.mu.Unlock()
}

func (s *Graph) rebuildLocked(g *graph.Graph) {
	n := g.MaxID()
	s.nodes, s.edges = g.NumNodes(), g.NumEdges()
	s.outHist, s.inHist = [DegreeBuckets]int64{}, [DegreeBuckets]int64{}
	s.outDeg = make([]int32, n)
	s.inDeg = make([]int32, n)
	s.labelOf = make([]labelID, n)
	for i := range s.labelOf {
		s.labelOf[i] = -1
	}
	s.labelNames = nil
	s.labelIDs = map[string]labelID{}
	s.labelCount = nil
	s.edgePairs = map[uint64]int64{}
	g.ForEachNode(func(nd graph.Node) {
		lid := s.internLocked(nd.Label)
		s.labelOf[nd.ID] = lid
		s.labelCount[lid]++
		od, id := g.OutDegree(nd.ID), g.InDegree(nd.ID)
		s.outDeg[nd.ID], s.inDeg[nd.ID] = int32(od), int32(id)
		s.outHist[DegreeBucket(od)]++
		s.inHist[DegreeBucket(id)]++
	})
	g.ForEachEdge(func(e graph.Edge) {
		s.edgePairs[pairKey(s.labelOf[e.From], s.labelOf[e.To])]++
	})
	s.version = g.Version()
	s.rebuilds++
}

// DegreeBucketCount is one non-empty histogram bucket: Count nodes
// with degree in (previous bucket's UpTo, UpTo].
type DegreeBucketCount struct {
	UpTo  int64 `json:"up_to"` // inclusive upper degree bound
	Count int64 `json:"count"`
}

// LabelPairCount is the selectivity evidence for one (source label,
// target label) edge class. Selectivity is Count over the graph's
// total edges — the fraction of edges a pattern edge with these
// endpoint labels can match.
type LabelPairCount struct {
	From        string  `json:"from"`
	To          string  `json:"to"`
	Count       int64   `json:"count"`
	Selectivity float64 `json:"selectivity"`
}

// Snapshot is the serializable rendering of a Graph's counters — the
// wire shape of /api/v1/graphs/{name}/stats.
type Snapshot struct {
	GraphVersion uint64              `json:"graph_version"`
	Nodes        int                 `json:"nodes"`
	Edges        int                 `json:"edges"`
	OutDegree    []DegreeBucketCount `json:"out_degree_hist"`
	InDegree     []DegreeBucketCount `json:"in_degree_hist"`
	Labels       map[string]int64    `json:"labels"`
	LabelPairs   []LabelPairCount    `json:"label_pairs"`
	Rebuilds     uint64              `json:"rebuilds"`
}

// Snapshot renders the counters, rebuilding first if the stamp is
// stale — stale statistics are rebuilt, never trusted. The caller must
// hold the graph's read lock (or otherwise exclude mutations).
func (s *Graph) Snapshot(g *graph.Graph) *Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.version != g.Version() {
		s.rebuildLocked(g)
	}
	return s.snapshotLocked()
}

func (s *Graph) snapshotLocked() *Snapshot {
	snap := &Snapshot{
		GraphVersion: s.version,
		Nodes:        s.nodes,
		Edges:        s.edges,
		OutDegree:    renderHist(&s.outHist),
		InDegree:     renderHist(&s.inHist),
		Labels:       make(map[string]int64, len(s.labelNames)),
		Rebuilds:     s.rebuilds,
	}
	for lid, name := range s.labelNames {
		if c := s.labelCount[lid]; c > 0 {
			snap.Labels[name] = c
		}
	}
	snap.LabelPairs = make([]LabelPairCount, 0, len(s.edgePairs))
	for pk, c := range s.edgePairs {
		p := LabelPairCount{Count: c}
		if from := labelID(int32(pk >> 32)); from >= 0 {
			p.From = s.labelNames[from]
		}
		if to := labelID(int32(uint32(pk))); to >= 0 {
			p.To = s.labelNames[to]
		}
		if s.edges > 0 {
			p.Selectivity = float64(c) / float64(s.edges)
		}
		snap.LabelPairs = append(snap.LabelPairs, p)
	}
	sort.Slice(snap.LabelPairs, func(i, j int) bool {
		a, b := snap.LabelPairs[i], snap.LabelPairs[j]
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return snap
}

// renderHist drops empty buckets; the full array form is an internal
// detail, the wire form lists only populated degree classes.
func renderHist(hist *[DegreeBuckets]int64) []DegreeBucketCount {
	out := make([]DegreeBucketCount, 0, 8)
	for i, c := range hist {
		if c != 0 {
			out = append(out, DegreeBucketCount{UpTo: int64(BucketUpperBound(i)), Count: c})
		}
	}
	return out
}

// Compute is the reference recount: statistics of g built from scratch
// and rendered. The property tests compare incrementally maintained
// snapshots against it.
func Compute(g *graph.Graph) *Snapshot { return NewGraph(g).Snapshot(g) }

// Equal reports whether two snapshots describe identical statistics
// (version and rebuild counters excluded — those are provenance, not
// content).
func (a *Snapshot) Equal(b *Snapshot) bool {
	if a.Nodes != b.Nodes || a.Edges != b.Edges ||
		len(a.OutDegree) != len(b.OutDegree) || len(a.InDegree) != len(b.InDegree) ||
		len(a.Labels) != len(b.Labels) || len(a.LabelPairs) != len(b.LabelPairs) {
		return false
	}
	for i := range a.OutDegree {
		if a.OutDegree[i] != b.OutDegree[i] {
			return false
		}
	}
	for i := range a.InDegree {
		if a.InDegree[i] != b.InDegree[i] {
			return false
		}
	}
	for k, v := range a.Labels {
		if b.Labels[k] != v {
			return false
		}
	}
	for i := range a.LabelPairs {
		if a.LabelPairs[i] != b.LabelPairs[i] {
			return false
		}
	}
	return true
}
