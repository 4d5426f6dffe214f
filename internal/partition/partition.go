// Package partition implements edge-cut sharding of a data graph into P
// fragments and a partition-parallel evaluator for bounded and dual
// simulation. It is the scale-out layer Fan et al.'s follow-up work on
// distributed graph simulation describes: each fragment refines the
// candidates of the nodes it owns concurrently, and removals whose
// bounded balls cross a fragment boundary travel as counted
// support-decrement deltas exchanged at superstep barriers, iterating to
// the same unique maximum relation the single-graph algorithms compute —
// byte-identical, for every fragment count.
//
// Two partitioning strategies are provided: hash (stateless, perfectly
// rebalanced, oblivious to topology) and greedy (linear deterministic
// greedy a la Stanton/Kliot: stream nodes, place each with the fragment
// holding most of its neighbors, capacity-capped), which trades a little
// balance for far fewer cut edges — and cut edges are exactly what the
// evaluator pays for in boundary messages.
//
// Sync repairs a Partitioning's boundary bookkeeping after edge ops; no
// other mutation is repaired in place. The engine detaches its
// partitioning on the next write and rebuilds one only on request.
package partition

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"

	"expfinder/internal/graph"
)

// Strategy names a node-to-fragment assignment policy.
type Strategy string

// Strategies.
const (
	// StrategyHash assigns nodes by hashing their ids: stateless and
	// balanced, but blind to locality (expect a cut ratio near
	// 1 - 1/P on any graph).
	StrategyHash Strategy = "hash"
	// StrategyGreedy streams nodes in id order and places each with the
	// fragment already holding the most of its neighbors, penalized by
	// fragment fullness and hard-capped at ceil(n/P) — fewer cut edges,
	// deterministic output.
	StrategyGreedy Strategy = "greedy"
)

// Options configures Partition.
type Options struct {
	// Parts is the fragment count P. <= 0 means GOMAXPROCS; values
	// beyond MaxParts are clamped (fragments are units of parallelism —
	// counts beyond any plausible worker pool only cost memory).
	Parts int
	// Strategy selects the assignment policy; default StrategyGreedy.
	Strategy Strategy
}

// MaxParts caps the fragment count. Every fragment costs per-fragment
// bookkeeping and each evaluator superstep routes P^2 outbox slices, so
// an unbounded client-supplied P would be a denial-of-service knob; the
// cap is far above any useful worker count.
const MaxParts = 1024

// Errors.
var (
	ErrBadStrategy = errors.New("partition: unknown strategy")
	ErrStale       = errors.New("partition: partitioning does not cover this graph")
)

// Partitioning is an edge-cut sharding of one graph: every live node is
// owned by exactly one fragment, an edge whose endpoints have different
// owners is a cut edge, and each endpoint is a ghost of the opposite
// fragment. The structure tracks graph.Version() and is repaired in
// place by the Sync hooks; Fresh reports whether it still describes the
// graph exactly.
//
// Not safe for concurrent mutation — the engine serializes writers under
// the graph's lock, exactly as it does for the graph itself. Eval only
// reads, so concurrent queries are fine.
type Partitioning struct {
	g        *graph.Graph
	parts    int
	strategy Strategy
	version  uint64

	owner    []int32                  // NodeID -> fragment, -1 for tombstones
	size     []int                    // per-fragment owned live nodes
	internal []int                    // per-fragment edges with both endpoints owned
	cutAt    []int                    // per-fragment incident cut edges (each cut edge counts once per side)
	cut      int                      // total cut edges
	ghosts   []map[graph.NodeID]int32 // per-fragment remote neighbor -> incident-edge refcount

	// Cumulative evaluator counters (atomics: queries note them while
	// holding only the graph's read lock).
	evals      atomic.Int64
	supersteps atomic.Int64
	messages   atomic.Int64
}

// hashOwner spreads node ids over p fragments with an FNV-1a step, so
// id-clustered subgraphs (generators emit ids in creation order) do not
// land on one fragment.
func hashOwner(id graph.NodeID, p int) int32 {
	h := uint32(2166136261)
	x := uint32(id)
	for i := 0; i < 4; i++ {
		h ^= x & 0xff
		h *= 16777619
		x >>= 8
	}
	return int32(h % uint32(p))
}

// Partition shards g into opts.Parts fragments. The assignment is
// deterministic for a given graph and options. P may exceed the node
// count (surplus fragments stay empty) and P=1 degenerates to the
// unpartitioned case — both are legal and exercised by tests.
func Partition(g *graph.Graph, opts Options) (*Partitioning, error) {
	p := opts.Parts
	if p <= 0 {
		p = runtime.GOMAXPROCS(0)
	}
	if p > MaxParts {
		p = MaxParts
	}
	strat := opts.Strategy
	if strat == "" {
		strat = StrategyGreedy
	}
	if strat != StrategyHash && strat != StrategyGreedy {
		return nil, fmt.Errorf("%w: %q", ErrBadStrategy, opts.Strategy)
	}
	pt := &Partitioning{
		g:        g,
		parts:    p,
		strategy: strat,
		owner:    make([]int32, g.MaxID()),
		size:     make([]int, p),
		internal: make([]int, p),
		cutAt:    make([]int, p),
		ghosts:   make([]map[graph.NodeID]int32, p),
	}
	for f := range pt.ghosts {
		pt.ghosts[f] = map[graph.NodeID]int32{}
	}
	for i := range pt.owner {
		pt.owner[i] = -1
	}
	switch strat {
	case StrategyHash:
		for _, id := range g.Nodes() {
			pt.owner[id] = hashOwner(id, p)
			pt.size[pt.owner[id]]++
		}
	case StrategyGreedy:
		pt.assignGreedy()
	}
	// One pass over the edges settles cut counts and ghost refcounts.
	g.ForEachEdge(func(e graph.Edge) { pt.noteEdge(e.From, e.To, +1) })
	pt.version = g.Version()
	return pt, nil
}

// assignGreedy streams live nodes in id order, placing each with the
// fragment that already owns the most of its (in+out) neighbors, scaled
// by remaining capacity and hard-capped at ceil(n/P). Ties break toward
// the lower fragment index, keeping the assignment deterministic.
func (pt *Partitioning) assignGreedy() {
	n := pt.g.NumNodes()
	capPer := (n + pt.parts - 1) / pt.parts
	if capPer < 1 {
		capPer = 1
	}
	affinity := make([]float64, pt.parts)
	for _, id := range pt.g.Nodes() {
		for f := range affinity {
			affinity[f] = 0
		}
		for _, dir := range [][]graph.NodeID{pt.g.Out(id), pt.g.In(id)} {
			for _, nb := range dir {
				if int(nb) < len(pt.owner) && nb != id {
					if f := pt.owner[nb]; f >= 0 {
						affinity[f]++
					}
				}
			}
		}
		// Some fragment is always below capPer: fewer than n nodes are
		// assigned so far and P*capPer >= n, and any below-cap fragment
		// scores >= 0, beating the sentinel — best is always set.
		best, bestScore := -1, -1.0
		for f := 0; f < pt.parts; f++ {
			if pt.size[f] >= capPer {
				continue
			}
			score := affinity[f] * (1 - float64(pt.size[f])/float64(capPer))
			if score > bestScore {
				best, bestScore = f, score
			}
		}
		pt.owner[id] = int32(best)
		pt.size[best]++
	}
}

// noteEdge adjusts cut/internal/ghost bookkeeping for edge (u, v) being
// added (delta +1) or removed (delta -1). Both endpoints must already
// have owners.
func (pt *Partitioning) noteEdge(u, v graph.NodeID, delta int) {
	fu, fv := pt.owner[u], pt.owner[v]
	if fu < 0 || fv < 0 {
		return
	}
	if fu == fv {
		pt.internal[fu] += delta
		return
	}
	pt.cut += delta
	pt.cutAt[fu] += delta
	pt.cutAt[fv] += delta
	pt.ghostRef(int(fu), v, int32(delta))
	pt.ghostRef(int(fv), u, int32(delta))
}

func (pt *Partitioning) ghostRef(f int, id graph.NodeID, delta int32) {
	m := pt.ghosts[f]
	m[id] += delta
	if m[id] <= 0 {
		delete(m, id)
	}
}

// Parts returns the fragment count P.
func (pt *Partitioning) Parts() int { return pt.parts }

// Graph returns the partitioned graph.
func (pt *Partitioning) Graph() *graph.Graph { return pt.g }

// Fresh reports whether the partitioning describes g exactly (same graph,
// same version — every mutation since the build was synced).
func (pt *Partitioning) Fresh(g *graph.Graph) bool {
	return pt.g == g && pt.version == g.Version()
}

// covers reports whether Eval may trust the owner table for g.
func (pt *Partitioning) covers(g *graph.Graph) bool {
	return pt.g == g && len(pt.owner) >= g.MaxID()
}

// Update is one edge mutation, already applied to the graph.
type Update = graph.Update

// Sync repairs the cut/ghost bookkeeping after ops were applied to the
// graph (post-apply contract, like incremental.Matcher.Sync). Ownership
// never moves on edge churn — only the boundary shape changes.
func (pt *Partitioning) Sync(ops []Update) {
	for _, op := range ops {
		if op.Insert {
			pt.noteEdge(op.From, op.To, +1)
		} else {
			pt.noteEdge(op.From, op.To, -1)
		}
	}
	pt.version = pt.g.Version()
}

// noteEval accumulates one evaluator run's exchange counters.
func (pt *Partitioning) noteEval(st EvalStats) {
	pt.evals.Add(1)
	pt.supersteps.Add(int64(st.Supersteps))
	pt.messages.Add(int64(st.Messages))
}

// FragmentStats describes one fragment.
type FragmentStats struct {
	// Nodes is the number of live nodes the fragment owns.
	Nodes int `json:"nodes"`
	// InternalEdges have both endpoints in this fragment.
	InternalEdges int `json:"internal_edges"`
	// CutEdges are incident edges whose other endpoint is remote.
	CutEdges int `json:"cut_edges"`
	// Ghosts is the number of distinct remote nodes adjacent to this
	// fragment — the boundary the evaluator exchanges deltas across.
	Ghosts int `json:"ghosts"`
}

// Stats summarizes a partitioning.
type Stats struct {
	Parts    int    `json:"parts"`
	Strategy string `json:"strategy"`
	Nodes    int    `json:"nodes"`
	Edges    int    `json:"edges"`
	// CutEdges cross fragments; CutRatio is their share of all edges.
	CutEdges int     `json:"cut_edges"`
	CutRatio float64 `json:"cut_ratio"`
	// MaxImbalance is the largest fragment's size over the ideal n/P
	// (1.0 = perfectly balanced).
	MaxImbalance float64         `json:"max_imbalance"`
	Fragments    []FragmentStats `json:"fragments"`
	GraphVersion uint64          `json:"graph_version"`
	// Cumulative partition-parallel evaluator counters.
	Evals      int64 `json:"evals"`
	Supersteps int64 `json:"supersteps"`
	// Messages is the total boundary-exchange volume: one message per
	// support-decrement delta routed between fragments.
	Messages int64 `json:"messages"`
}

// Stats snapshots the partitioning. Callers synchronize with writers the
// same way they do for the graph (the engine holds the graph's lock).
func (pt *Partitioning) Stats() Stats {
	st := Stats{
		Parts:        pt.parts,
		Strategy:     string(pt.strategy),
		Nodes:        pt.g.NumNodes(),
		Edges:        pt.g.NumEdges(),
		CutEdges:     pt.cut,
		GraphVersion: pt.version,
		Evals:        pt.evals.Load(),
		Supersteps:   pt.supersteps.Load(),
		Messages:     pt.messages.Load(),
	}
	if st.Edges > 0 {
		st.CutRatio = float64(st.CutEdges) / float64(st.Edges)
	}
	maxSize := 0
	for f := 0; f < pt.parts; f++ {
		st.Fragments = append(st.Fragments, FragmentStats{
			Nodes:         pt.size[f],
			InternalEdges: pt.internal[f],
			CutEdges:      pt.cutAt[f],
			Ghosts:        len(pt.ghosts[f]),
		})
		if pt.size[f] > maxSize {
			maxSize = pt.size[f]
		}
	}
	if st.Nodes > 0 {
		ideal := float64(st.Nodes) / float64(pt.parts)
		st.MaxImbalance = float64(maxSize) / ideal
	}
	return st
}
