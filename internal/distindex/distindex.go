// Package distindex implements the landmark distance index behind
// ExpFinder's indexed query plan: a bidirectional 2-hop labeling
// (pruned landmark labeling, after Akiba/Iwata/Yoshida, SIGMOD 2013)
// over a data graph that answers bounded-reachability questions —
// "is v within k hops of u?" — in O(|label|) time instead of one
// bounded BFS per question.
//
// Landmarks are selected deterministically in degree order (highest
// total degree first, ties by id), and every landmark contributes label
// entries via a pruned BFS in both edge directions. With the default
// options every live node is a landmark, which makes the labels a
// complete 2-hop cover: every query is answered exactly from the labels
// alone, including negative and unreachability answers. With a reduced
// landmark count the index is partial: queries are *proved* via a label
// upper bound or *refuted* via a triangle-inequality lower bound, and
// fall back to a bounded BFS over the graph when the labels cannot
// decide. Either way the answers are always exact, never approximate.
//
// The index describes the graph at the version it was built at and is
// never repaired: once the graph moves, every query takes the BFS
// fallback (still exact). The engine detaches an index on the next write
// and rebuilds one only on request.
package distindex

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"expfinder/internal/graph"
)

// entry is one label element: the rank of a landmark and the exact hop
// distance between it and the labeled node (direction depends on which
// label side the entry lives in). Labels are sorted by rank.
type entry struct {
	rank int32
	d    int32
}

const (
	// noRank marks nodes that are not landmarks.
	noRank int32 = math.MaxInt32
	// inf is the internal "no distance" sentinel (fits in int32 sums).
	inf int32 = math.MaxInt32 / 4
	// maxBuildBatch caps the number of landmarks labeled per parallel
	// round. Rounds grow exponentially from 1: pruning inside a round
	// only consults labels from previous rounds, and the first hubs are
	// precisely the ones whose labels prune everything downstream — put
	// them in rounds of their own and label quality stays near the
	// sequential algorithm's, at a fraction of the wall time. The
	// schedule is fixed (not tied to the worker count) so the constructed
	// labels are identical for every Workers setting.
	maxBuildBatch = 64
)

// Options configures Build.
type Options struct {
	// Landmarks is the number of label landmarks, chosen in decreasing
	// total-degree order. <= 0 (or more than the live node count) selects
	// every live node, making the index complete: all queries are then
	// answered from labels alone, with no BFS fallback.
	Landmarks int
	// Workers bounds the goroutines used while building. <= 0 means
	// GOMAXPROCS. The constructed index is identical for every setting.
	Workers int
}

// Index is a bidirectional landmark labeling over one graph. Reads
// (WithinOut, Distance, Stats) are safe concurrently with each other; the
// graph must not be mutated while one runs.
type Index struct {
	g        *graph.Graph
	version  uint64 // graph version the labels describe
	complete bool   // every live node is a landmark (full 2-hop cover)

	ord      []graph.NodeID // rank -> landmark node
	rank     []int32        // node -> rank, noRank for non-landmarks
	lin      [][]entry      // lin[v]: (landmark h, d(h -> v)), rank-sorted
	lout     [][]entry      // lout[v]: (landmark h, d(v -> h)), rank-sorted
	nEntries int            // total entries across both sides

	buildTime time.Duration

	// Query counters (atomic: queries run concurrently under read locks).
	queries   atomic.Uint64
	proved    atomic.Uint64
	refuted   atomic.Uint64
	fallbacks atomic.Uint64
}

// Stats summarizes an index for monitoring and experiment reports.
type Stats struct {
	Landmarks int    `json:"landmarks"`
	Complete  bool   `json:"complete"`
	Fresh     bool   `json:"fresh"` // the graph has not moved since the build
	Nodes     int    `json:"nodes"`
	Entries   int    `json:"entries"` // label entries across both directions
	Bytes     int64  `json:"bytes"`   // approximate label memory
	BuildMS   int64  `json:"build_ms"`
	Version   uint64 `json:"graph_version"`
	Queries   uint64 `json:"queries"`
	Proved    uint64 `json:"proved"`
	Refuted   uint64 `json:"refuted"`
	Fallbacks uint64 `json:"fallbacks"`
}

// Build constructs the index for g. The graph must not be mutated during
// the build (the engine holds the graph's write lock).
func Build(g *graph.Graph, opts Options) *Index {
	start := time.Now()
	maxID := g.MaxID()
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Deterministic landmark order: total degree descending, id ascending.
	live := make([]graph.NodeID, 0, g.NumNodes())
	for i := 0; i < maxID; i++ {
		if g.Has(graph.NodeID(i)) {
			live = append(live, graph.NodeID(i))
		}
	}
	sort.Slice(live, func(i, j int) bool {
		di := g.OutDegree(live[i]) + g.InDegree(live[i])
		dj := g.OutDegree(live[j]) + g.InDegree(live[j])
		if di != dj {
			return di > dj
		}
		return live[i] < live[j]
	})
	k := opts.Landmarks
	if k <= 0 || k > len(live) {
		k = len(live)
	}

	ix := &Index{
		g:        g,
		version:  g.Version(),
		complete: k == len(live),
		ord:      append([]graph.NodeID(nil), live[:k]...),
		rank:     make([]int32, maxID),
		lin:      make([][]entry, maxID),
		lout:     make([][]entry, maxID),
	}
	for i := range ix.rank {
		ix.rank[i] = noRank
	}
	for r, v := range ix.ord {
		ix.rank[v] = int32(r)
	}
	ix.buildLabels(workers)
	ix.buildTime = time.Since(start)
	return ix
}

// nodeDist is one (node, distance) pair collected by a pruned BFS.
type nodeDist struct {
	id graph.NodeID
	d  int32
}

// buildScratch is the per-worker state of pruned BFS rounds.
type buildScratch struct {
	mark    []uint32
	epoch   uint32
	queue   []nodeDist
	tmp     []int32 // landmark rank -> anchor distance, inf elsewhere
	touched []int32
}

func newBuildScratch(maxID, nLandmarks int) *buildScratch {
	s := &buildScratch{
		mark: make([]uint32, maxID),
		tmp:  make([]int32, nLandmarks),
	}
	for i := range s.tmp {
		s.tmp[i] = inf
	}
	return s
}

// buildLabels runs the batch-parallel pruned BFS construction: landmarks
// are processed in rank order in fixed-size rounds; within a round each
// landmark's forward and backward BFS runs on its own worker, pruning
// against the labels merged from previous rounds; a barrier then merges
// the round's results in rank order, keeping every label rank-sorted.
func (ix *Index) buildLabels(workers int) {
	nl := len(ix.ord)
	fwd := make([][]nodeDist, maxBuildBatch)
	bwd := make([][]nodeDist, maxBuildBatch)
	scratches := make([]*buildScratch, workers)
	batch := 1
	for lo := 0; lo < nl; lo += batch {
		if batch < maxBuildBatch {
			if lo > 0 {
				batch *= 2
			}
			if batch > maxBuildBatch {
				batch = maxBuildBatch
			}
		}
		hi := lo + batch
		if hi > nl {
			hi = nl
		}
		chunked(hi-lo, workers, func(w, clo, chi int) {
			sc := scratches[w]
			if sc == nil {
				sc = newBuildScratch(len(ix.rank), nl)
				scratches[w] = sc
			}
			for bi := clo; bi < chi; bi++ {
				h := ix.ord[lo+bi]
				fwd[bi] = ix.prunedBFS(h, false, sc)
				bwd[bi] = ix.prunedBFS(h, true, sc)
			}
		})
		for bi := 0; bi < hi-lo; bi++ {
			r := int32(lo + bi)
			for _, nd := range fwd[bi] {
				ix.lin[nd.id] = append(ix.lin[nd.id], entry{r, nd.d})
			}
			for _, nd := range bwd[bi] {
				ix.lout[nd.id] = append(ix.lout[nd.id], entry{r, nd.d})
			}
			ix.nEntries += len(fwd[bi]) + len(bwd[bi])
			fwd[bi], bwd[bi] = nil, nil
		}
	}
}

// chunked splits [0, n) into contiguous per-worker ranges and runs fn on
// each concurrently — the same worker-pool idiom as bsim.ComputeParallel.
func chunked(n, workers int, fn func(w, lo, hi int)) {
	if workers <= 1 || n <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// prunedBFS runs one pruned BFS from landmark h (forward labels d(h->v),
// or backward labels d(v->h) when reverse) against the labels merged so
// far, returning the (node, distance) pairs to record — the root's
// self-entry (h, 0) included. A node is pruned — neither recorded nor
// expanded — when the existing labels already certify a distance no
// larger than its BFS level; the classic argument shows every recorded
// distance is then exact, and that pruning never breaks the cover.
func (ix *Index) prunedBFS(h graph.NodeID, reverse bool, sc *buildScratch) []nodeDist {
	// Anchor label: forward queries d(h->v) combine lout[h] with lin[v];
	// backward queries d(v->h) combine lout[v] with lin[h].
	anchor := ix.lout[h]
	if reverse {
		anchor = ix.lin[h]
	}
	for _, e := range anchor {
		sc.tmp[e.rank] = e.d
		sc.touched = append(sc.touched, e.rank)
	}
	defer func() {
		for _, r := range sc.touched {
			sc.tmp[r] = inf
		}
		sc.touched = sc.touched[:0]
	}()

	sc.epoch++
	if sc.epoch == 0 {
		for i := range sc.mark {
			sc.mark[i] = 0
		}
		sc.epoch = 1
	}
	sc.queue = sc.queue[:0]
	sc.queue = append(sc.queue, nodeDist{h, 0})
	sc.mark[h] = sc.epoch
	var out []nodeDist
	for qi := 0; qi < len(sc.queue); qi++ {
		cur := sc.queue[qi]
		if cur.id != h {
			// Prune check: previous landmarks already certify cur.d?
			other := ix.lin[cur.id]
			if reverse {
				other = ix.lout[cur.id]
			}
			covered := false
			for _, e := range other {
				if a := sc.tmp[e.rank]; a < inf && a+e.d <= cur.d {
					covered = true
					break
				}
			}
			if covered {
				continue
			}
		}
		out = append(out, cur)
		var next []graph.NodeID
		if reverse {
			next = ix.g.In(cur.id)
		} else {
			next = ix.g.Out(cur.id)
		}
		for _, nb := range next {
			if sc.mark[nb] != sc.epoch {
				sc.mark[nb] = sc.epoch
				sc.queue = append(sc.queue, nodeDist{nb, cur.d + 1})
			}
		}
	}
	return out
}

// Graph returns the graph the index was built over.
func (ix *Index) Graph() *graph.Graph { return ix.g }

// usable reports whether label answers may be trusted right now: the
// graph has not moved since the build. An index that is not usable still
// answers exactly, through the BFS fallback.
func (ix *Index) usable() bool { return ix.version == ix.g.Version() }

// Stats returns a snapshot of the index's shape and query counters. It is
// O(1) label-wise, cheap enough for the server to call per request under
// the read lock.
func (ix *Index) Stats() Stats {
	entries := ix.nEntries
	return Stats{
		Landmarks: len(ix.ord),
		Complete:  ix.complete,
		Fresh:     ix.usable(),
		Nodes:     ix.g.NumNodes(),
		Entries:   entries,
		Bytes:     int64(entries)*8 + int64(len(ix.rank))*4,
		BuildMS:   ix.buildTime.Milliseconds(),
		Version:   ix.version,
		Queries:   ix.queries.Load(),
		Proved:    ix.proved.Load(),
		Refuted:   ix.refuted.Load(),
		Fallbacks: ix.fallbacks.Load(),
	}
}
