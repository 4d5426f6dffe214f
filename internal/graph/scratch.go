package graph

import "sync"

// bfsScratch is the reusable state of one bounded BFS: an epoch-marked
// visited array (clearing is O(1) — bump the epoch — unlike a bitset,
// which would pay O(n/64) per traversal) and a frontier queue. Pooled so
// the hot traversal paths (bounded-simulation support counting, the
// distance index, dual simulation) allocate nothing per call.
type bfsScratch struct {
	mark  []uint32
	epoch uint32
	queue []scratchEntry
}

type scratchEntry struct {
	id NodeID
	d  int32
}

var scratchPool = sync.Pool{New: func() any { return &bfsScratch{} }}

// acquireScratch returns a scratch sized for ids 0..n-1 with a fresh
// epoch and an empty queue. Release it with release() when the traversal
// is done (never retain it across calls).
func acquireScratch(n int) *bfsScratch {
	s := scratchPool.Get().(*bfsScratch)
	if len(s.mark) < n {
		s.mark = make([]uint32, n)
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: reset marks once, then restart epochs
		for i := range s.mark {
			s.mark[i] = 0
		}
		s.epoch = 1
	}
	s.queue = s.queue[:0]
	return s
}

func (s *bfsScratch) release() { scratchPool.Put(s) }

// multiScratch is the reusable state of one batched ball walk: per node a
// 64-bit set of the centers that have seen it, and the same for the
// current and the next frontier. The sets are all-zero between passes;
// release clears exactly the entries the pass touched.
type multiScratch struct {
	seen, cur, next   []uint64
	frontier, reached []NodeID // nodes with a nonzero cur / next set
	touched           []NodeID // nodes with a nonzero seen set
}

var multiScratchPool = sync.Pool{New: func() any { return &multiScratch{} }}

func acquireMultiScratch(n int) *multiScratch {
	s := multiScratchPool.Get().(*multiScratch)
	if len(s.seen) < n {
		s.seen, s.cur, s.next = make([]uint64, n), make([]uint64, n), make([]uint64, n)
	}
	return s
}

func (s *multiScratch) release() {
	for _, v := range s.touched {
		s.seen[v] = 0
	}
	// A finished pass leaves both frontiers empty; one its callback stopped
	// (or cut short by panicking) must not hand its sets to the next caller.
	for _, v := range s.frontier {
		s.cur[v] = 0
	}
	for _, v := range s.reached {
		s.next[v] = 0
	}
	s.frontier, s.reached, s.touched = s.frontier[:0], s.reached[:0], s.touched[:0]
	multiScratchPool.Put(s)
}
