package match

import (
	"sync"

	"expfinder/internal/graph"
)

// Scratch is the reusable state of shortest-path searches over result
// graphs: epoch-stamped dense distances, a slice-backed binary heap, the
// nodes the last search reached, and a stamp array that counts the union
// of two searches. Ranking acquires one for all output matches of a call;
// a Scratch is not safe for concurrent use.
type Scratch struct {
	dist    []stampedDist
	epoch   uint32 // dist[i].stamp == epoch: dist[i].d belongs to the current search
	counted []uint32
	cepoch  uint32 // counted[i] == cepoch: i is already in the current Impact's Connected
	heap    []heapItem
	reached []int32 // nodes of the current search in discovery order, source first
}

// stampedDist keeps a node's stamp and distance in one word, so a
// relaxation costs one cache line. A distance in Gr stays far below 2^31:
// at most n-1 edges, each lighter than |V(G)|.
type stampedDist struct {
	stamp uint32
	d     int32
}

type heapItem struct{ dist, node int32 }

var scratchPool = sync.Pool{New: func() any { return &Scratch{} }}

// AcquireScratch returns a pooled Scratch; hand it back with Release.
func AcquireScratch() *Scratch { return scratchPool.Get().(*Scratch) }

// Release returns s to the pool. It must not be used afterwards.
func (s *Scratch) Release() { scratchPool.Put(s) }

// restamp starts a new epoch over a stamped dense array, which empties it
// in O(1): an entry counts only while its stamp equals the epoch. The array
// is grown to n entries, and wiped when the epoch counter wraps.
func restamp[T any](stamps []T, epoch *uint32, n int) []T {
	if len(stamps) < n {
		stamps, *epoch = make([]T, n), 0
	}
	*epoch++
	if *epoch == 0 {
		clear(stamps)
		*epoch = 1
	}
	return stamps
}

func (s *Scratch) push(it heapItem) {
	h := append(s.heap, it)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist <= it.dist {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = it
	s.heap = h
}

func (s *Scratch) pop() heapItem {
	h := s.heap
	top, last := h[0], h[len(h)-1]
	h = h[:len(h)-1]
	for i, n := 0, len(h); n > 0; {
		c := 2*i + 1
		if c+1 < n && h[c+1].dist < h[c].dist {
			c++
		}
		if c >= n || last.dist <= h[c].dist {
			h[i] = last
			break
		}
		h[i] = h[c]
		i = c
	}
	s.heap = h
	return top
}

// search runs Dijkstra from node index src over a, leaving the reached
// nodes (src first, at distance 0) in s.reached and their distances in
// s.dist.
func (s *Scratch) search(a *adjacency, src int32) {
	s.dist = restamp(s.dist, &s.epoch, len(a.off)-1)
	s.dist[src] = stampedDist{s.epoch, 0}
	s.reached = append(s.reached[:0], src)
	s.push(heapItem{0, src})
	for len(s.heap) > 0 {
		it := s.pop()
		if it.dist > s.dist[it.node].d {
			continue // stale entry
		}
		for _, e := range a.edges[a.off[it.node]:a.off[it.node+1]] {
			nd, cur := it.dist+e.Weight, s.dist[e.To]
			if cur.stamp != s.epoch {
				s.reached = append(s.reached, e.To)
			} else if nd >= cur.d {
				continue
			}
			s.dist[e.To] = stampedDist{s.epoch, nd}
			s.push(heapItem{nd, e.To})
		}
	}
}

// Impact returns, for node index i, the sum of its weighted shortest-path
// distances to every node it reaches and from every node that reaches it,
// and how many distinct other nodes those are — the numerator and |Vr'| of
// the paper's social-impact rank f(uo,v).
func (rg *ResultGraph) Impact(s *Scratch, i int) (sum, connected int) {
	s.counted = restamp(s.counted, &s.cepoch, len(rg.nodes))
	for _, a := range [2]*adjacency{&rg.out, &rg.in} {
		s.search(a, int32(i))
		for _, j := range s.reached[1:] {
			sum += int(s.dist[j].d)
			if s.counted[j] != s.cepoch {
				s.counted[j] = s.cepoch
				connected++
			}
		}
	}
	return sum, connected
}

// Distances runs Dijkstra over the weighted result graph from src, forward
// (reverse=false, distances *to* descendants) or backward (reverse=true,
// distances *from* ancestors). The source maps to 0. Unreachable nodes are
// absent from the returned map.
func (rg *ResultGraph) Distances(src graph.NodeID, reverse bool) map[graph.NodeID]int {
	dist := map[graph.NodeID]int{}
	i, ok := rg.IndexOf(src)
	if !ok {
		return dist
	}
	a := &rg.out
	if reverse {
		a = &rg.in
	}
	s := AcquireScratch()
	defer s.Release()
	s.search(a, int32(i))
	for _, j := range s.reached {
		dist[rg.nodes[j]] = int(s.dist[j].d)
	}
	return dist
}
