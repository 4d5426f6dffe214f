package match

import (
	"sync"

	"expfinder/internal/graph"
)

// Scratch is the reusable state of shortest-path searches over result
// graphs: epoch-stamped dense distances, a slice-backed binary heap, the
// nodes the last search reached, and a stamp array that counts the union
// of two searches; and for the batched walk (impactBatch) the ring of
// source sets, its bucket lists and the bit-sliced counters. Ranking
// acquires one for all output matches of a call; a Scratch is not safe for
// concurrent use.
type Scratch struct {
	dist    []stampedDist
	epoch   uint32 // dist[i].stamp == epoch: dist[i].d belongs to the current search
	counted []uint32
	cepoch  uint32 // counted[i] == cepoch: i is already in the current Impact's Connected
	heap    []heapItem
	reached []int32 // nodes of the current search in discovery order, source first

	ring             []uint64  // per node: two settled sets, then one pending set per bucket
	buckets          [][]int32 // per bucket: the nodes whose pending set in it is non-empty
	touched          []int32   // nodes with a non-empty settled set
	walking          bool      // a batch is under way: ring and buckets are not clean
	sum, conn, level sliced
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

// Impact is the numerator and |Vr'| of the paper's social-impact rank
// f(uo,v) for one node v of a result graph: Sum adds v's weighted
// shortest-path distances to every node it reaches and from every node that
// reaches it, and Connected counts the distinct other nodes those are.
type Impact struct{ Sum, Connected int }

// Impact computes the Impact of node index i with one forward and one
// backward Dijkstra.
func (rg *ResultGraph) Impact(s *Scratch, i int) Impact {
	var im Impact
	s.counted = restamp(s.counted, &s.cepoch, len(rg.nodes))
	for _, a := range [2]*adjacency{&rg.out, &rg.in} {
		s.search(a, int32(i))
		for _, j := range s.reached[1:] {
			im.Sum += int(s.dist[j].d)
			if s.counted[j] != s.cepoch {
				s.counted[j] = s.cepoch
				im.Connected++
			}
		}
	}
	return im
}

const (
	// batchWidth is how many sources one batched walk carries: one bit of
	// a word each.
	batchWidth = 64
	// batchMin is the fewest sources worth a batched walk. A walk scans a
	// node's edges once per level at which some source newly settles it, so
	// with one source it does Dijkstra's work plus the ring's. Measured on
	// the benchmark's graph: at 6 sources the walk still loses on the dense
	// `*` shape (n=776, m=170,082: 0.76 against 0.73 ms) and on the sparse
	// shallow one (2.1 against 1.6 µs); at 8 it wins on both (0.84 against
	// 1.05 ms, 2.6 against 3.1 µs) and 3.5x on the broad shape.
	batchMin = 8
	// ringMax bounds the ring, n*(max weight+3) words (4 MiB), so that a
	// huge result graph with long `*` edges cannot pin that much pooled
	// memory per ranking goroutine; past it every source is searched alone.
	ringMax = 1 << 19
)

// ImpactBatches reports how many batched walks (each one forward and one
// backward pass over the graph) Impacts makes for that many sources; 0
// means it runs two Dijkstras per source instead. The choice depends only
// on the number of sources and the graph's size and heaviest edge.
func (rg *ResultGraph) ImpactBatches(sources int) int {
	if sources < batchMin || len(rg.nodes)*(int(rg.maxWeight)+3) > ringMax {
		return 0
	}
	return (sources + batchWidth - 1) / batchWidth
}

// Impacts sets out[k] to the Impact of node index sources[k]; a negative
// index stands for a match that is not a node of the graph and yields the
// zero Impact. Sources are walked up to 64 at a time, in batches of equal
// size (321 sources: six walks of 53 or 54, not five of 64 and a straggler).
func (rg *ResultGraph) Impacts(s *Scratch, sources []int32, out []Impact) {
	batches := rg.ImpactBatches(len(sources))
	if batches == 0 {
		for k, i := range sources {
			out[k] = Impact{}
			if i >= 0 {
				out[k] = rg.Impact(s, int(i))
			}
		}
		return
	}
	for b := 0; b < batches; b++ {
		lo, hi := b*len(sources)/batches, (b+1)*len(sources)/batches
		rg.impactBatch(s, sources[lo:hi], out[lo:hi])
	}
}

// impactBatch computes the Impacts of up to 64 sources with one bucketed
// (Dial) shortest-path walk per direction, every set below a uint64 whose
// bit k stands for sources[k].
//
// Result-edge weights are integers in 1..W (a hop distance within the
// pattern edge's bound), so the tentative distances alive at level d lie in
// d+1..d+W and a ring of W+1 buckets indexed by distance mod W+1 replaces
// the heap. Per node the ring holds the sources that have settled it
// forward and backward (two words) and, per bucket, the sources pending at
// that distance; a bucket's list names the nodes whose pending set in it is
// non-empty. Level d pops bucket d mod W+1: the pending sources that have
// not settled the node yet settle it at distance d — the shortest-path
// distance, as every shorter path was popped at an earlier level — and
// relax its edges for all of them at once.
//
// What is counted, all of it in bit-sliced counters (see sliced): per level
// how many nodes each source settled, which times d goes into its Sum when
// the level ends; and after both walks, per node, the sources that settled
// it in either direction, which gives Connected once a source's own node —
// settled by it at level 0 both times, so never again by a cycle — is
// taken off.
//
// Between batches the ring is all zero and the bucket lists are empty,
// whatever graph comes next: a walk ends when nothing is pending, and the
// settled sets are zeroed, node by touched node, as Connected is counted.
func (rg *ResultGraph) impactBatch(s *Scratch, sources []int32, out []Impact) {
	n, nb := len(rg.nodes), int(rg.maxWeight)+1
	stride := nb + 2
	if len(s.ring) < n*stride {
		s.ring = make([]uint64, n*stride)
	}
	for len(s.buckets) < nb {
		s.buckets = append(s.buckets, nil)
	}
	if s.walking { // the last batch on s panicked half way
		clear(s.ring)
		for b := range s.buckets {
			s.buckets[b] = s.buckets[b][:0]
		}
	}
	s.walking = true
	ring, buckets, touched := s.ring[:n*stride], s.buckets[:nb], s.touched[:0]
	s.sum.reset()
	s.conn.reset()
	s.level.reset()
	for dir, a := range [2]*adjacency{&rg.out, &rg.in} {
		pending := 0 // entries over all bucket lists
		for k, i := range sources {
			if i < 0 {
				continue
			}
			if ring[int(i)*stride+2] == 0 {
				buckets[0] = append(buckets[0], i)
				pending++
			}
			ring[int(i)*stride+2] |= 1 << k
		}
		for d, b := 0, 0; pending > 0; d++ {
			list := buckets[b]
			pending -= len(list)
			for _, v := range list {
				at := int(v) * stride
				f := ring[at+2+b] &^ ring[at+dir]
				ring[at+2+b] = 0
				if f == 0 {
					continue
				}
				s.level.add(f)
				if ring[at]|ring[at+1] == 0 {
					touched = append(touched, v)
				}
				ring[at+dir] |= f
				for _, e := range a.edges[a.off[v]:a.off[v+1]] {
					to := int(e.To) * stride
					fresh := f &^ ring[to+dir]
					if fresh == 0 {
						continue
					}
					tb := b + int(e.Weight) // 1 <= Weight < nb: never this bucket
					if tb >= nb {
						tb -= nb
					}
					if ring[to+2+tb] == 0 {
						buckets[tb] = append(buckets[tb], e.To)
						pending++
					}
					ring[to+2+tb] |= fresh
				}
			}
			buckets[b] = list[:0]
			if b++; b == nb {
				b = 0
			}
			s.sum.addTimes(&s.level, d)
			s.level.reset()
		}
	}
	for _, v := range touched {
		at := int(v) * stride
		s.conn.add(ring[at] | ring[at+1])
		ring[at], ring[at+1] = 0, 0
	}
	s.touched, s.walking = touched, false
	for k, i := range sources {
		out[k] = Impact{}
		if i >= 0 {
			out[k] = Impact{Sum: s.sum.get(k), Connected: s.conn.get(k) - 1}
		}
	}
}

// sliced is 64 counters held as bit planes: bit k of planes[i] is bit i of
// counter k, so adding a number to every counter a mask selects costs a few
// word operations however many counters that is. planes[top:] are zero.
type sliced struct {
	planes [64]uint64
	top    int
}

func (c *sliced) reset() {
	clear(c.planes[:c.top])
	c.top = 0
}

// add adds one to the counter of every bit set in f: a ripple-carry add.
func (c *sliced) add(f uint64) {
	j := 0
	for ; f != 0; j++ {
		c.planes[j], f = c.planes[j]^f, c.planes[j]&f
	}
	c.top = max(c.top, j)
}

// addTimes adds x times each counter of o to the same counter of c: a full
// adder per plane of o, once per set bit of x.
func (c *sliced) addTimes(o *sliced, x int) {
	for i := 0; x>>i != 0; i++ {
		if x>>i&1 == 0 {
			continue
		}
		var carry uint64
		j := i
		for p := 0; p < o.top || carry != 0; p, j = p+1, j+1 {
			a, b := o.planes[p], c.planes[j] // o.planes[p] is zero past o.top
			c.planes[j] = a ^ b ^ carry
			carry = a&b | carry&(a^b)
		}
		c.top = max(c.top, j)
	}
}

func (c *sliced) get(k int) (x int) {
	for i, p := range c.planes[:c.top] {
		x |= int(p>>k&1) << i
	}
	return x
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
