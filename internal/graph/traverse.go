package graph

// Unreachable is the distance reported for unreachable node pairs.
const Unreachable = -1

// Ball holds the nodes within a bounded number of hops from a center, with
// their exact hop distances. It is the core primitive of bounded simulation:
// a pattern edge (u, u') with bound k requires, for a match v of u, some
// match v' of u' inside the out-ball of v with radius k.
type Ball struct {
	Center NodeID
	Radius int
	// Dist maps each node within the radius (excluding the center unless it
	// lies on a cycle back to itself, which simple graphs here exclude) to
	// its hop distance 1..Radius from (or to) the center.
	Dist map[NodeID]int
}

// Has reports whether id lies within the ball.
func (b *Ball) Has(id NodeID) bool {
	_, ok := b.Dist[id]
	return ok
}

// OutBall returns the ball of nodes reachable from center via 1..radius
// hops. A negative radius means unbounded (full reachability).
func (g *Graph) OutBall(center NodeID, radius int) *Ball {
	return g.ball(center, radius, false)
}

// InBall returns the ball of nodes that can reach center via 1..radius hops.
// A negative radius means unbounded.
func (g *Graph) InBall(center NodeID, radius int) *Ball {
	return g.ball(center, radius, true)
}

func (g *Graph) ball(center NodeID, radius int, reverse bool) *Ball {
	b := &Ball{Center: center, Radius: radius, Dist: map[NodeID]int{}}
	g.visitBall(center, radius, reverse, func(id NodeID, d int) bool {
		b.Dist[id] = d
		return true
	})
	return b
}

// VisitOutBall walks the nodes reachable from center via 1..radius hops
// (radius < 0 means unbounded), calling fn with each node and its hop
// distance exactly once, in breadth-first order. Returning false stops the
// walk. Nonempty-path semantics match OutBall: the center itself is
// visited (once, at its shortest cycle length) only when it lies on a
// cycle within the radius. Unlike OutBall, no per-call allocation happens:
// the visited set and frontier come from a shared pool.
func (g *Graph) VisitOutBall(center NodeID, radius int, fn func(id NodeID, d int) bool) {
	g.visitBall(center, radius, false, fn)
}

// VisitInBall is VisitOutBall over reversed edges: it walks the nodes that
// reach center via 1..radius hops.
func (g *Graph) VisitInBall(center NodeID, radius int, fn func(id NodeID, d int) bool) {
	g.visitBall(center, radius, true, fn)
}

func (g *Graph) visitBall(center NodeID, radius int, reverse bool, fn func(id NodeID, d int) bool) {
	if !g.Has(center) {
		return
	}
	s := acquireScratch(len(g.nodes))
	defer s.release()
	s.mark[center] = s.epoch
	s.queue = append(s.queue, scratchEntry{center, 0})
	sawCenter := false
	for qi := 0; qi < len(s.queue); qi++ {
		cur := s.queue[qi]
		if radius >= 0 && int(cur.d) >= radius {
			continue
		}
		var next []NodeID
		if reverse {
			next = g.in[cur.id]
		} else {
			next = g.out[cur.id]
		}
		for _, nb := range next {
			if nb == center {
				// Nonempty-path semantics: the center is inside its own
				// ball when it lies on a cycle of length <= radius. Report
				// the first (shortest) return but do not re-expand it.
				if !sawCenter {
					sawCenter = true
					if !fn(center, int(cur.d)+1) {
						return
					}
				}
				continue
			}
			if s.mark[nb] == s.epoch {
				continue
			}
			s.mark[nb] = s.epoch
			if !fn(nb, int(cur.d)+1) {
				return
			}
			s.queue = append(s.queue, scratchEntry{nb, cur.d + 1})
		}
	}
}

// VisitOutBalls walks the out-balls of up to 64 centers in one
// level-synchronous pass: fn(id, d, from) reports that id lies at hop
// distance d from every centers[i] whose bit i is set in from, within
// radii[i] (negative: unbounded; 0: that center is skipped). For each
// center the (id, d) pairs are exactly those VisitOutBall reports,
// nonempty-path semantics included, in breadth-first order. A node's
// adjacency is scanned once per level for all the centers that reach it
// there, so overlapping balls — deep or unbounded ones over one graph —
// cost far less than one walk each, while disjoint balls cost the same.
// Returning false stops the whole walk.
func (g *Graph) VisitOutBalls(centers []NodeID, radii []int, fn func(id NodeID, d int, from uint64) bool) {
	g.visitBalls(centers, radii, false, fn)
}

// VisitInBalls is VisitOutBalls over reversed edges: bit i of from says
// that id reaches centers[i] via d hops.
func (g *Graph) VisitInBalls(centers []NodeID, radii []int, fn func(id NodeID, d int, from uint64) bool) {
	g.visitBalls(centers, radii, true, fn)
}

func (g *Graph) visitBalls(centers []NodeID, radii []int, reverse bool, fn func(id NodeID, d int, from uint64) bool) {
	if len(centers) > 64 || len(radii) != len(centers) {
		panic("graph: a batched ball walk takes at most 64 centers and one radius per center")
	}
	adj := g.out
	if reverse {
		adj = g.in
	}
	s := acquireMultiScratch(len(g.nodes))
	defer s.release()
	for i, c := range centers {
		if g.Has(c) && radii[i] != 0 {
			// The center's own bit stays clear in seen, so a cycle back to
			// it reports it at the cycle's length like any other node; when
			// it is expanded a second time every neighbour is already seen.
			if s.cur[c] == 0 {
				s.frontier = append(s.frontier, c)
			}
			s.cur[c] |= 1 << i
		}
	}
	for d := 0; len(s.frontier) > 0; d++ {
		var live uint64 // centers whose radius reaches past d
		for i, r := range radii {
			if r < 0 || r > d {
				live |= 1 << i
			}
		}
		for _, v := range s.frontier {
			f := s.cur[v] & live
			s.cur[v] = 0
			if f == 0 {
				continue
			}
			for _, nb := range adj[v] {
				fresh := f &^ s.seen[nb]
				if fresh == 0 {
					continue
				}
				if s.seen[nb] == 0 {
					s.touched = append(s.touched, nb)
				}
				s.seen[nb] |= fresh
				if s.next[nb] == 0 {
					s.reached = append(s.reached, nb)
				}
				s.next[nb] |= fresh
			}
		}
		for _, w := range s.reached {
			if !fn(w, d+1, s.next[w]) {
				return
			}
		}
		s.cur, s.next = s.next, s.cur
		s.frontier, s.reached = s.reached, s.frontier[:0]
	}
}

// Distance returns the hop distance of the shortest nonempty path from u to
// v, or Unreachable. Because paths must be nonempty, Distance(u, u) is the
// length of the shortest cycle through u (or Unreachable on acyclic parts).
func (g *Graph) Distance(u, v NodeID) int {
	if !g.Has(u) || !g.Has(v) {
		return Unreachable
	}
	d := Unreachable
	g.visitBall(u, -1, false, func(w NodeID, dw int) bool {
		if w == v {
			d = dw
			return false
		}
		return true
	})
	return d
}
