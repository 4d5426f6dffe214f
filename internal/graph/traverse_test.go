package graph

import (
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

// buildChain returns a path graph v0 -> v1 -> ... -> v(n-1).
func buildChain(t *testing.T, n int) (*Graph, []NodeID) {
	t.Helper()
	g := New(n)
	ids := make([]NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode("N", nil)
	}
	for i := 0; i+1 < n; i++ {
		if err := g.AddEdge(ids[i], ids[i+1]); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestDistanceOnChain(t *testing.T) {
	g, ids := buildChain(t, 6)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			want := j - i
			if j <= i {
				want = Unreachable
			}
			if got := g.Distance(ids[i], ids[j]); got != want {
				t.Errorf("Distance(%d,%d) = %d, want %d", i, j, got, want)
			}
		}
	}
}

func TestDistanceNonemptyOnCycle(t *testing.T) {
	g := New(3)
	a := g.AddNode("N", nil)
	b := g.AddNode("N", nil)
	c := g.AddNode("N", nil)
	for _, e := range [][2]NodeID{{a, b}, {b, c}, {c, a}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	// Nonempty-path semantics: a reaches itself around the 3-cycle.
	if got := g.Distance(a, a); got != 3 {
		t.Errorf("Distance(a,a) on 3-cycle = %d, want 3", got)
	}
}

func TestOutBallRadii(t *testing.T) {
	g, ids := buildChain(t, 6)
	for r := 0; r <= 6; r++ {
		b := g.OutBall(ids[0], r)
		if len(b.Dist) != min(r, 5) {
			t.Errorf("OutBall radius %d has %d nodes, want %d", r, len(b.Dist), min(r, 5))
		}
		for id, d := range b.Dist {
			if d < 1 || d > r {
				t.Errorf("OutBall radius %d contains %d at distance %d", r, id, d)
			}
		}
	}
	// Unbounded radius reaches everything downstream.
	b := g.OutBall(ids[2], -1)
	if len(b.Dist) != 3 {
		t.Errorf("unbounded OutBall from v2 has %d nodes, want 3", len(b.Dist))
	}
}

func TestInBallMirrorsOutBall(t *testing.T) {
	g, ids := buildChain(t, 5)
	in := g.InBall(ids[4], 2)
	if len(in.Dist) != 2 {
		t.Fatalf("InBall = %v, want 2 nodes", in.Dist)
	}
	if in.Dist[ids[3]] != 1 || in.Dist[ids[2]] != 2 {
		t.Errorf("InBall distances wrong: %v", in.Dist)
	}
}

// randomGraph builds a random simple digraph with n nodes and up to m edges.
func randomGraph(r *rand.Rand, n, m int) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode("N", nil)
	}
	for i := 0; i < m; i++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u != v {
			_ = g.AddEdge(u, v) // duplicates rejected, fine
		}
	}
	return g
}

// Property: for every node w in OutBall(v, k), Distance(v, w) equals the
// recorded ball distance and is at most k.
func TestQuickOutBallAgreesWithDistance(t *testing.T) {
	cfg := &quick.Config{MaxCount: 30}
	prop := func(seed int64, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		g := randomGraph(r, 20, 60)
		k := int(kRaw%5) + 1
		for _, v := range g.Nodes() {
			ball := g.OutBall(v, k)
			for w, d := range ball.Dist {
				if d > k || g.Distance(v, w) != d {
					return false
				}
			}
			// Completeness: anything within k must be in the ball.
			for _, w := range g.Nodes() {
				d := g.Distance(v, w)
				if d != Unreachable && d <= k && !ball.Has(w) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// randomDigraph builds a small random graph, optionally with self-loops
// (quotient graphs use them), for traversal parity checks.
func randomDigraph(r *rand.Rand, n, m int, selfLoops bool) *Graph {
	g := New(n)
	for i := 0; i < n; i++ {
		g.AddNode("N", nil)
	}
	for i := 0; i < m; i++ {
		u := NodeID(r.Intn(n))
		v := NodeID(r.Intn(n))
		if u == v && !selfLoops {
			continue
		}
		_ = g.AddEdge(u, v)
	}
	return g
}

// TestVisitBallMatchesBall pins VisitOutBall/VisitInBall to the map-based
// OutBall/InBall: same member set, same distances, each node visited once.
func TestVisitBallMatchesBall(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + r.Intn(12)
		g := randomDigraph(r, n, r.Intn(3*n), trial%3 == 0)
		center := NodeID(r.Intn(n))
		for _, radius := range []int{-1, 0, 1, 2, 3} {
			for _, reverse := range []bool{false, true} {
				var want *Ball
				visit := g.VisitOutBall
				if reverse {
					want = g.InBall(center, radius)
					visit = g.VisitInBall
				} else {
					want = g.OutBall(center, radius)
				}
				got := map[NodeID]int{}
				visit(center, radius, func(id NodeID, d int) bool {
					if _, dup := got[id]; dup {
						t.Fatalf("node %d visited twice", id)
					}
					got[id] = d
					return true
				})
				if len(got) != len(want.Dist) {
					t.Fatalf("radius %d reverse %v: got %v want %v", radius, reverse, got, want.Dist)
				}
				for id, d := range want.Dist {
					if got[id] != d {
						t.Fatalf("radius %d reverse %v node %d: got %d want %d", radius, reverse, id, got[id], d)
					}
				}
			}
		}
	}
}

// TestVisitOutBallsMatchesVisitOutBall pins the batched walk to the
// single-center one: for every center of a batch — duplicates, dead and
// unknown ids, radius 0, bounded and unbounded radii mixed — the same
// (node, distance) pairs, each reported once.
func TestVisitOutBallsMatchesVisitOutBall(t *testing.T) {
	checkBatchedBalls(t, 11, (*Graph).VisitOutBalls, (*Graph).VisitOutBall)
}

// TestVisitInBallsMatchesVisitInBall is the same property over reversed
// edges.
func TestVisitInBallsMatchesVisitInBall(t *testing.T) {
	checkBatchedBalls(t, 13, (*Graph).VisitInBalls, (*Graph).VisitInBall)
}

func checkBatchedBalls(t *testing.T, seed int64,
	batched func(*Graph, []NodeID, []int, func(NodeID, int, uint64) bool),
	single func(*Graph, NodeID, int, func(NodeID, int) bool)) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for trial := 0; trial < 300; trial++ {
		n := 2 + r.Intn(40)
		g := randomDigraph(r, n, r.Intn(4*n), trial%3 == 0)
		if trial%5 == 0 {
			_ = g.RemoveNode(NodeID(r.Intn(n)))
		}
		centers := make([]NodeID, 1+r.Intn(64))
		radii := make([]int, len(centers))
		for i := range centers {
			centers[i] = NodeID(r.Intn(n+1)) - 1 // -1 and n-1.. : Invalid through the last id
			radii[i] = r.Intn(6) - 1
		}
		got := make([]map[NodeID]int, len(centers))
		for i := range got {
			got[i] = map[NodeID]int{}
		}
		lastD := 0
		batched(g, centers, radii, func(id NodeID, d int, from uint64) bool {
			if d < lastD || from == 0 {
				t.Fatalf("trial %d: report (%d, %d, %b) out of breadth-first order or empty", trial, id, d, from)
			}
			lastD = d
			for i := range centers {
				if from&(1<<i) == 0 {
					continue
				}
				if _, dup := got[i][id]; dup {
					t.Fatalf("trial %d: node %d reported twice for center %d", trial, id, i)
				}
				got[i][id] = d
			}
			if from>>len(centers) != 0 {
				t.Fatalf("trial %d: from %b names a center past %d", trial, from, len(centers))
			}
			return true
		})
		for i, c := range centers {
			want := map[NodeID]int{}
			single(g, c, radii[i], func(id NodeID, d int) bool {
				want[id] = d
				return true
			})
			if len(got[i]) != len(want) {
				t.Fatalf("trial %d center %d (node %d, radius %d): got %v want %v", trial, i, c, radii[i], got[i], want)
			}
			for id, d := range want {
				if got[i][id] != d {
					t.Fatalf("trial %d center %d (node %d, radius %d) node %d: got %d want %d", trial, i, c, radii[i], id, got[i][id], d)
				}
			}
		}
	}
}

func TestVisitBallEarlyStop(t *testing.T) {
	g, ids := buildChain(t, 6)
	calls := 0
	g.VisitOutBall(ids[0], -1, func(id NodeID, d int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop after 3 calls, got %d", calls)
	}
	// A stopped walk must not poison the pooled scratch for the next one.
	count := 0
	g.VisitOutBall(ids[0], -1, func(id NodeID, d int) bool { count++; return true })
	if count != 5 {
		t.Fatalf("full walk after early stop visited %d nodes, want 5", count)
	}
}

// TestVisitBallsEarlyStop: a batched walk stops at the first false, and
// the pooled scratch it leaves behind is clean for the next walk.
func TestVisitBallsEarlyStop(t *testing.T) {
	g, ids := buildChain(t, 6)
	centers, radii := []NodeID{ids[0], ids[1]}, []int{-1, -1}
	calls := 0
	g.VisitOutBalls(centers, radii, func(NodeID, int, uint64) bool {
		calls++
		return calls < 2
	})
	if calls != 2 {
		t.Fatalf("early stop after 2 calls, got %d", calls)
	}
	pairs := 0
	g.VisitOutBalls(centers, radii, func(_ NodeID, _ int, from uint64) bool {
		pairs += bits.OnesCount64(from)
		return true
	})
	if pairs != 5+4 {
		t.Fatalf("full walk after early stop reported %d (center, node) pairs, want 9", pairs)
	}
}

func TestVisitBallInvalidCenter(t *testing.T) {
	g, _ := buildChain(t, 3)
	g.VisitOutBall(Invalid, 2, func(NodeID, int) bool {
		t.Fatal("callback on invalid center")
		return false
	})
	g.VisitInBall(99, 2, func(NodeID, int) bool {
		t.Fatal("callback on unknown center")
		return false
	})
}
