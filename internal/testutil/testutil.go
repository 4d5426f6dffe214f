// Package testutil provides deterministic random graphs and patterns shared
// by the property-based tests of the matching, incremental and compression
// packages.
package testutil

import (
	"fmt"
	"math/rand"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// Labels used by random graphs and patterns; deliberately few so that
// predicate candidate sets are dense and matches actually occur.
var Labels = []string{"SA", "SD", "BA", "ST"}

// RandomGraph builds a random simple digraph with n labeled nodes, about m
// edges, and an integer "experience" attribute in [0, 10).
func RandomGraph(r *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Labels[r.Intn(len(Labels))], graph.Attrs{
			"experience": graph.Int(int64(r.Intn(10))),
		})
	}
	for i := 0; i < m; i++ {
		u := graph.NodeID(r.Intn(n))
		v := graph.NodeID(r.Intn(n))
		if u != v {
			_ = g.AddEdge(u, v) // duplicate edges rejected; acceptable
		}
	}
	return g
}

// ChainGraph builds n nodes labeled from the first two Labels, joined
// i -> i+1 except where a chain breaks (about every link nodes), plus up to
// chords random edges, self-loops included. Its long sparse paths make `*`
// pattern edges into result edges as heavy as a chain piece is long, right
// beside weight-1 ones.
func ChainGraph(r *rand.Rand, n, link, chords int) *graph.Graph {
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(Labels[r.Intn(2)], nil)
	}
	for i := 0; i+1 < n; i++ {
		if r.Intn(link) > 0 {
			_ = g.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		}
	}
	for i := r.Intn(chords + 1); i > 0; i-- {
		_ = g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))) // duplicates rejected
	}
	return g
}

// RandomPattern builds a random connected pattern with nq nodes, random
// label predicates, random experience thresholds, and bounds drawn from
// {1, 1, 2, 3} (bound 1 overweighted so plain-simulation paths get
// exercised). Node 0 is the output node.
func RandomPattern(r *rand.Rand, nq int) *pattern.Pattern {
	q := pattern.New()
	for i := 0; i < nq; i++ {
		pred := pattern.Predicate{}.
			And(pattern.LabelAttr, pattern.OpEq, graph.String(Labels[r.Intn(len(Labels))]))
		if r.Intn(2) == 0 {
			pred = pred.And("experience", pattern.OpGe, graph.Int(int64(r.Intn(5))))
		}
		q.MustAddNode(fmt.Sprintf("n%d", i), pred)
	}
	bounds := []int{1, 1, 2, 3}
	// A random spanning tree keeps the pattern connected, then extra edges.
	for i := 1; i < nq; i++ {
		from := pattern.NodeIdx(r.Intn(i))
		q.MustAddEdge(from, pattern.NodeIdx(i), bounds[r.Intn(len(bounds))])
	}
	extra := r.Intn(nq)
	for i := 0; i < extra; i++ {
		from := pattern.NodeIdx(r.Intn(nq))
		to := pattern.NodeIdx(r.Intn(nq))
		_ = q.AddEdge(from, to, bounds[r.Intn(len(bounds))]) // dups rejected
	}
	if err := q.SetOutput(0); err != nil {
		panic(err)
	}
	return q
}

// RandomSimPattern is RandomPattern with every bound forced to 1, for
// comparing plain simulation against bounded simulation.
func RandomSimPattern(r *rand.Rand, nq int) *pattern.Pattern {
	q := RandomPattern(r, nq)
	flat := pattern.New()
	for i := 0; i < q.NumNodes(); i++ {
		n := q.Node(pattern.NodeIdx(i))
		flat.MustAddNode(n.Name, n.Pred)
	}
	for _, e := range q.Edges() {
		flat.MustAddEdge(e.From, e.To, 1)
	}
	if err := flat.SetOutput(q.Output()); err != nil {
		panic(err)
	}
	return flat
}

// MutateGraph applies nOps random edge insertions/deletions to g and
// returns the applied operations as (insert, from, to) triples.
type EdgeOp struct {
	Insert   bool
	From, To graph.NodeID
}

// RandomOps generates nOps random applicable edge operations against a
// evolving copy of g, applying them to g as it goes.
func RandomOps(r *rand.Rand, g *graph.Graph, nOps int) []EdgeOp {
	var ops []EdgeOp
	nodes := g.Nodes()
	for len(ops) < nOps {
		u := nodes[r.Intn(len(nodes))]
		v := nodes[r.Intn(len(nodes))]
		if u == v {
			continue
		}
		if g.HasEdge(u, v) {
			if err := g.RemoveEdge(u, v); err != nil {
				continue
			}
			ops = append(ops, EdgeOp{Insert: false, From: u, To: v})
		} else {
			if err := g.AddEdge(u, v); err != nil {
				continue
			}
			ops = append(ops, EdgeOp{Insert: true, From: u, To: v})
		}
	}
	return ops
}

// EdgeStream is the repository benchmark's write stream (bench/inputs.go,
// edgeGen): uniformly random edge ops, each a delete of a live edge or an
// insert of a missing one with equal odds.
type EdgeStream struct {
	g     *graph.Graph
	nodes []graph.NodeID
	edges []graph.Edge
	r     *rand.Rand
}

// NewEdgeStream starts a stream over g, which it mutates.
func NewEdgeStream(g *graph.Graph, seed int64) *EdgeStream {
	return &EdgeStream{g: g, nodes: g.Nodes(), edges: g.Edges(), r: rand.New(rand.NewSource(seed))}
}

// Batch returns the next n ops, already applied to the stream's graph.
func (s *EdgeStream) Batch(n int) []graph.Update {
	ops := make([]graph.Update, 0, n)
	for len(ops) < n {
		if s.r.Intn(2) == 0 {
			i := s.r.Intn(len(s.edges))
			e := s.edges[i]
			s.edges[i] = s.edges[len(s.edges)-1]
			s.edges = s.edges[:len(s.edges)-1]
			if err := s.g.RemoveEdge(e.From, e.To); err != nil {
				panic(err) // the edge list mirrors the graph
			}
			ops = append(ops, graph.Delete(e.From, e.To))
			continue
		}
		u, v := s.nodes[s.r.Intn(len(s.nodes))], s.nodes[s.r.Intn(len(s.nodes))]
		if u == v || s.g.AddEdge(u, v) != nil {
			continue
		}
		s.edges = append(s.edges, graph.Edge{From: u, To: v})
		ops = append(ops, graph.Insert(u, v))
	}
	return ops
}
