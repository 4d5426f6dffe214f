package rank

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"expfinder/internal/bsim"
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

// randomCase draws a small data graph, pattern and relation that between
// them hit the builder's corners: self-loops and short cycles through a
// BFS centre, `*` edges, pattern self-edges and 2-cycles, data nodes
// matching several pattern nodes (so two pattern edges with different
// bounds produce the same result edge), tombstoned and out-of-range ids in
// the relation, and the empty relation.
func randomCase(r *rand.Rand) (*graph.Graph, *pattern.Pattern, *match.Relation) {
	n := 1 + r.Intn(40)
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.AddNode(testutil.Labels[r.Intn(2)], nil)
	}
	for i := r.Intn(4 * n); i > 0; i-- {
		_ = g.AddEdge(graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))) // duplicates rejected; self-loops kept
	}
	if r.Intn(4) == 0 {
		_ = g.RemoveNode(graph.NodeID(r.Intn(n)))
	}

	nq := 1 + r.Intn(5)
	q := pattern.New()
	for i := 0; i < nq; i++ {
		q.MustAddNode(fmt.Sprintf("n%d", i),
			pattern.Predicate{}.And(pattern.LabelAttr, pattern.OpEq, graph.String(testutil.Labels[r.Intn(2)])))
	}
	bounds := []int{1, 2, 3, 5, pattern.Unbounded}
	for i := r.Intn(3 * nq); i > 0; i-- {
		_ = q.AddEdge(pattern.NodeIdx(r.Intn(nq)), pattern.NodeIdx(r.Intn(nq)), bounds[r.Intn(len(bounds))])
	}
	if err := q.SetOutput(pattern.NodeIdx(r.Intn(nq))); err != nil {
		panic(err)
	}

	rel := match.NewRelation(nq)
	switch mode := r.Intn(8); mode {
	case 0: // empty relation
	case 1: // what the evaluator would hand over
		rel = bsim.Compute(g, q)
	default: // arbitrary subsets, overlapping across pattern nodes
		density := []float64{0.15, 0.5, 0.9}[r.Intn(3)]
		for u := 0; u < nq; u++ {
			for v := 0; v < n+2; v++ { // n, n+1: ids the graph never held
				if r.Float64() < density && (v < n || mode == 2) {
					rel.Add(pattern.NodeIdx(u), graph.NodeID(v))
				}
			}
		}
	}
	return g, q, rel
}

func sameEdges(a, b []match.WEdge) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkStructure pins the flat result graph's whole method set to the
// map-based reference.
func checkStructure(t *testing.T, g *graph.Graph, rg *match.ResultGraph, ref *refResultGraph) bool {
	ok := true
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		ok = false
	}
	if rg.NumNodes() != ref.NumNodes() || rg.NumEdges() != ref.NumEdges() {
		fail("(n,m) = (%d,%d), want (%d,%d)", rg.NumNodes(), rg.NumEdges(), ref.NumNodes(), ref.NumEdges())
	}
	if len(rg.Nodes()) != len(ref.Nodes()) || (len(ref.Nodes()) > 0 && !reflect.DeepEqual(rg.Nodes(), ref.Nodes())) {
		fail("Nodes() = %v, want %v", rg.Nodes(), ref.Nodes())
		return false
	}
	for v := graph.NodeID(-1); int(v) < g.MaxID()+3; v++ {
		if rg.Has(v) != ref.Has(v) {
			fail("Has(%d) = %v", v, rg.Has(v))
		}
		if !sameEdges(rg.Out(v), ref.Out(v)) {
			fail("Out(%d) = %v, want %v", v, rg.Out(v), ref.Out(v))
		}
		if !sameEdges(rg.In(v), ref.In(v)) {
			fail("In(%d) = %v, want %v", v, rg.In(v), ref.In(v))
		}
		if got, want := rg.PNodeOf(v), ref.PNodeOf[v]; len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
			fail("PNodeOf(%d) = %v, want %v", v, got, want)
		}
		for _, reverse := range []bool{false, true} {
			if got, want := rg.Distances(v, reverse), ref.Distances(v, reverse); !reflect.DeepEqual(got, want) {
				fail("Distances(%d, %v) = %v, want %v", v, reverse, got, want)
			}
		}
		for w := graph.NodeID(0); int(w) < g.MaxID(); w++ {
			gw, gok := rg.Weight(v, w)
			ww, wok := ref.Weight(v, w)
			if gw != ww || gok != wok {
				fail("Weight(%d,%d) = (%d,%v), want (%d,%v)", v, w, gw, gok, ww, wok)
			}
		}
	}
	for i, v := range rg.Nodes() {
		if j, found := rg.IndexOf(v); !found || j != i {
			fail("IndexOf(%d) = (%d,%v), want (%d,true)", v, j, found, i)
		}
		for _, dir := range []struct {
			name string
			at   []match.IEdge
			want []match.WEdge
		}{{"OutAt", rg.OutAt(i), ref.Out(v)}, {"InAt", rg.InAt(i), ref.In(v)}} {
			if len(dir.at) != len(dir.want) {
				fail("%s(%d) has %d edges, want %d", dir.name, i, len(dir.at), len(dir.want))
				continue
			}
			for k, e := range dir.at {
				if got := (match.WEdge{To: rg.Nodes()[e.To], Weight: int(e.Weight)}); got != dir.want[k] {
					fail("%s(%d)[%d] = %v, want %v", dir.name, i, k, got, dir.want[k])
				}
			}
		}
	}
	return ok
}

func sameRanking(got, want []Ranked) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range want {
		if got[i].Node != want[i].Node || got[i].Connected != want[i].Connected ||
			math.Float64bits(got[i].Rank) != math.Float64bits(want[i].Rank) {
			return false
		}
	}
	return true
}

// TestDifferentialAgainstMapReference is what pins the semantics of the
// flat result graph and the dense ranking kernels: over random inputs they
// must reproduce the map-based implementation exactly — same node order,
// adjacency and weights, and for every metric the same nodes, Connected
// and bit-equal ranks.
func TestDifferentialAgainstMapReference(t *testing.T) {
	metrics := []struct {
		m   Metric
		ref refMetric
	}{
		{AvgDistance{}, refAvgDistance{}},
		{Closeness{}, refCloseness{}},
		{Degree{}, refDegree{}},
		{PageRank{}, refPageRank{}},
		{PageRank{Damping: 0.6, Iterations: 7}, refPageRank{Damping: 0.6, Iterations: 7}},
	}
	check := func(seed int64) bool {
		g, q, rel := randomCase(rand.New(rand.NewSource(seed)))
		rg, ref := match.BuildResultGraph(g, q, rel), refBuildResultGraph(g, q, rel)
		if !checkStructure(t, g, rg, ref) {
			t.Logf("seed %d: %v over %v, relation %v", seed, q, g, rel)
			return false
		}
		ok := true
		for v := graph.NodeID(-1); int(v) < g.MaxID()+3; v++ {
			got, gok := Score(rg, v)
			want, wok := refScore(ref, v)
			if gok != wok || !sameRanking([]Ranked{got}, []Ranked{want}) {
				t.Errorf("seed %d: Score(%d) = (%v,%v), want (%v,%v)", seed, v, got, gok, want, wok)
				ok = false
			}
			for _, m := range metrics {
				gs, gc := m.m.Score(rg, v)
				ws, wc := m.ref.Score(ref, v)
				if math.Float64bits(gs) != math.Float64bits(ws) || gc != wc {
					t.Errorf("seed %d: %s.Score(%d) = (%v,%d), want (%v,%d)", seed, m.m.Name(), v, gs, gc, ws, wc)
					ok = false
				}
			}
		}
		for _, k := range []int{0, 1, 10} {
			if got, want := TopKWithResultGraph(rg, q, rel, k), refTopKWithResultGraph(ref, q, rel, k); !sameRanking(got, want) {
				t.Errorf("seed %d: TopKWithResultGraph(k=%d) = %v, want %v", seed, k, got, want)
				ok = false
			}
			if got, want := TopK(g, q, rel, k), refTopKWithResultGraph(ref, q, rel, k); !sameRanking(got, want) {
				t.Errorf("seed %d: TopK(k=%d) = %v, want %v", seed, k, got, want)
				ok = false
			}
			for _, m := range metrics {
				got := TopKByMetricWithResultGraph(rg, q, rel, k, m.m)
				want := refTopKByMetricWithResultGraph(ref, q, rel, k, m.ref)
				if !sameRanking(got, want) {
					t.Errorf("seed %d: TopKByMetric(%s, k=%d) = %v, want %v", seed, m.m.Name(), k, got, want)
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// wideCase draws inputs whose ranking takes several batched walks: more
// than 64 matches of the output node, over a testutil.ChainGraph whose `*`
// pattern edges become result edges several times heavier than the
// weight-1 ones beside them, with pattern self-edges and 2-cycles
// (result cycles through the matches being ranked) and matches no result
// edge touches.
func wideCase(r *rand.Rand) (*graph.Graph, *pattern.Pattern, *match.Relation) {
	n := 70 + r.Intn(60)
	g := testutil.ChainGraph(r, n, 8, n/2)
	nq := 1 + r.Intn(3)
	q := pattern.New()
	for i := 0; i < nq; i++ {
		q.MustAddNode(fmt.Sprintf("n%d", i), pattern.Predicate{})
	}
	bounds := []int{1, 2, pattern.Unbounded}
	for i := 1 + r.Intn(3*nq); i > 0; i-- {
		_ = q.AddEdge(pattern.NodeIdx(r.Intn(nq)), pattern.NodeIdx(r.Intn(nq)), bounds[r.Intn(len(bounds))])
	}
	if err := q.SetOutput(pattern.NodeIdx(r.Intn(nq))); err != nil {
		panic(err)
	}
	rel := match.NewRelation(nq)
	for u := 0; u < nq; u++ {
		density := 0.3
		if u == int(q.Output()) {
			density = 0.97
		}
		for v := 0; v < n; v++ {
			if r.Float64() < density {
				rel.Add(pattern.NodeIdx(u), graph.NodeID(v))
			}
		}
	}
	return g, q, rel
}

// TestBatchedRankingAgainstMapReference pins the rankings that go through
// the 64-wide walk — the paper's TopK and the two distance metrics — to the
// map-based reference on wideCase inputs: same nodes in the same order (ties
// included), same Connected, bit-equal ranks. The relation ranked has
// output matches the result graph was not built with, which TopK leaves out
// and the metrics rank last at +Inf.
func TestBatchedRankingAgainstMapReference(t *testing.T) {
	batched, isolated, heaviest := 0, 0, 0
	for seed := int64(0); seed < 40; seed++ {
		g, q, rel := wideCase(rand.New(rand.NewSource(seed)))
		rg, ref := match.BuildResultGraph(g, q, rel), refBuildResultGraph(g, q, rel)
		more := rel.Clone()
		for v := g.MaxID(); v < g.MaxID()+3; v++ {
			more.Add(q.Output(), graph.NodeID(v))
		}
		more.Remove(q.Output(), rel.MatchesOf(q.Output())[0])
		if rg.ImpactBatches(more.CountOf(q.Output())) > 1 {
			batched++
		}
		heaviest = max(heaviest, rg.MaxWeight())
		for _, k := range []int{0, 5} {
			got, want := TopKWithResultGraph(rg, q, more, k), refTopKWithResultGraph(ref, q, more, k)
			if !sameRanking(got, want) {
				t.Errorf("seed %d: TopKWithResultGraph(k=%d) = %v, want %v", seed, k, got, want)
			}
			if k == 0 && len(got) > 0 && got[len(got)-1].Connected == 0 {
				isolated++
			}
			for _, m := range []struct {
				m   Metric
				ref refMetric
			}{{AvgDistance{}, refAvgDistance{}}, {Closeness{}, refCloseness{}}} {
				got := TopKByMetricWithResultGraph(rg, q, more, k, m.m)
				want := refTopKByMetricWithResultGraph(ref, q, more, k, m.ref)
				if !sameRanking(got, want) {
					t.Errorf("seed %d: TopKByMetric(%s, k=%d) = %v, want %v", seed, m.m.Name(), k, got, want)
				}
			}
		}
	}
	if batched < 30 || isolated == 0 || heaviest < 8 {
		t.Errorf("inputs too tame: %d of 40 rankings took several walks, %d ended in an isolated match, heaviest edge %d",
			batched, isolated, heaviest)
	}
}
