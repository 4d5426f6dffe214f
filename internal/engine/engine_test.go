package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/testutil"
	"expfinder/internal/trace"
)

func newPaperEngine(t *testing.T) (*Engine, dataset.People) {
	t.Helper()
	e := New(Options{})
	g, p := dataset.PaperGraph()
	if err := e.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	return e, p
}

// payingGraph returns a generator.Collaboration graph with n nodes. Its
// cohorts are bisimilar over the experience view, so, unlike the paper
// graph's or a testutil.RandomGraph's, its quotient pays
// (compress.Compressed.Pays); payingGraph checks that it does.
func payingGraph(t testing.TB, n int, seed int64) *graph.Graph {
	t.Helper()
	g, err := generator.Collaboration(generator.Config{Nodes: n, AvgDegree: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if c := compress.CompressWithView(g, compress.Bisimulation, compress.View{"experience"}); !c.Pays() {
		t.Fatalf("collaboration graph (%d nodes, seed %d): quotient ratio %.3f does not pay", n, seed, c.Ratio())
	}
	return g
}

// newCollabEngine returns an engine holding a 200-node payingGraph under
// the name "collab".
func newCollabEngine(t *testing.T) *Engine {
	t.Helper()
	e := New(Options{})
	if err := e.AddGraph("collab", payingGraph(t, 200, 1)); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestQueryEndToEnd(t *testing.T) {
	e, p := newPaperEngine(t)
	q := dataset.PaperQuery()
	res, err := e.Query("paper", q, 1)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if res.Relation.Size() != 7 {
		t.Errorf("relation size = %d, want 7", res.Relation.Size())
	}
	if len(res.TopK) != 1 || res.TopK[0].Node != p.Bob {
		t.Errorf("top-1 = %v, want Bob", res.TopK)
	}
	if res.Plan != PlanBounded || res.Source != SourceDirect {
		t.Errorf("plan/source = %v/%v, want bounded/direct", res.Plan, res.Source)
	}
	if res.ResultGraph.NumNodes() != 7 {
		t.Errorf("result graph nodes = %d, want 7", res.ResultGraph.NumNodes())
	}
}

func TestQueryCacheHit(t *testing.T) {
	e, _ := newPaperEngine(t)
	q := dataset.PaperQuery()
	if _, err := e.Query("paper", q, 1); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("paper", q, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCache {
		t.Errorf("second query source = %v, want cache", res.Source)
	}
	st := e.CacheStats()
	if st.Hits != 1 {
		t.Errorf("cache hits = %d, want 1", st.Hits)
	}
}

// TestRankSpanExplainsItself: the rank.topk span of a traced miss carries
// the sizes its cost depends on, and tracing changes no answer.
func TestRankSpanExplainsItself(t *testing.T) {
	e := New(Options{})
	if err := e.AddGraph("collab", testutil.CollabGraph().Clone()); err != nil {
		t.Fatal(err)
	}
	q := testutil.MustParse(testutil.BroadDSL)
	tracer := trace.New(trace.Options{Sample: 1})
	ctx, tr := tracer.Start(context.Background(), "t", "test", true)
	res, err := e.QueryCtx(ctx, "collab", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	sp := tracer.Finish(tr).Find("rank.topk")
	if sp == nil {
		t.Fatal("no rank.topk span")
	}
	want := map[string]any{
		"matches":    int64(len(res.TopK)),
		"batches":    int64((len(res.TopK) + 63) / 64),
		"nodes":      int64(res.ResultGraph.NumNodes()),
		"edges":      int64(res.ResultGraph.NumEdges()),
		"max_weight": int64(3),
	}
	if !reflect.DeepEqual(sp.Attrs, want) {
		t.Errorf("rank.topk attributes = %v, want %v", sp.Attrs, want)
	}
	plain := rank.TopK(testutil.CollabGraph(), q, res.Relation, 0)
	if !reflect.DeepEqual(res.TopK, plain) {
		t.Error("traced ranking differs from the untraced one")
	}
}

// TestHitsShareTheEntryButNotTopK pins what a Result may alias. Relation
// and ResultGraph are the cache entry's own, the same pointers for every
// holder, read here from many goroutines at once (the -race half of the
// contract) and frozen. TopK is each caller's own slice: growing one
// Result's TopK in place must not reach the cached ranking another Result
// is cut from.
func TestHitsShareTheEntryButNotTopK(t *testing.T) {
	// One slot per goroutine below, whatever GOMAXPROCS is: the default
	// pool of a 1-CPU host queues only 4 and would refuse the rest.
	e := New(Options{Parallelism: 8})
	g, _ := dataset.PaperGraph()
	if err := e.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	q := dataset.PaperQuery()
	first, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]rank.Ranked(nil), first.TopK...)
	if len(want) < 2 {
		t.Fatalf("fixture ranks %d experts, need at least 2", len(want))
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, err := e.Query("paper", q, 1)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Source != SourceCache || res.Relation != first.Relation || res.ResultGraph != first.ResultGraph {
				t.Errorf("hit (source %v) returned relation %p, result graph %p; want the entry's %p, %p",
					res.Source, res.Relation, res.ResultGraph, first.Relation, first.ResultGraph)
			}
			if res.Relation.Size() != 7 || len(res.Relation.Pairs()) != 7 || res.ResultGraph.NumNodes() != 7 {
				t.Errorf("shared answer read back wrong: %v", res.Relation)
			}
			// k=1 of a longer ranking: an append with spare capacity would
			// overwrite the cached second place.
			res.TopK = append(res.TopK, rank.Ranked{Node: -1})
		}()
	}
	wg.Wait()
	again, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.TopK, want) {
		t.Errorf("ranking after callers appended to their TopK = %v, want %v", again.TopK, want)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Add on a Result's relation did not panic")
			}
		}()
		again.Relation.Add(0, 0)
	}()
}

func TestPlanSelection(t *testing.T) {
	e, _ := newPaperEngine(t)
	q, err := pattern.Parse("node SA [label=SA] output\nnode GD [label=GD]\nedge SA -> GD bound 1\n")
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanSimulation {
		t.Errorf("all-bounds-1 plan = %v, want simulation", res.Plan)
	}
}

// TestRoutePlan: the plan is a function of the pattern's shape and the
// semantics alone — dual always, otherwise simulation when every bound is
// 1 and bounded simulation when any is not.
func TestRoutePlan(t *testing.T) {
	shapes := []struct {
		name, dsl string
		bounded   Plan
	}{
		{"single node", "node SA [label = \"SA\"] output", PlanSimulation},
		{"bound 1", "node SA [label = \"SA\"] output\nnode SD [label = \"SD\"]\nedge SA -> SD bound 1", PlanSimulation},
		{"bound 2", "node SA [label = \"SA\"] output\nnode SD [label = \"SD\"]\nedge SA -> SD bound 2", PlanBounded},
		{"unbounded", "node SA [label = \"SA\"] output\nnode SD [label = \"SD\"]\nedge SA -> SD bound *", PlanBounded},
		{"mixed", "node SA [label = \"SA\"] output\nnode SD [label = \"SD\"]\nnode BA [label = \"BA\"]\nedge SA -> SD bound 1\nedge SD -> BA bound 3", PlanBounded},
		{"fig1", dataset.PaperQueryDSL, PlanBounded},
		{"deep", testutil.DeepDSL, PlanBounded},
	}
	for _, sh := range shapes {
		q := testutil.MustParse(sh.dsl)
		for _, c := range []struct {
			sem  match.Semantics
			want Plan
		}{{match.Bounded, sh.bounded}, {match.Dual, PlanDual}} {
			if got := routePlan(q, c.sem); got != c.want {
				t.Errorf("%s under %v: plan %v, want %v", sh.name, c.sem, got, c.want)
			}
		}
	}
}

func TestRegisteredQueryServesIncrementally(t *testing.T) {
	e, p := newPaperEngine(t)
	q := dataset.PaperQuery()
	if err := e.RegisterQuery("paper", q); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceIncremental {
		t.Errorf("source = %v, want incremental", res.Source)
	}
	// Apply e1; the delta must be (SD, Fred).
	e1 := dataset.E1(p)
	deltas, err := e.ApplyUpdates("paper", []incremental.Update{incremental.Insert(e1.From, e1.To)})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || len(deltas[0].Added) != 1 || deltas[0].Added[0].Node != p.Fred {
		t.Errorf("deltas = %+v, want Fred added", deltas)
	}
	// Post-update query must reflect the new relation.
	res, err = e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := q.Lookup("SD")
	if !res.Relation.Has(sd, p.Fred) {
		t.Error("Fred missing after update")
	}
	g, _ := e.Graph("paper")
	if !res.Relation.Equal(bsim.Compute(g, q)) {
		t.Error("engine relation diverged from recompute")
	}
}

func TestCompressedRouting(t *testing.T) {
	e := newCollabEngine(t)
	q := dataset.PaperQuery()
	want, err := e.Query("collab", q, 0) // direct, cached under current version
	if err != nil {
		t.Fatal(err)
	}
	if want.Relation.Size() == 0 {
		t.Fatal("fixture: the query has no match on the collaboration graph")
	}
	// A second engine over the same graph, so the cached answer cannot
	// pre-empt the compressed path.
	e2 := New(Options{})
	g2, _ := e.Graph("collab")
	if err := e2.AddGraph("collab", g2.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := e2.CompressGraph("collab", compress.Bisimulation, compress.View{"experience"}); err != nil {
		t.Fatal(err)
	}
	res, err := e2.Query("collab", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCompressed {
		t.Errorf("source = %v, want compressed", res.Source)
	}
	if !res.Relation.Equal(want.Relation) {
		t.Error("compressed result differs from direct result")
	}
}

// TestQuotientThatDoesNotPayIsNotRead: the paper graph's quotient over the
// experience view merges nothing, so queries answer directly while it is
// attached, and the next write drops it.
func TestQuotientThatDoesNotPayIsNotRead(t *testing.T) {
	e, p := newPaperEngine(t)
	c, err := e.CompressGraph("paper", compress.Bisimulation, compress.View{"experience"})
	if err != nil {
		t.Fatal(err)
	}
	if c.Pays() {
		t.Fatalf("fixture: the paper graph's quotient pays (ratio %.3f)", c.Ratio())
	}
	res, err := e.Query("paper", dataset.PaperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceDirect || res.Relation.Size() != 7 {
		t.Errorf("source = %v, %d pairs; want direct, 7", res.Source, res.Relation.Size())
	}
	if err := e.SetNodeAttr("paper", p.Bob, "name", graph.String("Robert")); err != nil {
		t.Fatal(err)
	}
	if c, _ := e.Compressed("paper"); c != nil {
		t.Error("a write kept a quotient that does not pay")
	}
}

func TestIncompatibleViewFallsBackToDirect(t *testing.T) {
	e, _ := newPaperEngine(t)
	// Label-only view cannot answer the paper query (tests experience).
	if _, err := e.CompressGraph("paper", compress.Bisimulation, compress.View{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("paper", dataset.PaperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceDirect {
		t.Errorf("source = %v, want direct fallback", res.Source)
	}
	if res.Relation.Size() != 7 {
		t.Errorf("fallback relation size = %d, want 7", res.Relation.Size())
	}
}

func TestSimEqQuotientRejectedForBoundedPlan(t *testing.T) {
	e, _ := newPaperEngine(t)
	if _, err := e.CompressGraph("paper", compress.SimulationEquivalence, nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("paper", dataset.PaperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceDirect {
		t.Errorf("bounded query on sim-eq quotient: source = %v, want direct", res.Source)
	}
}

func TestApplyUpdatesMaintainsCompressed(t *testing.T) {
	e := newCollabEngine(t)
	q := dataset.PaperQuery()
	if _, err := e.CompressGraph("collab", compress.Bisimulation, compress.View{"experience"}); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Graph("collab")
	sa, _ := q.Lookup("SA")
	// Insert an edge from a matched SA to every SD it does not point to
	// yet: the quotient must split blocks to stay exact.
	var ops []incremental.Update
	from := bsim.Compute(g, q).MatchesOf(sa)[0]
	g.ForEachNode(func(n graph.Node) {
		if n.Label == "SD" && n.ID != from && !g.HasEdge(from, n.ID) && len(ops) < 16 {
			ops = append(ops, incremental.Insert(from, n.ID))
		}
	})
	if _, err := e.ApplyUpdates("collab", ops); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("collab", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCompressed {
		t.Errorf("source = %v, want compressed (maintained)", res.Source)
	}
	if !res.Relation.Equal(bsim.Compute(g, q)) {
		t.Error("maintained compressed result diverged")
	}
}

// TestPayingQuotientFollowsEveryRecordKind: a quotient that pays is
// repaired by every mutation kind and keeps answering exactly; a write to
// an attribute outside its view splits no block.
func TestPayingQuotientFollowsEveryRecordKind(t *testing.T) {
	e := newCollabEngine(t)
	q := dataset.PaperQuery()
	if _, err := e.CompressGraph("collab", compress.Bisimulation, compress.View{"experience"}); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Graph("collab")
	blocks := func() int {
		c, _ := e.Compressed("collab")
		if c == nil {
			t.Fatal("the quotient was dropped")
		}
		return c.Graph().NumNodes()
	}
	check := func(stage string) {
		t.Helper()
		res, err := e.Query("collab", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != SourceCompressed || !res.Relation.Equal(bsim.Compute(g, q)) {
			t.Fatalf("%s: source %v, relation %v; want compressed, %v", stage, res.Source, res.Relation, bsim.Compute(g, q))
		}
	}
	sa, _ := q.Lookup("SA")
	lead := bsim.Compute(g, q).MatchesOf(sa)[0]
	newSA, err := e.AddNode("collab", "SA", graph.Attrs{"name": graph.String("Zed"), "experience": graph.Int(9)})
	if err != nil {
		t.Fatal(err)
	}
	check("after AddNode")
	var wire []incremental.Update
	for _, v := range g.Out(lead) {
		wire = append(wire, incremental.Insert(newSA, v))
	}
	if _, err := e.ApplyUpdates("collab", wire); err != nil {
		t.Fatal(err)
	}
	check("after ApplyUpdates")
	c, _ := e.Compressed("collab")
	shared := graph.Invalid
	g.ForEachNode(func(n graph.Node) {
		if shared == graph.Invalid && len(c.Members(c.BlockOf(n.ID))) > 1 {
			shared = n.ID
		}
	})
	before := blocks()
	if err := e.SetNodeAttr("collab", shared, "name", graph.String("Renamed")); err != nil {
		t.Fatal(err)
	}
	if after := blocks(); after != before {
		t.Errorf("a write outside the view changed the block count: %d -> %d", before, after)
	}
	check("after SetNodeAttr name")
	if err := e.SetNodeAttr("collab", lead, "experience", graph.Int(0)); err != nil {
		t.Fatal(err)
	}
	check("after SetNodeAttr experience")
	if err := e.RemoveNode("collab", newSA); err != nil {
		t.Fatal(err)
	}
	check("after RemoveNode")
}

// TestQuotientDroppedPastTheCut: the benchmark's write stream fragments
// the quotient; it is read while it pays and dropped by exactly the write
// that takes it past the cut, which a quotient maintained beside the
// engine's (maintenance is deterministic) pins. Answers never change.
func TestQuotientDroppedPastTheCut(t *testing.T) {
	e := newCollabEngine(t)
	q := dataset.PaperQuery()
	if _, err := e.CompressGraph("collab", compress.Bisimulation, compress.View{"experience"}); err != nil {
		t.Fatal(err)
	}
	g, _ := e.Graph("collab")
	mirror := g.Clone()
	beside := compress.CompressWithView(mirror, compress.Bisimulation, compress.View{"experience"})
	writes := testutil.NewEdgeStream(mirror, 3)
	for batch := 1; ; batch++ {
		ops := writes.Batch(16)
		if err := beside.Sync(ops); err != nil {
			t.Fatal(err)
		}
		if _, err := e.ApplyUpdates("collab", ops); err != nil {
			t.Fatal(err)
		}
		c, _ := e.Compressed("collab")
		if (c != nil) != beside.Pays() {
			t.Fatalf("batch %d: quotient attached %v, but the ratio beside it is %.3f", batch, c != nil, beside.Ratio())
		}
		res, err := e.Query("collab", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		want := map[bool]Source{true: SourceCompressed, false: SourceDirect}[c != nil]
		if res.Source != want || !res.Relation.Equal(bsim.Compute(g, q)) {
			t.Fatalf("batch %d: source %v, relation %v; want %v, %v", batch, res.Source, res.Relation, want, bsim.Compute(g, q))
		}
		if c == nil {
			if batch < 3 {
				t.Fatalf("the quotient went at batch %d; the fixture should let it pay for a while", batch)
			}
			t.Logf("dropped by batch %d", batch)
			return
		}
		if batch == 1000 {
			t.Fatalf("the quotient still pays after %d batches (ratio %.3f)", batch, c.Ratio())
		}
	}
}

func TestApplyUpdatesRollsBackOnError(t *testing.T) {
	e, p := newPaperEngine(t)
	g, _ := e.Graph("paper")
	before := g.NumEdges()
	// Second op fails (duplicate edge) -> first must be rolled back.
	_, err := e.ApplyUpdates("paper", []incremental.Update{
		incremental.Insert(p.Fred, p.Pat),
		incremental.Insert(p.Bob, p.Dan), // already exists
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if g.NumEdges() != before {
		t.Errorf("edges = %d after failed batch, want %d", g.NumEdges(), before)
	}
	if g.HasEdge(p.Fred, p.Pat) {
		t.Error("first op not rolled back")
	}
}

func TestGraphLifecycleErrors(t *testing.T) {
	e := New(Options{})
	g, _ := dataset.PaperGraph()
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if err := e.AddGraph("g", g); !errors.Is(err, ErrGraphExists) {
		t.Errorf("dup AddGraph err = %v", err)
	}
	if _, err := e.Query("nope", dataset.PaperQuery(), 0); !errors.Is(err, ErrNoGraph) {
		t.Errorf("missing graph Query err = %v", err)
	}
	if err := e.UnregisterQuery("g", dataset.PaperQuery()); !errors.Is(err, ErrNotTracked) {
		t.Errorf("UnregisterQuery err = %v", err)
	}
	if err := e.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveGraph("g"); !errors.Is(err, ErrNoGraph) {
		t.Errorf("double RemoveGraph err = %v", err)
	}
}

func TestInvalidQueryRejected(t *testing.T) {
	e, _ := newPaperEngine(t)
	q := pattern.New() // empty: invalid
	if _, err := e.Query("paper", q, 0); err == nil {
		t.Error("empty pattern accepted")
	}
	if err := e.RegisterQuery("paper", q); err == nil {
		t.Error("empty pattern registered")
	}
}

func TestConcurrentQueriesAndUpdates(t *testing.T) {
	e := New(Options{})
	r := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(r, 60, 180)
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	q := testutil.RandomPattern(rand.New(rand.NewSource(6)), 3)
	if err := e.RegisterQuery("g", q); err != nil {
		t.Fatal(err)
	}
	// Pre-generate valid ops on a mirror so concurrent application cannot
	// conflict structurally.
	mirror := g.Clone()
	ops := testutil.RandomOps(rand.New(rand.NewSource(7)), mirror, 30)

	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, op := range ops {
			if _, err := e.ApplyUpdates("g", []incremental.Update{{Insert: op.Insert, From: op.From, To: op.To}}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := e.Query("g", q, 5); err != nil {
					errCh <- fmt.Errorf("query: %w", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Final state must agree with scratch recomputation.
	res, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	gg, _ := e.Graph("g")
	if !res.Relation.Equal(bsim.Compute(gg, q)) {
		t.Error("post-concurrency relation diverged")
	}
}

func TestRegisteredQueriesListing(t *testing.T) {
	e, _ := newPaperEngine(t)
	q := dataset.PaperQuery()
	if err := e.RegisterQuery("paper", q); err != nil {
		t.Fatal(err)
	}
	qs, err := e.RegisteredQueries("paper")
	if err != nil {
		t.Fatal(err)
	}
	if len(qs) != 1 || qs[0].Hash() != q.Hash() {
		t.Errorf("registered queries = %d", len(qs))
	}
	// Registration is idempotent.
	if err := e.RegisterQuery("paper", q); err != nil {
		t.Fatal(err)
	}
	qs, _ = e.RegisteredQueries("paper")
	if len(qs) != 1 {
		t.Errorf("re-registration duplicated: %d", len(qs))
	}
}

func TestCompressedAccessors(t *testing.T) {
	e, _ := newPaperEngine(t)
	if c, err := e.Compressed("paper"); err != nil || c != nil {
		t.Errorf("Compressed before compression = (%v, %v)", c, err)
	}
	if _, err := e.CompressGraph("paper", compress.Bisimulation, nil); err != nil {
		t.Fatal(err)
	}
	c, err := e.Compressed("paper")
	if err != nil || c == nil {
		t.Fatalf("Compressed after compression = (%v, %v)", c, err)
	}
	if err := e.DropCompression("paper"); err != nil {
		t.Fatal(err)
	}
	if c, _ := e.Compressed("paper"); c != nil {
		t.Error("DropCompression did not clear")
	}
	if err := e.DropCompression("nope"); !errors.Is(err, ErrNoGraph) {
		t.Errorf("DropCompression missing err = %v", err)
	}
	if _, err := e.Compressed("nope"); !errors.Is(err, ErrNoGraph) {
		t.Errorf("Compressed missing err = %v", err)
	}
}

func TestEngineNodeLifecycle(t *testing.T) {
	e, p := newPaperEngine(t)
	q := dataset.PaperQuery()
	if err := e.RegisterQuery("paper", q); err != nil {
		t.Fatal(err)
	}
	check := func(stage string) {
		t.Helper()
		res, err := e.Query("paper", q, 0)
		if err != nil {
			t.Fatalf("%s: query: %v", stage, err)
		}
		g, _ := e.Graph("paper")
		if !res.Relation.Equal(bsim.Compute(g, q)) {
			t.Fatalf("%s: engine relation diverged from recompute", stage)
		}
	}

	// Add a senior SA and wire them into Bob's team.
	newSA, err := e.AddNode("paper", "SA", graph.Attrs{
		"name": graph.String("Zed"), "experience": graph.Int(9),
	})
	if err != nil {
		t.Fatal(err)
	}
	check("after AddNode")
	if _, err := e.ApplyUpdates("paper", []incremental.Update{
		incremental.Insert(newSA, p.Dan),
		incremental.Insert(newSA, p.Bill),
	}); err != nil {
		t.Fatal(err)
	}
	check("after wiring")
	sa, _ := q.Lookup("SA")
	res, _ := e.Query("paper", q, 0)
	if !res.Relation.Has(sa, newSA) {
		t.Error("new SA not matched after wiring")
	}

	// Demote Walt; he must drop out.
	if err := e.SetNodeAttr("paper", p.Walt, "experience", graph.Int(2)); err != nil {
		t.Fatal(err)
	}
	check("after SetNodeAttr")
	res, _ = e.Query("paper", q, 0)
	if res.Relation.Has(sa, p.Walt) {
		t.Error("demoted Walt still matched")
	}

	// Remove Dan entirely.
	if err := e.RemoveNode("paper", p.Dan); err != nil {
		t.Fatal(err)
	}
	check("after RemoveNode")
	g, _ := e.Graph("paper")
	if g.Has(p.Dan) {
		t.Error("Dan still present")
	}

	// Error paths.
	if _, err := e.AddNode("nope", "X", nil); !errors.Is(err, ErrNoGraph) {
		t.Errorf("AddNode missing graph err = %v", err)
	}
	if err := e.RemoveNode("paper", 9999); !errors.Is(err, graph.ErrNoNode) {
		t.Errorf("RemoveNode missing node err = %v", err)
	}
	if err := e.SetNodeAttr("paper", 9999, "x", graph.Int(1)); !errors.Is(err, graph.ErrNoNode) {
		t.Errorf("SetNodeAttr missing node err = %v", err)
	}
}

var benchResult *Result

func BenchmarkEngineQueryDirect(b *testing.B) {
	e := New(Options{})
	g, _ := dataset.PaperGraph()
	if err := e.AddGraph("paper", g); err != nil {
		b.Fatal(err)
	}
	q := dataset.PaperQuery()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// Unique pattern hash per iteration would defeat caching; instead
		// query through the cache to measure the steady-state hit path.
		res, err := e.Query("paper", q, 1)
		if err != nil {
			b.Fatal(err)
		}
		benchResult = res
	}
}
