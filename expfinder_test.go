package expfinder_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"expfinder"
	"expfinder/internal/dataset"
)

// buildPaperNetwork reconstructs Fig. 1 through the public API only, as a
// downstream user would.
func buildPaperNetwork(t *testing.T) (*expfinder.Graph, map[string]expfinder.NodeID) {
	t.Helper()
	g := expfinder.NewGraph(10)
	ids := map[string]expfinder.NodeID{}
	add := func(name, field string, years int64) {
		ids[name] = g.AddNode(field, expfinder.Attrs{
			"name":       expfinder.String(name),
			"experience": expfinder.Int(years),
		})
	}
	add("Bob", "SA", 7)
	add("Walt", "SA", 5)
	add("Bill", "GD", 2)
	add("Jean", "BA", 3)
	add("Dan", "SD", 3)
	add("Mat", "SD", 4)
	add("Pat", "SD", 3)
	add("Fred", "SD", 2)
	add("Eva", "ST", 2)
	for _, e := range [][2]string{
		{"Bob", "Dan"}, {"Bob", "Mat"}, {"Bob", "Bill"}, {"Bill", "Pat"},
		{"Pat", "Jean"}, {"Dan", "Eva"}, {"Mat", "Dan"}, {"Pat", "Eva"},
		{"Eva", "Pat"}, {"Walt", "Bill"}, {"Walt", "Fred"}, {"Fred", "Jean"},
	} {
		if err := g.AddEdge(ids[e[0]], ids[e[1]]); err != nil {
			t.Fatal(err)
		}
	}
	return g, ids
}

func TestPublicAPIEndToEnd(t *testing.T) {
	g, ids := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	rel := expfinder.Match(g, q)
	if rel.Size() != 7 {
		t.Fatalf("relation size = %d, want 7", rel.Size())
	}
	top := expfinder.TopK(g, q, rel, 1)
	if len(top) != 1 || top[0].Node != ids["Bob"] {
		t.Errorf("top-1 = %v, want Bob", top)
	}
	if want := 9.0 / 5.0; math.Abs(top[0].Rank-want) > 1e-12 {
		t.Errorf("rank = %v, want 9/5", top[0].Rank)
	}
}

func TestPublicEngineFlow(t *testing.T) {
	g, ids := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	eng := expfinder.NewEngine(expfinder.EngineOptions{})
	if err := eng.AddGraph("team", g); err != nil {
		t.Fatal(err)
	}
	if err := eng.RegisterQuery("team", q); err != nil {
		t.Fatal(err)
	}
	deltas, err := eng.ApplyUpdates("team", []expfinder.Update{
		expfinder.InsertEdge(ids["Fred"], ids["Pat"]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(deltas) != 1 || len(deltas[0].Added) != 1 || deltas[0].Added[0].Node != ids["Fred"] {
		t.Errorf("deltas = %+v, want Fred added", deltas)
	}
	res, err := eng.Query("team", q, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.TopK) != 2 {
		t.Errorf("topK = %v", res.TopK)
	}
}

func TestPublicCompression(t *testing.T) {
	g, _ := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	c := expfinder.CompressGraphWithView(g, expfinder.Bisimulation,
		expfinder.AttrView{"experience"})
	direct := expfinder.Match(g, q)
	expanded := c.Decompress(expfinder.Match(c.Graph(), q))
	if !expanded.Equal(direct) {
		t.Error("compressed evaluation differs from direct")
	}
}

func TestPublicGeneratorsAndStorage(t *testing.T) {
	g, err := expfinder.Generate(expfinder.GenCollaboration,
		expfinder.GeneratorConfig{Nodes: 300, AvgDegree: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	store, err := expfinder.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := store.SaveGraph("synth", g, expfinder.FormatBinary); err != nil {
		t.Fatal(err)
	}
	back, err := store.LoadGraph("synth")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Error("storage round-trip changed the graph")
	}
}

func TestPublicIsomorphismBaseline(t *testing.T) {
	g, _ := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	iso := expfinder.MatchIsomorphism(g, q, expfinder.IsoOptions{})
	if len(iso.Embeddings) != 0 {
		t.Error("isomorphism should find nothing on the multi-hop query")
	}
	if expfinder.Match(g, q).IsEmpty() {
		t.Error("bounded simulation should match")
	}
}

func TestFacadeMatchVariants(t *testing.T) {
	g, ids := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	base := expfinder.Match(g, q)
	if !expfinder.MatchParallel(g, q, 4).Equal(base) {
		t.Error("MatchParallel diverged")
	}
	// Plain simulation on the bounded query is stricter (empty on Fig. 1).
	if !expfinder.MatchSimulation(g, q).IsEmpty() {
		t.Error("MatchSimulation should be empty on the multi-hop query")
	}
	// Dual is a subset of bounded.
	dual := expfinder.MatchDual(g, q)
	for _, p := range dual.Pairs() {
		if !base.Has(p.PNode, p.Node) {
			t.Errorf("dual pair %v outside bounded relation", p)
		}
	}
	// Strong returns localized perfect subgraphs, all inside the relation.
	subs := expfinder.MatchStrong(g, q)
	if len(subs) == 0 {
		t.Fatal("MatchStrong found nothing")
	}
	for _, s := range subs {
		for _, p := range s.Relation.Pairs() {
			if !base.Has(p.PNode, p.Node) {
				t.Errorf("strong pair %v outside bounded relation", p)
			}
		}
	}
	// Result graph construction through the facade.
	rg := expfinder.BuildResultGraph(g, q, base)
	if !rg.Has(ids["Bob"]) {
		t.Error("result graph missing Bob")
	}
}

func TestFacadeGraphJSONAndBuilders(t *testing.T) {
	g, _ := buildPaperNetwork(t)
	data, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := expfinder.ReadGraphJSON(strings.NewReader(string(data)))
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(g) {
		t.Error("ReadGraphJSON round-trip changed the graph")
	}
	// Programmatic query construction through the facade.
	q := expfinder.NewQuery()
	a := q.MustAddNode("A", expfinder.Predicate{}.
		And(expfinder.LabelAttr, expfinder.OpEq, expfinder.String("SA")).
		And("experience", expfinder.OpGe, expfinder.Float(4.5)))
	b := q.MustAddNode("B", expfinder.Predicate{}.
		And("name", expfinder.OpPrefix, expfinder.String("D")))
	q.MustAddEdge(a, b, 2)
	if err := q.SetOutput(a); err != nil {
		t.Fatal(err)
	}
	rel := expfinder.Match(g, q)
	if rel.IsEmpty() {
		t.Error("programmatic query found nothing (Bob -> Dan expected)")
	}
}

func TestFacadeIncrementalAndDelete(t *testing.T) {
	g, ids := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	m := expfinder.NewIncrementalMatcher(g, q)
	if _, _, err := m.Apply([]expfinder.Update{
		expfinder.InsertEdge(ids["Fred"], ids["Pat"]),
	}); err != nil {
		t.Fatal(err)
	}
	_, removed, err := m.Apply([]expfinder.Update{
		expfinder.DeleteEdge(ids["Fred"], ids["Pat"]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 1 || removed[0].Node != ids["Fred"] {
		t.Errorf("delete removed = %v, want Fred", removed)
	}
	// Full-attribute compression through the facade (trivially exact).
	c := expfinder.CompressGraph(g, expfinder.Bisimulation)
	direct := expfinder.Match(g, q)
	if !c.Decompress(expfinder.Match(c.Graph(), q)).Equal(direct) {
		t.Error("full-view compression diverged")
	}
}

func TestQueryDSLRoundTripThroughFacade(t *testing.T) {
	q, err := expfinder.ParseQuery("node A [x >= 1] output\nnode B\nedge A -> B bound *\n")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(q.String(), "bound *") {
		t.Errorf("DSL rendering lost the unbounded edge:\n%s", q.String())
	}
}

func TestPublicSubscriptions(t *testing.T) {
	g, ids := buildPaperNetwork(t)
	q, err := expfinder.ParseQuery(dataset.PaperQueryDSL)
	if err != nil {
		t.Fatal(err)
	}
	eng := expfinder.NewEngine(expfinder.EngineOptions{})
	if err := eng.AddGraph("team", g); err != nil {
		t.Fatal(err)
	}
	sub, err := eng.Subscribe("team", q, expfinder.SubscriptionOptions{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	mirror := expfinder.NewSubscriptionMirror(q.NumNodes())

	// Snapshot first: the paper's 7-pair relation, Bob the top expert.
	ev, ok := sub.Poll()
	if !ok || ev.Kind != expfinder.EventSnapshot {
		t.Fatalf("first event = %+v ok=%v, want snapshot", ev, ok)
	}
	if err := mirror.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if got := mirror.Relation().Size(); got != 7 {
		t.Fatalf("snapshot pairs = %d, want 7", got)
	}
	if len(ev.TopK) == 0 || ev.TopK[0].Node != ids["Bob"] {
		t.Fatalf("top expert = %+v, want Bob", ev.TopK)
	}

	// Example 3's insertion streams exactly +(SD, Fred).
	if _, notified, err := eng.PushUpdates(context.Background(), "team", []expfinder.Update{
		expfinder.InsertEdge(ids["Fred"], ids["Pat"]),
	}); err != nil || notified != 1 {
		t.Fatalf("push: notified=%d err=%v", notified, err)
	}
	ev, ok = sub.Poll()
	if !ok || ev.Kind != expfinder.EventDelta {
		t.Fatalf("second event = %+v ok=%v, want delta", ev, ok)
	}
	if len(ev.Added) != 1 || ev.Added[0].Node != ids["Fred"] || len(ev.Removed) != 0 {
		t.Fatalf("delta = %+v, want exactly +(SD, Fred)", ev)
	}
	if err := mirror.Apply(ev); err != nil {
		t.Fatal(err)
	}
	var want string
	if err := eng.WithGraph("team", func(gg *expfinder.Graph) error {
		want = expfinder.Match(gg, q).String()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if mirror.Relation().String() != want {
		t.Fatalf("mirror diverged:\n got %s\nwant %s", mirror.Relation(), want)
	}

	if err := eng.Unsubscribe(sub.ID()); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Next(nil); err != expfinder.ErrSubscriptionClosed {
		t.Fatalf("after unsubscribe: %v", err)
	}
}
