package engine

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/pattern"
	"expfinder/internal/subscribe"
	"expfinder/internal/testutil"
)

func drainSub(t *testing.T, s *subscribe.Subscription, mi *subscribe.Mirror) {
	t.Helper()
	for {
		ev, ok := s.Poll()
		if !ok {
			return
		}
		if err := mi.Apply(ev); err != nil {
			t.Fatalf("apply event: %v", err)
		}
	}
}

func TestSubscribeSnapshotAndPushUpdates(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	s, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi := subscribe.NewMirror(q.NumNodes())
	drainSub(t, s, mi)
	res, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Relation().String() != res.Relation.String() {
		t.Fatalf("snapshot != Query relation:\n got %v\nwant %v", mi.Relation(), res.Relation)
	}

	e1 := dataset.E1(p)
	deltas, notified, err := e.PushUpdates(context.Background(), "g", []incremental.Update{incremental.Insert(e1.From, e1.To)})
	if err != nil {
		t.Fatal(err)
	}
	if notified != 1 {
		t.Fatalf("notified = %d, want 1", notified)
	}
	_ = deltas // no registered queries; subscription deltas flow via the hub
	drainSub(t, s, mi)
	res, err = e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mi.Relation().String() != res.Relation.String() {
		t.Fatalf("after push:\n got %v\nwant %v", mi.Relation(), res.Relation)
	}
}

func TestSubscriptionListAndUnsubscribe(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	s1, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := e.Subscribe("g", q, subscribe.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	infos := e.Subscriptions("g")
	if len(infos) != 2 || infos[0].ID != s1.ID() || infos[1].ID != s2.ID() {
		t.Fatalf("listing = %+v", infos)
	}
	if got, err := e.Subscription(s1.ID()); err != nil || got != s1 {
		t.Fatalf("Subscription(%s) = %v, %v", s1.ID(), got, err)
	}
	if st := e.SubscriptionStats(); st.Subscriptions != 2 || st.Groups != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := e.Unsubscribe(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := e.Unsubscribe(s1.ID()); !errors.Is(err, subscribe.ErrNoSubscription) {
		t.Fatalf("double unsubscribe: %v", err)
	}
	if infos := e.Subscriptions(""); len(infos) != 1 {
		t.Fatalf("listing after unsubscribe = %+v", infos)
	}
}

func TestSubscribeUnknownGraph(t *testing.T) {
	e := New(Options{})
	if _, err := e.Subscribe("nope", dataset.PaperQuery(), subscribe.Options{}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("want ErrNoGraph, got %v", err)
	}
}

func TestRemoveGraphClosesSubscriptions(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	s, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Poll(); !ok { // buffered snapshot survives
		t.Fatal("snapshot lost on graph removal")
	}
	if _, err := s.Next(nil); !errors.Is(err, subscribe.ErrGraphRemoved) {
		t.Fatalf("want ErrGraphRemoved, got %v", err)
	}
	if len(e.Subscriptions("")) != 0 {
		t.Fatal("subscriptions survived graph removal")
	}
}

// standingMatcher returns the matcher maintaining q on the named graph,
// nil when there is none, and how many standing queries the graph has.
func standingMatcher(t *testing.T, e *Engine, name string, q *pattern.Pattern) (*incremental.Matcher, int) {
	t.Helper()
	mg, err := e.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	if sq, ok := mg.queries[q.Hash()]; ok {
		return sq.m, len(mg.queries)
	}
	return nil, len(mg.queries)
}

// TestSubscriptionCoexistsWithRegisteredQuery pins that a pattern both
// registered and subscribed is maintained by one matcher: the one
// RegisterQuery started keeps serving ApplyUpdates' deltas, Query and the
// subscription alike, and all three agree with a batch evaluation.
func TestSubscriptionCoexistsWithRegisteredQuery(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	g := testutil.RandomGraph(r, 60, 240)
	q := testutil.RandomPattern(r, 3)
	e := New(Options{})
	if err := e.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterQuery("g", q); err != nil {
		t.Fatal(err)
	}
	m, _ := standingMatcher(t, e, "g", q)
	s, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got, n := standingMatcher(t, e, "g", q); got != m || n != 1 {
		t.Fatalf("subscribing a registered pattern started a second matcher (%d standing)", n)
	}
	mi := subscribe.NewMirror(q.NumNodes())
	scratch := g.Clone()
	for round := 0; round < 10; round++ {
		ops := engineRandomOps(r, scratch, 5)
		deltas, err := e.ApplyUpdates("g", ops)
		if err != nil {
			t.Fatal(err)
		}
		if len(deltas) != 1 || deltas[0].PatternHash != q.Hash() {
			t.Fatalf("round %d: deltas %+v, want one for the registered query", round, deltas)
		}
		drainSub(t, s, mi)
		res, err := e.Query("g", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != SourceIncremental {
			t.Fatalf("round %d: standing query not served incrementally: %v", round, res.Source)
		}
		want := directRelation(t, e, "g", q)
		if mi.Relation().String() != want || res.Relation.String() != want {
			t.Fatalf("round %d: subscription %v, query %v; want %v", round, mi.Relation(), res.Relation, want)
		}
	}
	if got, _ := standingMatcher(t, e, "g", q); got != m {
		t.Fatal("the shared matcher was replaced")
	}
	if mi.Relation().IsEmpty() {
		t.Fatal("seed yields an empty relation throughout; pick another")
	}
}

// TestSubscribedPatternServedIncrementally: a pattern only a subscription
// watches is a standing query like a registered one — Query answers from
// its matcher — and its matcher lives exactly as long as a registration or
// a subscription holds it.
func TestSubscribedPatternServedIncrementally(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	e1 := dataset.E1(p)
	// check moves the graph to a new version, so Query cannot hit the
	// cache, and asserts where the answer came from and that it is exact.
	check := func(step string, want Source, standing int) {
		t.Helper()
		op := graph.Insert(e1.From, e1.To)
		if g.HasEdge(e1.From, e1.To) {
			op = graph.Delete(e1.From, e1.To)
		}
		if _, err := e.ApplyUpdates("g", []graph.Update{op}); err != nil {
			t.Fatal(err)
		}
		res, err := e.Query("g", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Source != want || res.Relation.String() != bsim.Compute(g, q).String() {
			t.Fatalf("%s: source %v, relation %v; want %v, %v", step, res.Source, res.Relation, want, bsim.Compute(g, q))
		}
		if _, n := standingMatcher(t, e, "g", q); n != standing {
			t.Fatalf("%s: %d standing queries, want %d", step, n, standing)
		}
	}
	registered := func(step string, want int) {
		t.Helper()
		qs, err := e.RegisteredQueries("g")
		if err != nil || len(qs) != want {
			t.Fatalf("%s: %d registered queries (err %v), want %d", step, len(qs), err, want)
		}
	}

	s1, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	check("subscribed", SourceIncremental, 1)
	registered("subscribed", 0)

	if err := e.RegisterQuery("g", q); err != nil {
		t.Fatal(err)
	}
	registered("registered too", 1)
	if err := e.Unsubscribe(s1.ID()); err != nil {
		t.Fatal(err)
	}
	check("last subscriber gone, still registered", SourceIncremental, 1)

	s2, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.UnregisterQuery("g", q); err != nil {
		t.Fatal(err)
	}
	registered("unregistered, still subscribed", 0)
	check("unregistered, still subscribed", SourceIncremental, 1)
	if err := e.UnregisterQuery("g", q); !errors.Is(err, ErrNotTracked) {
		t.Fatalf("unregistering a subscribed-only pattern: %v, want ErrNotTracked", err)
	}

	if err := e.Unsubscribe(s2.ID()); err != nil {
		t.Fatal(err)
	}
	check("nothing holds it", SourceDirect, 0)
}

// TestNodeChurnPublishesWithoutFlush: node removals and attribute changes
// repair the standing query in place, so the delta is waiting for the
// subscriber as soon as the mutation returns.
func TestNodeChurnPublishesWithoutFlush(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	s, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi := subscribe.NewMirror(q.NumNodes())
	drainSub(t, s, mi)
	mutations := []struct {
		name   string
		mutate func() error
	}{
		// Bob drops below the SA threshold; Walt remains.
		{"SetNodeAttr", func() error { return e.SetNodeAttr(context.Background(), "g", p.Bob, "experience", graph.Int(3)) }},
		// Without its only qualifying tester the team dissolves.
		{"RemoveNode", func() error { return e.RemoveNode(context.Background(), "g", p.Eva) }},
	}
	for _, m := range mutations {
		if err := m.mutate(); err != nil {
			t.Fatal(err)
		}
		ev, ok := s.Poll()
		if !ok || ev.Kind != subscribe.Delta {
			t.Fatalf("%s: want a delta right away, got %+v (ok=%v)", m.name, ev, ok)
		}
		if err := mi.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if want := bsim.Compute(g, q).String(); mi.Relation().String() != want {
			t.Fatalf("%s: mirror %v, want %v", m.name, mi.Relation(), want)
		}
	}
	if !mi.Relation().IsEmpty() {
		t.Fatalf("team should have dissolved: %v", mi.Relation())
	}
}

// TestStandingQueriesUnderConcurrentUse: subscribers, a registrant, a
// writer and readers touch one graph's standing queries at once. The race
// detector checks the locking; once every holder lets go, no matcher and
// no group is left behind.
func TestStandingQueriesUnderConcurrentUse(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	e1 := dataset.E1(p)
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() { // subscribe, read, unsubscribe
			defer wg.Done()
			for i := 0; i < 20; i++ {
				s, err := e.Subscribe("g", q, subscribe.Options{K: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := e.Query("g", q, 1); err != nil {
					t.Error(err)
					return
				}
				if err := e.Unsubscribe(s.ID()); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(2)
	go func() { // register, unregister
		defer wg.Done()
		for i := 0; i < 20; i++ {
			if err := e.RegisterQuery("g", q); err != nil {
				t.Error(err)
				return
			}
			if err := e.UnregisterQuery("g", q); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() { // toggle E1 and Bob's experience
		defer wg.Done()
		for i := 0; i < 40; i++ {
			op := graph.Insert(e1.From, e1.To)
			if i%2 == 1 {
				op = graph.Delete(e1.From, e1.To)
			}
			if _, err := e.ApplyUpdates("g", []graph.Update{op}); err != nil {
				t.Error(err)
				return
			}
			if err := e.SetNodeAttr(context.Background(), "g", p.Bob, "experience", graph.Int(int64(i%10))); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	if _, n := standingMatcher(t, e, "g", q); n != 0 {
		t.Fatalf("%d standing queries left behind", n)
	}
	if st := e.SubscriptionStats(); st.Subscriptions != 0 || st.Groups != 0 {
		t.Fatalf("hub not emptied: %+v", st)
	}
}

func engineRandomOps(r *rand.Rand, scratch *graph.Graph, nOps int) []incremental.Update {
	nodes := scratch.Nodes()
	var ops []incremental.Update
	for len(ops) < nOps {
		u := nodes[r.Intn(len(nodes))]
		v := nodes[r.Intn(len(nodes))]
		if u == v {
			continue
		}
		if scratch.HasEdge(u, v) {
			if scratch.RemoveEdge(u, v) == nil {
				ops = append(ops, incremental.Delete(u, v))
			}
		} else if scratch.AddEdge(u, v) == nil {
			ops = append(ops, incremental.Insert(u, v))
		}
	}
	return ops
}

// TestQuickSubscriptionStreamEqualsMatch is the acceptance property: a
// subscription fed a randomized update stream — edge churn through
// PushUpdates, node additions, node removals and attribute changes — ends
// with a mirrored relation byte-identical to a fresh Match (bsim.Compute)
// on the final graph. In every other trial the pattern is registered too,
// so one matcher serves both; a second subscription drained every round
// checks Query == mirror == bsim.Compute after each mutation.
func TestQuickSubscriptionStreamEqualsMatch(t *testing.T) {
	trials := 25
	if testing.Short() {
		trials = 6
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(9000 + trial)))
		g := testutil.RandomGraph(r, 40+r.Intn(40), 150+r.Intn(120))
		q := testutil.RandomPattern(r, 2+r.Intn(3))
		e := New(Options{})
		if err := e.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
		if trial%2 == 1 {
			if err := e.RegisterQuery("g", q); err != nil {
				t.Fatal(err)
			}
		}
		s, err := e.Subscribe("g", q, subscribe.Options{Buffer: 1 + r.Intn(4)})
		if err != nil {
			t.Fatal(err)
		}
		live, err := e.Subscribe("g", q, subscribe.Options{})
		if err != nil {
			t.Fatal(err)
		}
		mi, liveMi := subscribe.NewMirror(q.NumNodes()), subscribe.NewMirror(q.NumNodes())
		for round := 0; round < 12; round++ {
			switch r.Intn(6) {
			case 0: // node insertion
				if _, err := e.AddNode(context.Background(), "g", testutil.Labels[r.Intn(len(testutil.Labels))],
					graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))}); err != nil {
					t.Fatal(err)
				}
			case 1: // node removal
				var mgG *graph.Graph
				if err := e.WithGraph("g", func(gg *graph.Graph) error { mgG = gg; return nil }); err != nil {
					t.Fatal(err)
				}
				nodes := mgG.Nodes()
				if len(nodes) > 10 {
					if err := e.RemoveNode(context.Background(), "g", nodes[r.Intn(len(nodes))]); err != nil {
						t.Fatal(err)
					}
				}
			case 2: // attribute change
				var mgG *graph.Graph
				if err := e.WithGraph("g", func(gg *graph.Graph) error { mgG = gg; return nil }); err != nil {
					t.Fatal(err)
				}
				nodes := mgG.Nodes()
				id := nodes[r.Intn(len(nodes))]
				if err := e.SetNodeAttr(context.Background(), "g", id, "experience", graph.Int(int64(r.Intn(10)))); err != nil {
					t.Fatal(err)
				}
			default: // edge churn
				var ops []incremental.Update
				if err := e.WithGraph("g", func(gg *graph.Graph) error {
					ops = engineRandomOps(r, gg.Clone(), 1+r.Intn(5))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				if _, _, err := e.PushUpdates(context.Background(), "g", ops); err != nil {
					t.Fatal(err)
				}
			}
			if r.Intn(3) == 0 {
				drainSub(t, s, mi)
			}
			drainSub(t, live, liveMi)
			res, err := e.Query("g", q, 0)
			if err != nil {
				t.Fatal(err)
			}
			if want := directRelation(t, e, "g", q); res.Relation.String() != want || liveMi.Relation().String() != want {
				t.Fatalf("trial %d round %d: query %v, mirror %v; want %s", trial, round, res.Relation, liveMi.Relation(), want)
			}
		}
		drainSub(t, s, mi)
		var want string
		if err := e.WithGraph("g", func(gg *graph.Graph) error {
			want = bsim.Compute(gg, q).String()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if got := mi.Relation().String(); got != want {
			t.Fatalf("trial %d: streamed relation diverged\n got %s\nwant %s\npattern %v",
				trial, got, want, q)
		}
	}
}
