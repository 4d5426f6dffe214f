package subscribe

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/testutil"
)

// The hub maintains nothing: these tests own the matcher the engine would
// keep for a pattern, repair it, and publish through the hub as the
// engine's write path does.

// relationOf is the hub's view of one test-owned matcher.
func relationOf(m *incremental.Matcher) RelationOf {
	return func(string) *match.Relation { return m.Relation() }
}

// subscribe starts maintaining q on g with a fresh matcher and subscribes
// to it.
func subscribe(h *Hub, g *graph.Graph, q *pattern.Pattern, opts Options) (*Subscription, *incremental.Matcher) {
	m := incremental.NewMatcher(g, q)
	return h.Subscribe("g", g, q, relationOf(m), opts), m
}

// update applies ops to g through m and publishes the result, returning
// the number of subscriptions notified.
func update(t *testing.T, h *Hub, g *graph.Graph, m *incremental.Matcher, ops []incremental.Update) int {
	t.Helper()
	if _, _, err := m.Apply(ops); err != nil {
		t.Fatalf("apply %+v: %v", ops, err)
	}
	return h.Publish("g", g, relationOf(m))
}

// randomOps builds nOps feasible random updates, mutating scratch to keep
// them applicable in sequence (callers apply them to the real graph).
func randomOps(r *rand.Rand, scratch *graph.Graph, nOps int) []incremental.Update {
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

func drainInto(t *testing.T, s *Subscription, mi *Mirror) int {
	t.Helper()
	n := 0
	for {
		ev, ok := s.Poll()
		if !ok {
			return n
		}
		if err := mi.Apply(ev); err != nil {
			t.Fatalf("apply event %+v: %v", ev, err)
		}
		n++
	}
}

func TestSnapshotThenDeltaProtocol(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	s, m := subscribe(h, g, q, Options{})
	mi := NewMirror(q.NumNodes())
	if n := drainInto(t, s, mi); n != 1 {
		t.Fatalf("want 1 snapshot event, got %d", n)
	}
	if want := bsim.Compute(g, q); mi.Relation().String() != want.String() {
		t.Fatalf("snapshot mismatch:\n got %v\nwant %v", mi.Relation(), want)
	}

	// The paper's Example 3 insertion adds exactly (SD, Fred).
	e1 := dataset.E1(p)
	ops := []incremental.Update{incremental.Insert(e1.From, e1.To)}
	if n := update(t, h, g, m, ops); n != 1 {
		t.Fatalf("notified %d subs, want 1", n)
	}
	ev, ok := s.Poll()
	if !ok || ev.Kind != Delta {
		t.Fatalf("want delta event, got %+v ok=%v", ev, ok)
	}
	if len(ev.Added) != 1 || len(ev.Removed) != 0 {
		t.Fatalf("want exactly one added pair, got %+v", ev)
	}
	if err := mi.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if want := bsim.Compute(g, q); mi.Relation().String() != want.String() {
		t.Fatalf("after delta:\n got %v\nwant %v", mi.Relation(), want)
	}
}

// TestSharedGroupSingleMatcher: subscriptions to one pattern share one
// group, and only the first asks for the relation to start from.
func TestSharedGroupSingleMatcher(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	asked := 0
	relOf := func(string) *match.Relation { asked++; return bsim.Compute(g, q) }
	s1 := h.Subscribe("g", g, q, relOf, Options{})
	s2 := h.Subscribe("g", g, q.Clone(), relOf, Options{})
	if st := h.Stats(); st.Groups != 1 || st.Subscriptions != 2 || asked != 1 {
		t.Fatalf("want 1 group / 2 subs / 1 relation asked for, got %+v, %d", st, asked)
	}
	if !h.Watched("g", q.Hash()) {
		t.Fatal("subscribed pattern not watched")
	}
	if s1.ID() == s2.ID() {
		t.Fatalf("ids collide: %s", s1.ID())
	}
	if err := h.Unsubscribe(s1.ID()); err != nil {
		t.Fatal(err)
	}
	if err := h.Unsubscribe(s2.ID()); err != nil {
		t.Fatal(err)
	}
	if st := h.Stats(); st.Groups != 0 || st.Subscriptions != 0 || h.Watched("g", q.Hash()) {
		t.Fatalf("want empty hub after unsubscribes, got %+v", st)
	}
	if err := h.Unsubscribe(s1.ID()); !errors.Is(err, ErrNoSubscription) {
		t.Fatalf("want ErrNoSubscription, got %v", err)
	}
}

func TestCoalescingMergesBursts(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	g := testutil.RandomGraph(r, 60, 240)
	q := testutil.RandomPattern(r, 3)
	h := NewHub()
	s, m := subscribe(h, g, q, Options{Buffer: 4})
	mi := NewMirror(q.NumNodes())
	drainInto(t, s, mi)

	// A burst of 12 batches with nobody consuming: coalescing must keep
	// the buffer at a single pending delta (snapshot already drained).
	scratch := g.Clone()
	for i := 0; i < 12; i++ {
		update(t, h, g, m, randomOps(r, scratch, 5))
	}
	info := s.Info()
	if info.Buffered > 1 {
		t.Fatalf("coalescing left %d buffered events, want <= 1", info.Buffered)
	}
	drainInto(t, s, mi)
	if want := bsim.Compute(g, q); mi.Relation().String() != want.String() {
		t.Fatalf("coalesced stream diverged:\n got %v\nwant %v", mi.Relation(), want)
	}
	if st := h.Stats(); st.Resyncs != 0 {
		t.Fatalf("coalescing should have avoided resyncs, got %+v", st)
	}
}

func TestOverflowResyncsWithSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(3)) // a seed whose pattern matches, so deltas overflow
	g := testutil.RandomGraph(r, 60, 240)
	q := testutil.RandomPattern(r, 3)
	h := NewHub()
	s, m := subscribe(h, g, q, Options{Buffer: 2, NoCoalesce: true})
	mi := NewMirror(q.NumNodes())
	drainInto(t, s, mi)

	scratch := g.Clone()
	published := uint64(0)
	for i := 0; i < 30; i++ {
		update(t, h, g, m, randomOps(r, scratch, 6))
	}
	published = h.Stats().Published
	if published <= 2 {
		t.Skipf("workload produced only %d deltas; nothing to overflow", published)
	}
	if st := h.Stats(); st.Resyncs == 0 {
		t.Fatalf("expected at least one overflow resync, got %+v", st)
	}
	sawResync := false
	for {
		ev, ok := s.Poll()
		if !ok {
			break
		}
		if ev.Resync {
			sawResync = true
		}
		if err := mi.Apply(ev); err != nil {
			t.Fatalf("apply: %v", err)
		}
	}
	if !sawResync {
		t.Fatal("resync snapshot never delivered")
	}
	if want := bsim.Compute(g, q); mi.Relation().String() != want.String() {
		t.Fatalf("post-resync relation diverged:\n got %v\nwant %v", mi.Relation(), want)
	}
}

// TestFlushPublishesAfterInvalidate: attribute changes the matcher
// repaired in place reach subscribers at the next Publish.
func TestFlushPublishesAfterInvalidate(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	s, m := subscribe(h, g, q, Options{})
	mi := NewMirror(q.NumNodes())
	drainInto(t, s, mi)

	// Disqualify every SA by zeroing experience, then publish.
	var sa []graph.NodeID
	g.ForEachNode(func(n graph.Node) {
		if n.Label == "SA" {
			sa = append(sa, n.ID)
		}
	})
	for _, id := range sa {
		if err := g.SetAttr(id, "experience", graph.Int(0)); err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.SyncAttrChanged(id); err != nil {
			t.Fatal(err)
		}
	}
	if n := h.Publish("g", g, relationOf(m)); n != 1 {
		t.Fatalf("notified %d subs, want 1", n)
	}
	drainInto(t, s, mi)
	if !mi.Relation().IsEmpty() {
		t.Fatalf("relation should normalize to empty, got %v", mi.Relation())
	}
	if want := bsim.Compute(g, q); mi.Relation().String() != want.String() {
		t.Fatalf("publish diverged from batch:\n got %v\nwant %v", mi.Relation(), want)
	}
}

func TestLateSubscriberGetsCurrentSnapshot(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(r, 50, 200)
	q := testutil.RandomPattern(r, 3)
	h := NewHub()
	s1, m := subscribe(h, g, q, Options{})
	update(t, h, g, m, randomOps(r, g.Clone(), 10))

	s2 := h.Subscribe("g", g, q, relationOf(m), Options{})
	ev, ok := s2.Poll()
	if !ok || ev.Kind != Snapshot {
		t.Fatalf("late subscriber's first event must be a snapshot, got %+v", ev)
	}
	mi := NewMirror(q.NumNodes())
	if err := mi.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if want := bsim.Compute(g, q); mi.Relation().String() != want.String() {
		t.Fatalf("late snapshot stale:\n got %v\nwant %v", mi.Relation(), want)
	}
	_ = s1
}

func TestTopKRankedDeltas(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	s, m := subscribe(h, g, q, Options{K: 2})
	ev, _ := s.Poll()
	wantTop := rank.TopK(g, q, bsim.Compute(g, q), 2)
	if len(ev.TopK) != len(wantTop) {
		t.Fatalf("snapshot top-K size %d, want %d", len(ev.TopK), len(wantTop))
	}
	for i := range wantTop {
		if ev.TopK[i] != wantTop[i] {
			t.Fatalf("snapshot top-K[%d] = %+v, want %+v", i, ev.TopK[i], wantTop[i])
		}
	}
	e1 := dataset.E1(p)
	update(t, h, g, m, []incremental.Update{incremental.Insert(e1.From, e1.To)})
	ev, ok := s.Poll()
	if !ok {
		t.Fatal("no delta after update")
	}
	wantTop = rank.TopK(g, q, bsim.Compute(g, q), 2)
	if len(ev.TopK) != len(wantTop) {
		t.Fatalf("delta top-K size %d, want %d", len(ev.TopK), len(wantTop))
	}
	for i := range wantTop {
		if ev.TopK[i] != wantTop[i] {
			t.Fatalf("delta top-K[%d] = %+v, want %+v", i, ev.TopK[i], wantTop[i])
		}
	}
}

func TestCloseGraphTerminatesSubscriptions(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	s, _ := subscribe(h, g, q, Options{})
	h.CloseGraph("g")
	// The pre-close snapshot is still readable, then the terminal error.
	if _, ok := s.Poll(); !ok {
		t.Fatal("buffered snapshot lost on close")
	}
	if _, err := s.Next(nil); !errors.Is(err, ErrGraphRemoved) {
		t.Fatalf("want ErrGraphRemoved, got %v", err)
	}
	if closed, cerr := s.Closed(); !closed || !errors.Is(cerr, ErrGraphRemoved) {
		t.Fatalf("Closed() = %v, %v", closed, cerr)
	}
	if st := h.Stats(); st.Subscriptions != 0 || st.Groups != 0 {
		t.Fatalf("hub not emptied: %+v", st)
	}
}

func TestNextBlocksUntilPublish(t *testing.T) {
	g, p := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	s, m := subscribe(h, g, q, Options{})
	if _, err := s.Next(nil); err != nil { // snapshot
		t.Fatal(err)
	}
	got := make(chan Event, 1)
	go func() {
		ev, err := s.Next(nil)
		if err == nil {
			got <- ev
		}
		close(got)
	}()
	e1 := dataset.E1(p)
	update(t, h, g, m, []incremental.Update{incremental.Insert(e1.From, e1.To)})
	ev, ok := <-got
	if !ok || ev.Kind != Delta {
		t.Fatalf("blocked Next woke with %+v ok=%v", ev, ok)
	}
}

// TestQuickStreamEqualsBatch is the package-level half of the acceptance
// property: a subscription fed a randomized update stream — edge churn and
// attribute churn, each repaired by the matcher and published, with
// sporadic consumption through a small buffer — ends with a mirrored
// relation byte-identical to a fresh batch evaluation of the final graph.
func TestQuickStreamEqualsBatch(t *testing.T) {
	trials := 30
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		r := rand.New(rand.NewSource(int64(1000 + trial)))
		g := testutil.RandomGraph(r, 40+r.Intn(40), 150+r.Intn(150))
		q := testutil.RandomPattern(r, 2+r.Intn(3))
		h := NewHub()
		s, m := subscribe(h, g, q, Options{Buffer: 1 + r.Intn(4), NoCoalesce: r.Intn(2) == 0})
		mi := NewMirror(q.NumNodes())
		scratch := g.Clone()
		for round := 0; round < 15; round++ {
			switch r.Intn(4) {
			case 0: // attribute churn, repaired in place
				id := graph.NodeID(r.Intn(g.MaxID()))
				if g.Has(id) {
					_ = g.SetAttr(id, "experience", graph.Int(int64(r.Intn(10))))
					if _, _, err := m.SyncAttrChanged(id); err != nil {
						t.Fatal(err)
					}
					h.Publish("g", g, relationOf(m))
				}
			default:
				update(t, h, g, m, randomOps(r, scratch, 1+r.Intn(6)))
			}
			if r.Intn(3) == 0 { // sporadic consumption
				drainInto(t, s, mi)
			}
		}
		drainInto(t, s, mi)
		want := bsim.Compute(g, q)
		if got := mi.Relation(); got.String() != want.String() {
			t.Fatalf("trial %d: streamed relation diverged\n got %v\nwant %v\npattern %v",
				trial, got, want, q)
		}
	}
}

func TestMirrorProtocolErrors(t *testing.T) {
	mi := NewMirror(2)
	if err := mi.Apply(Event{Seq: 1, Kind: Delta}); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("delta before snapshot: %v", err)
	}
	if err := mi.Apply(Event{Seq: 3, Kind: Snapshot}); err != nil {
		t.Fatal(err)
	}
	if err := mi.Apply(Event{Seq: 3, Kind: Delta}); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("non-increasing seq: %v", err)
	}
	if err := mi.Apply(Event{Seq: 4, Kind: "bogus"}); !errors.Is(err, ErrOutOfSync) {
		t.Fatalf("unknown kind: %v", err)
	}
	if err := mi.Apply(Event{Seq: 4, Kind: Delta}); err != nil {
		t.Fatal(err)
	}
	if mi.Seq() != 4 {
		t.Fatalf("seq = %d, want 4", mi.Seq())
	}
}

// TestConcurrentConsumersDrainEverything pins the wakeup re-signal: two
// consumers blocked in Next must collectively drain a multi-event
// backlog even though the notify channel holds a single token.
func TestConcurrentConsumersDrainEverything(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	h := NewHub()
	s, m := subscribe(h, g, q, Options{NoCoalesce: true})
	if _, err := s.Next(nil); err != nil { // snapshot
		t.Fatal(err)
	}

	const consumers = 2
	got := make(chan Event, 16)
	done := make(chan struct{})
	for c := 0; c < consumers; c++ {
		go func() {
			for {
				ev, err := s.Next(done)
				if err != nil {
					return
				}
				got <- ev
			}
		}()
	}

	// Publish three distinct deltas in one burst while both consumers
	// race for the single notify token.
	var published int
	scratch := g.Clone()
	r := rand.New(rand.NewSource(99))
	for published < 3 {
		before := h.Stats().Published
		update(t, h, g, m, randomOps(r, scratch, 4))
		published += int(h.Stats().Published - before)
	}
	for i := 0; i < published; i++ {
		select {
		case <-got:
		case <-time.After(5 * time.Second):
			t.Fatalf("consumer stranded: %d of %d events delivered", i, published)
		}
	}
	close(done)
}
