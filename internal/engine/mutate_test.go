package engine

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/simulation"
	"expfinder/internal/stats"
	"expfinder/internal/subscribe"
	"expfinder/internal/testutil"
	"expfinder/internal/wal"
)

func mustParse(t testing.TB, dsl string) *pattern.Pattern {
	t.Helper()
	q, err := pattern.Parse(dsl)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestSimEqQuotientDroppedByFirstWrite: a simulation-equivalence quotient
// cannot be repaired in place. Every mutation kind must still succeed,
// reach every other maintainer, and stop queries routing through the
// quotient — the write used to fail after the graph had changed, leaving
// statistics and subscribers behind and the quotient serving the old
// graph. No query reads the distance index or the partitioning, so every
// kind detaches both. The plain pattern is queried only while no
// subscription watches it, since a standing query answers from its
// matcher.
func TestSimEqQuotientDroppedByFirstWrite(t *testing.T) {
	plain := mustParse(t, `node A [label = "A"] output
node B [label = "B", experience >= 2]
edge A -> B bound 1`)
	bounded := mustParse(t, `node A [label = "A"] output
node B [label = "B", experience >= 2]
edge A -> B bound 2`)
	const a1, a2, b1, b2 = graph.NodeID(0), graph.NodeID(1), graph.NodeID(2), graph.NodeID(3)
	exp := func(n int64) graph.Attrs { return graph.Attrs{"experience": graph.Int(n)} }
	// Each mutation changes the plain pattern's relation, so a subscriber
	// that is told must see a delta.
	kinds := []struct {
		name   string
		mutate func(e *Engine) error
	}{
		{"ApplyUpdates", func(e *Engine) error {
			_, err := e.ApplyUpdates("g", []graph.Update{graph.Insert(a2, b2)})
			return err
		}},
		{"AddNode", func(e *Engine) error { _, err := e.AddNode("g", "B", exp(5)); return err }},
		{"RemoveNode", func(e *Engine) error { return e.RemoveNode("g", b1) }},
		{"SetNodeAttr", func(e *Engine) error { return e.SetNodeAttr("g", b1, "experience", graph.Int(0)) }},
	}
	for _, kind := range kinds {
		t.Run(kind.name, func(t *testing.T) {
			g := graph.New(5)
			g.AddNode("A", nil)
			g.AddNode("A", nil)
			g.AddNode("B", exp(5))
			g.AddNode("B", exp(5))
			g.AddNode("B", exp(5)) // a third twin, so the quotient pays
			if err := g.AddEdge(a1, b1); err != nil {
				t.Fatal(err)
			}
			e := New(Options{})
			if err := e.AddGraph("g", g); err != nil {
				t.Fatal(err)
			}
			if _, err := e.CompressGraph("g", compress.SimulationEquivalence, compress.View{"experience"}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.PartitionGraph("g", partition.Options{Parts: 2}); err != nil {
				t.Fatal(err)
			}
			if _, err := e.BuildIndex("g", distindex.Options{}); err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterQuery("g", bounded); err != nil {
				t.Fatal(err)
			}
			if res, err := e.Query("g", plain, 0); err != nil || res.Source != SourceCompressed {
				t.Fatalf("before the write: source %v, err %v; want the quotient to route", res.Source, err)
			}
			sub, err := e.Subscribe("g", plain, subscribe.Options{})
			if err != nil {
				t.Fatal(err)
			}
			mi := subscribe.NewMirror(plain.NumNodes())
			drainSub(t, sub, mi)
			before := mi.Seq()

			if err := kind.mutate(e); err != nil {
				t.Fatalf("mutation failed on the quotient's account: %v", err)
			}
			drainSub(t, sub, mi)
			if err := e.Unsubscribe(sub.ID()); err != nil {
				t.Fatal(err)
			}

			want, wantBounded := simulation.Compute(g, plain).String(), bsim.Compute(g, bounded).String()
			res, err := e.Query("g", plain, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source != SourceDirect || res.Relation.String() != want {
				t.Fatalf("plain query: source %v, relation %v; want direct, %v", res.Source, res.Relation, want)
			}
			if res, err := e.Query("g", bounded, 0); err != nil || res.Relation.String() != wantBounded {
				t.Fatalf("registered query: relation %v, err %v; want %v", res.Relation, err, wantBounded)
			}
			if mi.Seq() == before || mi.Relation().String() != want {
				t.Fatalf("subscriber: seq %d -> %d, relation %v; want a delta to %v", before, mi.Seq(), mi.Relation(), want)
			}
			if _, err := e.IndexStats("g"); !errors.Is(err, ErrNoIndex) {
				t.Fatalf("index after the write: %v, want ErrNoIndex", err)
			}
			if _, err := e.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
				t.Fatalf("partitioning after the write: %v, want ErrNoPartition", err)
			}
			gs, err := e.GraphStatistics("g")
			if err != nil {
				t.Fatal(err)
			}
			if gs.Edges != g.NumEdges() || gs.Nodes != g.NumNodes() {
				t.Fatalf("statistics: %d nodes, %d edges; graph has %d, %d",
					gs.Nodes, gs.Edges, g.NumNodes(), g.NumEdges())
			}
		})
	}
}

// recordTap collects the records a WAL appends, decoded — what a
// replication leader would ship.
type recordTap struct{ recs []*wal.Record }

func (*recordTap) GraphCreated(string, *graph.Graph) {}
func (*recordTap) GraphDropped(string)               {}
func (tap *recordTap) RecordAppended(_ string, payload []byte, _ uint64) {
	rec, err := wal.DecodeRecord(append([]byte(nil), payload...))
	if err != nil {
		panic(err)
	}
	tap.recs = append(tap.recs, rec)
}

// maintainerState renders which maintainers a graph carries and the
// graph's version.
func maintainerState(t *testing.T, e *Engine, name string) string {
	t.Helper()
	mg, err := e.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return fmt.Sprintf("version=%d matchers=%d quotient=%v index=%v partitions=%v",
		mg.g.Version(), len(mg.queries), mg.comp != nil, mg.idx != nil, mg.part != nil)
}

// checkStatistics fails unless the named graph's served statistics equal
// a from-scratch recount of the graph at the version they name.
func checkStatistics(t *testing.T, e *Engine, name string) {
	t.Helper()
	gs, err := e.GraphStatistics(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.WithGraph(name, func(g *graph.Graph) error {
		if want := stats.Compute(g); gs.GraphVersion != g.Version() || !gs.Equal(want) {
			return fmt.Errorf("statistics at version %d diverge from a recount at %d:\n got  %+v\n want %+v",
				gs.GraphVersion, g.Version(), gs, want)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestNativeAndReplicatedPathsAgree drives one seeded stream of every
// mutation kind through the public write methods of one engine and, record
// by record as its WAL appends them, through ApplyReplicatedRecord on a
// second. Both start with every maintainer and accelerator attached.
// After every record the two must hold the same graph image at the same
// version, the same maintainers attached, statistics equal to a recount,
// the same answers by the same routes, and subscribers that were sent
// the same events.
func TestNativeAndReplicatedPathsAgree(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	g := payingGraph(t, 60, 97) // the quotient routes until the stream takes it past the cut
	registered := testutil.RandomPattern(r, 3)
	queries := []*pattern.Pattern{registered, testutil.RandomPattern(r, 3), testutil.RandomSimPattern(r, 3)}
	for _, q := range queries[1:] {
		// The unregistered ones must differ from the registered one, or the
		// matcher answers them and the accelerated routes go unexercised.
		if q.Hash() == registered.Hash() {
			t.Fatal("seed yields a duplicate pattern; pick another")
		}
	}
	if queries[1].IsPlainSimulation() || !queries[2].IsPlainSimulation() {
		t.Fatal("seed must yield one bounded and one plain pattern; pick another")
	}

	tap := &recordTap{}
	native := durableEngine(t, t.TempDir(), wal.Options{Fsync: wal.FsyncOff})
	native.opts.Persistence.SetObserver(tap)
	replica := New(Options{})
	replica.SetReadOnly("native")
	engines := []*Engine{native, replica}
	subs := make([]*subscribe.Subscription, len(engines))
	for i, e := range engines {
		if err := e.addGraph("g", g.Clone()); err != nil {
			t.Fatal(err)
		}
		if err := e.RegisterQuery("g", registered); err != nil {
			t.Fatal(err)
		}
		if _, err := e.CompressGraph("g", compress.Bisimulation, compress.View{"experience"}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.BuildIndex("g", distindex.Options{}); err != nil {
			t.Fatal(err)
		}
		if _, err := e.PartitionGraph("g", partition.Options{Parts: 2}); err != nil {
			t.Fatal(err)
		}
		var err error
		if subs[i], err = e.Subscribe("g", registered, subscribe.Options{NoCoalesce: true}); err != nil {
			t.Fatal(err)
		}
	}
	events := func(s *subscribe.Subscription) (evs []subscribe.Event) {
		for ev, ok := s.Poll(); ok; ev, ok = s.Poll() {
			evs = append(evs, ev)
		}
		return evs
	}

	// The stream inserts only, until deletesFrom, and rolls one batch back
	// at rollbackAt; it reaches the replica as its forward and inverse ops.
	const steps, deletesFrom, rollbackAt = 60, 20, 40
	scratch := g.Clone() // tracks the native graph, to draw valid ops from
	replayed, rolledBack, readQuotient := 0, false, false
	for step := 0; step < steps; step++ {
		nodes := scratch.Nodes()
		pick := func() graph.NodeID { return nodes[r.Intn(len(nodes))] }
		kind := r.Intn(10)
		switch {
		case step == rollbackAt:
			u, v := pick(), pick()
			for u == v || scratch.HasEdge(u, v) {
				u, v = pick(), pick()
			}
			ops := []graph.Update{graph.Insert(u, v), graph.Insert(u, v)} // the duplicate fails
			if _, err := native.ApplyUpdates("g", ops); err == nil {
				t.Fatal("batch with a duplicate insert succeeded")
			}
			rolledBack = true
		case kind < 5:
			var ops []graph.Update
			for len(ops) < 4 {
				u, v := pick(), pick()
				if u == v {
					continue
				}
				op := graph.Insert(u, v)
				if scratch.HasEdge(u, v) {
					if step < deletesFrom {
						continue
					}
					op = graph.Delete(u, v)
				}
				if err := op.Apply(scratch); err != nil {
					t.Fatal(err)
				}
				ops = append(ops, op)
			}
			if _, err := native.ApplyUpdates("g", ops); err != nil {
				t.Fatal(err)
			}
		case kind < 7:
			label, attrs := testutil.Labels[r.Intn(len(testutil.Labels))], graph.Attrs{"experience": graph.Int(int64(r.Intn(10)))}
			scratch.AddNode(label, attrs)
			if _, err := native.AddNode("g", label, attrs); err != nil {
				t.Fatal(err)
			}
		case kind < 8 && step >= deletesFrom:
			id := pick()
			if err := scratch.RemoveNode(id); err != nil {
				t.Fatal(err)
			}
			if err := native.RemoveNode("g", id); err != nil {
				t.Fatal(err)
			}
		default:
			id, v := pick(), graph.Int(int64(r.Intn(10)))
			if err := scratch.SetAttr(id, "experience", v); err != nil {
				t.Fatal(err)
			}
			if err := native.SetNodeAttr("g", id, "experience", v); err != nil {
				t.Fatal(err)
			}
		}
		if len(tap.recs) != replayed+1 {
			t.Fatalf("step %d: the write logged %d records, want 1", step, len(tap.recs)-replayed)
		}
		if err := replica.ApplyReplicatedRecord("g", tap.recs[replayed]); err != nil {
			t.Fatalf("step %d: replay: %v", step, err)
		}
		replayed++

		if !bytes.Equal(engineImage(t, native, "g"), engineImage(t, replica, "g")) {
			t.Fatalf("step %d: graph images diverge", step)
		}
		if a, b := maintainerState(t, native, "g"), maintainerState(t, replica, "g"); a != b {
			t.Fatalf("step %d: maintainers diverge:\n native  %s\n replica %s", step, a, b)
		}
		for _, e := range engines {
			checkStatistics(t, e, "g")
		}
		for _, q := range queries {
			a, err := native.Query("g", q, 5)
			if err != nil {
				t.Fatal(err)
			}
			b, err := replica.Query("g", q, 5)
			if err != nil {
				t.Fatal(err)
			}
			if a.Plan != b.Plan || a.Source != b.Source || !a.Relation.Equal(b.Relation) || !sameRanking(a.TopK, b.TopK) {
				t.Fatalf("step %d: answers diverge: native %v/%v %v, replica %v/%v %v",
					step, a.Plan, a.Source, a.Relation, b.Plan, b.Source, b.Relation)
			}
			readQuotient = readQuotient || a.Source == SourceCompressed
		}
		if a, b := events(subs[0]), events(subs[1]); !reflect.DeepEqual(a, b) {
			t.Fatalf("step %d: subscribers were sent different events:\n native  %+v\n replica %+v", step, a, b)
		}
	}
	if !rolledBack {
		t.Fatal("the stream never rolled a batch back")
	}
	// Both sides read the quotient, then dropped it at the same record.
	if c, _ := native.Compressed("g"); !readQuotient || c != nil {
		t.Fatalf("the stream read the quotient: %v; it is still attached: %v", readQuotient, c != nil)
	}
}

// BenchmarkApplyUpdatesFullNode times the whole write pipeline on a node
// that carries everything a write must keep in step: a registered query,
// a bisimulation quotient, two partitions, statistics and a WAL (fsync
// off, so the log costs its encoding and a write, not the disk). Each
// iteration applies a valid 16-op batch, alternately inserting 16 new
// edges and deleting them again.
func BenchmarkApplyUpdatesFullNode(b *testing.B) {
	g, err := generator.Collaboration(generator.Config{Nodes: 2000, AvgDegree: 8, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	m, err := wal.Open(wal.Options{Dir: b.TempDir(), Fsync: wal.FsyncOff})
	if err != nil {
		b.Fatal(err)
	}
	e := New(Options{Persistence: m})
	defer e.Close()
	if err := e.AddGraph("g", g); err != nil {
		b.Fatal(err)
	}
	q := mustParse(b, `node SA [label = "SA", experience >= 5] output
node SD [label = "SD", experience >= 2]
edge SA -> SD bound 2`)
	if err := e.RegisterQuery("g", q); err != nil {
		b.Fatal(err)
	}
	if _, err := e.CompressGraph("g", compress.Bisimulation, compress.View{"experience"}); err != nil {
		b.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 2}); err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	nodes := g.Nodes()
	batches := [2][]graph.Update{}
	seen := map[[2]graph.NodeID]bool{}
	for len(batches[0]) < 16 {
		u, v := nodes[r.Intn(len(nodes))], nodes[r.Intn(len(nodes))]
		if u == v || g.HasEdge(u, v) || seen[[2]graph.NodeID{u, v}] {
			continue
		}
		seen[[2]graph.NodeID{u, v}] = true
		batches[0] = append(batches[0], graph.Insert(u, v))
		batches[1] = append(batches[1], graph.Delete(u, v))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.ApplyUpdates("g", batches[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
