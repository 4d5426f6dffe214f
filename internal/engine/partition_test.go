package engine

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/simulation"
	"expfinder/internal/subscribe"
	"expfinder/internal/testutil"
	"expfinder/internal/wal"
)

// directRelation computes the reference bounded-simulation relation on
// the engine's live graph, inside its read scope.
func directRelation(t *testing.T, e *Engine, name string, q *pattern.Pattern) string {
	t.Helper()
	var s string
	if err := e.WithGraph(name, func(g *graph.Graph) error {
		s = bsim.Compute(g, q).String()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPartitionPlanRouting(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	g := testutil.RandomGraph(r, 300, 900)
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("stats before build error = %v", err)
	}
	st, err := e.PartitionGraph("g", partition.Options{Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.Parts != 4 || st.Nodes != 300 {
		t.Fatalf("partition stats = %+v", st)
	}

	want := directRelation(t, e, "g", q)
	res, err := e.Query("g", q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanPartitioned || res.Source != SourcePartitioned {
		t.Fatalf("plan/source = %v/%v, want partitioned", res.Plan, res.Source)
	}
	if res.Relation.String() != want {
		t.Fatalf("partitioned relation diverged:\n got %s\nwant %s", res.Relation, want)
	}

	// A repeat answers from the cache under the same plan label.
	res2, err := e.Query("g", q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != SourceCache || res2.Plan != PlanPartitioned {
		t.Fatalf("repeat plan/source = %v/%v", res2.Plan, res2.Source)
	}

	// Plain-simulation queries keep the quadratic plan.
	qSim, err := pattern.Parse(`
node SA [label = "SA"] output
node SD [label = "SD"]
edge SA -> SD
`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = e.Query("g", qSim, 0); err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanSimulation {
		t.Fatalf("plain-sim plan = %v", res.Plan)
	}

	// Unbounded patterns span the whole graph — not fragment-local.
	qStar, err := pattern.Parse(`
node SA [label = "SA"] output
node SD [label = "SD"]
edge SA -> SD bound *
`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = e.Query("g", qStar, 0); err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanBounded {
		t.Fatalf("unbounded plan = %v, want %v", res.Plan, PlanBounded)
	}

	if err := e.DropPartitions("g"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropPartitions("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("double drop error = %v", err)
	}
}

// TestPartitionPrecedence: with both accelerators present, shallow
// bounded patterns take the partitioned plan, deep ones the indexed.
func TestPartitionPrecedence(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	g := testutil.RandomGraph(r, 400, 1200)
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("g", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	shallow := dataset.PaperQuery()
	res, err := e.Query("g", shallow, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanPartitioned {
		t.Fatalf("shallow plan = %v, want %v", res.Plan, PlanPartitioned)
	}
	deep, err := pattern.Parse(`
node SA [label = "SA", experience >= 4] output
node SD [label = "SD", experience >= 4]
edge SA -> SD bound 9
`)
	if err != nil {
		t.Fatal(err)
	}
	if res, err = e.Query("g", deep, 0); err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanIndexed {
		t.Fatalf("deep plan = %v, want %v", res.Plan, PlanIndexed)
	}
}

// TestPartitionMutationRepair drives every engine mutation path over a
// partitioned graph and checks the partitioning stays fresh (the
// partitioned plan keeps serving) with results identical to the direct
// algorithm after every burst.
func TestPartitionMutationRepair(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	g := testutil.RandomGraph(r, 150, 450)
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 5, Strategy: partition.StrategyGreedy}); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		churn(t, e, "g", r, 20)
		want := directRelation(t, e, "g", q)
		res, err := e.Query("g", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != PlanPartitioned {
			t.Fatalf("round %d: plan = %v (partitioning went stale)", round, res.Plan)
		}
		if res.Source != SourcePartitioned && res.Source != SourceCache {
			t.Fatalf("round %d: source = %v", round, res.Source)
		}
		if res.Relation.String() != want {
			t.Fatalf("round %d: partitioned relation diverged", round)
		}
		st, err := e.PartitionStats("g")
		if err != nil {
			t.Fatal(err)
		}
		var version uint64
		total := 0
		if err := e.WithGraph("g", func(g *graph.Graph) error {
			version = g.Version()
			total = g.NumNodes()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if st.GraphVersion != version {
			t.Fatalf("round %d: partition version %d, graph %d", round, st.GraphVersion, version)
		}
		sum := 0
		for _, fs := range st.Fragments {
			sum += fs.Nodes
		}
		if sum != total {
			t.Fatalf("round %d: fragments own %d nodes, graph has %d", round, sum, total)
		}
	}
}

// TestPartitionRollbackKeepsFresh: a failed update batch rolls back and
// must leave the partitioning routed (content unchanged, version
// re-stamped) — the same contract the distance index has, and the
// bisimulation quotient too.
func TestPartitionRollbackKeepsFresh(t *testing.T) {
	g := payingGraph(t, 200, 1)
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 3}); err != nil {
		t.Fatal(err)
	}
	comp, err := e.CompressGraph("g", compress.Bisimulation, compress.View{"experience"})
	if err != nil {
		t.Fatal(err)
	}
	nodes := g.Nodes()
	u, v := nodes[0], nodes[len(nodes)-1]
	if g.HasEdge(u, v) {
		t.Fatal("fixture edge exists; pick another pair")
	}
	ops := []incremental.Update{
		incremental.Insert(u, v),
		incremental.Insert(u, v), // duplicate: fails, rolls back the first
	}
	if _, err := e.ApplyUpdates("g", ops); err == nil {
		t.Fatal("duplicate insert batch unexpectedly succeeded")
	}
	res, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanPartitioned {
		t.Fatalf("plan after rollback = %v (partitioning went stale)", res.Plan)
	}
	if res.Relation.String() != directRelation(t, e, "g", q) {
		t.Fatal("relation diverged after rollback")
	}
	// A plain-simulation query routes through the quotient, which still
	// describes the restored content exactly and was re-stamped with the
	// rest: its own staleness check (Maintain's) agrees.
	plain, err := pattern.Parse(`node SA [label = "SA", experience >= 5] output
node SD [label = "SD", experience >= 2]
edge SA -> SD bound 1`)
	if err != nil {
		t.Fatal(err)
	}
	res, err = e.Query("g", plain, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceCompressed || !res.Relation.Equal(simulation.Compute(g, plain)) {
		t.Fatalf("plain query after rollback: source %v, relation %v", res.Source, res.Relation)
	}
	if err := comp.Maintain(nil); err != nil {
		t.Fatalf("quotient after rollback: %v", err)
	}
}

// TestSubscriptionsOnPartitionedGraph: continuous queries keep their
// exactness guarantee while the partitioned plan serves one-shot
// queries on the same graph.
func TestSubscriptionsOnPartitionedGraph(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	g := testutil.RandomGraph(r, 80, 240)
	q := testutil.RandomPattern(r, 3)
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 4}); err != nil {
		t.Fatal(err)
	}
	sub, err := e.Subscribe("g", q, subscribe.Options{})
	if err != nil {
		t.Fatal(err)
	}
	mi := subscribe.NewMirror(q.NumNodes())
	drainSub(t, sub, mi)
	for round := 0; round < 5; round++ {
		var ops []incremental.Update
		if err := e.WithGraph("g", func(gg *graph.Graph) error {
			scratch := gg.Clone()
			for _, op := range testutil.RandomOps(r, scratch, 12) {
				ops = append(ops, incremental.Update{Insert: op.Insert, From: op.From, To: op.To})
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, err := e.PushUpdates(context.Background(), "g", ops); err != nil {
			t.Fatal(err)
		}
		drainSub(t, sub, mi)
		want := directRelation(t, e, "g", q)
		if mi.Relation().String() != want {
			t.Fatalf("round %d: mirrored relation diverged from direct", round)
		}
	}
	st, err := e.PartitionStats("g")
	if err != nil {
		t.Fatal(err)
	}
	var version uint64
	if err := e.WithGraph("g", func(gg *graph.Graph) error { version = gg.Version(); return nil }); err != nil {
		t.Fatal(err)
	}
	if st.GraphVersion != version {
		t.Fatal("partitioning went stale under subscription traffic")
	}
}

// TestRecoveryWithPartitionedGraph: WAL recovery restores a graph that
// was partitioned byte-identically; the partitioning itself is an
// in-memory accelerator (not persisted) and is rebuilt on demand.
func TestRecoveryWithPartitionedGraph(t *testing.T) {
	dir := t.TempDir()
	r := rand.New(rand.NewSource(37))
	q := dataset.PaperQuery()

	e := durableEngine(t, dir, wal.Options{})
	if err := e.AddGraph("g", testutil.RandomGraph(r, 100, 300)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 4}); err != nil {
		t.Fatal(err)
	}
	churn(t, e, "g", r, 40)
	res, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanPartitioned {
		t.Fatalf("pre-crash plan = %v", res.Plan)
	}
	before := engineImage(t, e, "g")
	want := res.Relation.String()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := durableEngine(t, dir, wal.Options{})
	sum, err := e2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failed()) != 0 {
		t.Fatalf("recovery failures: %+v", sum.Failed())
	}
	if !bytes.Equal(engineImage(t, e2, "g"), before) {
		t.Fatal("recovered graph image diverged")
	}
	// Partitionings do not survive restarts; queries still answer
	// exactly, and a re-partition restores the partitioned plan.
	if _, err := e2.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("partition stats after recovery = %v, want ErrNoPartition", err)
	}
	res, err = e2.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.String() != want {
		t.Fatal("post-recovery relation diverged")
	}
	if _, err := e2.PartitionGraph("g", partition.Options{Parts: 3}); err != nil {
		t.Fatal(err)
	}
	res, err = e2.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Relation.String() != want {
		t.Fatal("re-partitioned relation diverged")
	}
}
