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

// partitionAnswersExactly checks that the attached partitioning is fresh
// and that the partition-parallel evaluator over it still gives the
// kernel's relation for q on the live graph.
func partitionAnswersExactly(t *testing.T, e *Engine, name string, q *pattern.Pattern) {
	t.Helper()
	mg, err := e.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	if mg.part == nil || !mg.part.Fresh(mg.g) {
		t.Fatal("partitioning missing or stale")
	}
	rel, _, err := partition.Eval(mg.g, q, mg.part, partition.Bounded)
	if err != nil {
		t.Fatal(err)
	}
	if want := bsim.Compute(mg.g, q); !rel.Equal(want) {
		t.Fatalf("partitioned relation diverged:\n got %s\nwant %s", rel, want)
	}
}

// TestPartitionPlanRouting: attaching a partitioning leaves the plan, the
// source and the answer of every query as they were without one.
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
	if res.Plan != PlanBounded || res.Source != SourceDirect {
		t.Fatalf("plan/source = %v/%v, want bounded-simulation/direct", res.Plan, res.Source)
	}
	if res.Relation.String() != want {
		t.Fatalf("relation diverged:\n got %s\nwant %s", res.Relation, want)
	}

	// A repeat answers from the cache under the same plan label.
	res2, err := e.Query("g", q, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != SourceCache || res2.Plan != PlanBounded {
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
	if res.Plan != PlanSimulation || res.Source != SourceDirect {
		t.Fatalf("plain-sim plan/source = %v/%v", res.Plan, res.Source)
	}

	// Unbounded patterns keep the bounded plan.
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
	if res.Plan != PlanBounded || res.Source != SourceDirect {
		t.Fatalf("unbounded plan/source = %v/%v, want bounded-simulation/direct", res.Plan, res.Source)
	}

	if err := e.DropPartitions("g"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropPartitions("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("double drop error = %v", err)
	}
}

// TestPartitionPrecedence: with both a partitioning and a distance index
// attached, shallow and deep bounded patterns alike answer on the kernel,
// under the bounded plan, exactly.
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
	deep, err := pattern.Parse(`
node SA [label = "SA", experience >= 4] output
node SD [label = "SD", experience >= 4]
edge SA -> SD bound 9
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*pattern.Pattern{dataset.PaperQuery(), deep} {
		res, err := e.Query("g", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != PlanBounded || res.Source != SourceDirect {
			t.Fatalf("plan/source = %v/%v, want bounded-simulation/direct", res.Plan, res.Source)
		}
		if res.Relation.String() != directRelation(t, e, "g", q) {
			t.Fatal("relation diverged from the kernel's")
		}
	}
}

// TestRolledBackBatchDetachesIndexAndPartitions: a batch that applied a
// prefix and was rolled back still moved the version, so it detaches the
// distance index and the partitioning; a batch rejected at its first op
// changed nothing and keeps both. The bisimulation quotient survives
// either: the content it describes is unchanged.
func TestRolledBackBatchDetachesIndexAndPartitions(t *testing.T) {
	g := payingGraph(t, 200, 1)
	q := dataset.PaperQuery()
	e := New(Options{})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("g", partition.Options{Parts: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("g", distindex.Options{}); err != nil {
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
	version := g.Version()
	if _, err := e.ApplyUpdates("g", []incremental.Update{incremental.Delete(u, v)}); err == nil {
		t.Fatal("deleting a missing edge unexpectedly succeeded")
	}
	if _, err := e.IndexStats("g"); err != nil || g.Version() != version {
		t.Fatalf("rejected batch: index %v, version %d -> %d", err, version, g.Version())
	}
	partitionAnswersExactly(t, e, "g", q)

	ops := []incremental.Update{
		incremental.Insert(u, v),
		incremental.Insert(u, v), // duplicate: fails, rolls back the first
	}
	if _, err := e.ApplyUpdates("g", ops); err == nil {
		t.Fatal("duplicate insert batch unexpectedly succeeded")
	}
	if _, err := e.IndexStats("g"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("index after rollback: %v, want ErrNoIndex", err)
	}
	if _, err := e.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("partitioning after rollback: %v, want ErrNoPartition", err)
	}
	res, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
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
// exactness guarantee under subscription traffic on a partitioned graph,
// and the first write detaches the partitioning.
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
	if _, err := e.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("partitioning after subscription traffic: %v, want ErrNoPartition", err)
	}
}

// TestRecoveryWithPartitionedGraph: WAL recovery restores a graph that
// was partitioned byte-identically; the partitioning itself is an
// in-memory accelerator, detached by the first write, not persisted, and
// rebuilt on demand.
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
	if _, err := e.PartitionStats("g"); !errors.Is(err, ErrNoPartition) {
		t.Fatalf("partition stats after writes = %v, want ErrNoPartition", err)
	}
	res, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
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
	// exactly, and a re-partition restores a fresh, exact partitioning.
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
	partitionAnswersExactly(t, e2, "g", q)
}
