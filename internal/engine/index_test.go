package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
)

// attachedIndex is the graph's distance index, nil when none is built,
// read under the graph's read lock.
func attachedIndex(t *testing.T, e *Engine, name string) *distindex.Index {
	t.Helper()
	mg, err := e.lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return mg.idx
}

// indexAnswersExactly checks that the attached index, handed to the
// kernel, still gives the kernel's own relation for q on the live graph.
func indexAnswersExactly(t *testing.T, e *Engine, name string, q *pattern.Pattern) {
	t.Helper()
	ix := attachedIndex(t, e, name)
	if ix == nil {
		t.Fatal("no index attached")
	}
	if err := e.WithGraph(name, func(g *graph.Graph) error {
		if !bsim.ComputeIndexed(g, q, ix).Equal(bsim.Compute(g, q)) {
			t.Error("index-backed relation diverges from the kernel's")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestIndexedPlanRouting: attaching a distance index leaves the plan, the
// source and the answer of every query as they were without one.
func TestIndexedPlanRouting(t *testing.T) {
	qSim, err := pattern.Parse(`
node SA [label = "SA"] output
node SD [label = "SD"]
edge SA -> SD bound 1
`)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []*pattern.Pattern{dataset.PaperQuery(), qSim} {
		plain, _ := newPaperEngine(t)
		want, err := plain.Query("paper", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		eIx, _ := newPaperEngine(t)
		if _, err := eIx.BuildIndex("paper", distindex.Options{}); err != nil {
			t.Fatal(err)
		}
		res, err := eIx.Query("paper", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Plan != want.Plan || res.Source != want.Source || res.Source != SourceDirect {
			t.Fatalf("with an index: plan/source = %v/%v, want %v/%v", res.Plan, res.Source, want.Plan, want.Source)
		}
		if !res.Relation.Equal(want.Relation) || fmt.Sprintf("%v", res.TopK) != fmt.Sprintf("%v", want.TopK) {
			t.Fatalf("with an index: answer %v %v, want %v %v", res.Relation, res.TopK, want.Relation, want.TopK)
		}
		// A cache hit keeps reporting the same plan.
		res2, err := eIx.Query("paper", q, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res2.Source != SourceCache || res2.Plan != want.Plan {
			t.Fatalf("repeat plan/source = %v/%v", res2.Plan, res2.Source)
		}
	}
}

func TestIndexStatsLifecycle(t *testing.T) {
	e, _ := newPaperEngine(t)
	if _, err := e.IndexStats("paper"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("stats before build: %v", err)
	}
	st, err := e.BuildIndex("paper", distindex.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !st.Complete || !st.Fresh || st.Landmarks == 0 {
		t.Fatalf("implausible build stats: %+v", st)
	}
	if attachedIndex(t, e, "paper") == nil {
		t.Fatal("BuildIndex attached no index")
	}
	if err := e.DropIndex("paper"); err != nil {
		t.Fatal(err)
	}
	if err := e.DropIndex("paper"); !errors.Is(err, ErrNoIndex) {
		t.Fatalf("double drop: %v", err)
	}
	if _, err := e.BuildIndex("nope", distindex.Options{}); !errors.Is(err, ErrNoGraph) {
		t.Fatalf("build on unknown graph: %v", err)
	}
}

func TestIndexRepairedAcrossInsertUpdates(t *testing.T) {
	e, p := newPaperEngine(t)
	q := dataset.PaperQuery()
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	// Example 3: inserting e1 adds exactly (SD, Fred).
	if _, err := e.ApplyUpdates("paper", []incremental.Update{incremental.Insert(p.Fred, p.Pat)}); err != nil {
		t.Fatal(err)
	}
	st, err := e.IndexStats("paper")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fresh {
		t.Fatalf("index not fresh after insert repair: %+v", st)
	}
	indexAnswersExactly(t, e, "paper", q)
	res, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	sd, _ := q.Lookup("SD")
	if !res.Relation.Has(sd, p.Fred) {
		t.Fatal("(SD, Fred) missing after insert")
	}
}

func TestIndexStaysFreshAfterRolledBackBatch(t *testing.T) {
	e, p := newPaperEngine(t)
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	// Op 2 duplicates an existing edge; the whole batch rolls back. The
	// graph content is unchanged, so the index must stay fresh.
	_, err := e.ApplyUpdates("paper", []incremental.Update{
		incremental.Insert(p.Fred, p.Pat),
		incremental.Insert(p.Bob, p.Dan), // already present
	})
	if err == nil {
		t.Fatal("duplicate insert should fail the batch")
	}
	st, err := e.IndexStats("paper")
	if err != nil {
		t.Fatal(err)
	}
	if !st.Fresh {
		t.Fatalf("index demoted by a rolled-back batch: %+v", st)
	}
	indexAnswersExactly(t, e, "paper", dataset.PaperQuery())
}

func TestIndexInvalidatedByDeletion(t *testing.T) {
	e, p := newPaperEngine(t)
	q := dataset.PaperQuery()
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyUpdates("paper", []incremental.Update{incremental.Delete(p.Walt, p.Fred)}); err != nil {
		t.Fatal(err)
	}
	st, err := e.IndexStats("paper")
	if err != nil {
		t.Fatal(err)
	}
	if st.Fresh || !st.Stale {
		t.Fatalf("index should be stale after a deletion: %+v", st)
	}
	res, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanBounded || res.Source != SourceDirect {
		t.Fatalf("post-delete plan/source = %v/%v, want bounded/direct", res.Plan, res.Source)
	}
	g, _ := e.Graph("paper")
	if !res.Relation.Equal(bsim.Compute(g, q)) {
		t.Fatal("post-delete relation wrong")
	}
	// Rebuilding restores a fresh, exact index.
	if st, err := e.BuildIndex("paper", distindex.Options{}); err != nil || !st.Fresh {
		t.Fatalf("rebuild: %+v, %v", st, err)
	}
	indexAnswersExactly(t, e, "paper", q)
}

func TestIndexNodeLifecycleHooks(t *testing.T) {
	e, p := newPaperEngine(t)
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	// Attribute changes keep the index fresh (distances untouched).
	if err := e.SetNodeAttr("paper", p.Bob, "experience", graph.Int(9)); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.IndexStats("paper"); !st.Fresh {
		t.Fatalf("attr change should not invalidate: %+v", st)
	}
	// New nodes join the index; connecting them keeps it fresh and exact.
	id, err := e.AddNode("paper", "SD", graph.Attrs{"experience": graph.Int(3)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApplyUpdates("paper", []incremental.Update{
		incremental.Insert(p.Bob, id), incremental.Insert(id, p.Eva),
	}); err != nil {
		t.Fatal(err)
	}
	st, _ := e.IndexStats("paper")
	if !st.Fresh {
		t.Fatalf("index not fresh after node add + inserts: %+v", st)
	}
	ix := attachedIndex(t, e, "paper")
	g, _ := e.Graph("paper")
	if ix.Distance(p.Bob, p.Eva) != g.Distance(p.Bob, p.Eva) {
		t.Fatal("index distance diverges after node lifecycle")
	}
	// Node removal invalidates.
	if err := e.RemoveNode("paper", id); err != nil {
		t.Fatal(err)
	}
	if st, _ := e.IndexStats("paper"); st.Fresh {
		t.Fatalf("node removal should invalidate: %+v", st)
	}
}

// TestCompressedTakesPrecedenceOverIndexAndPartitions: on a graph whose
// quotient pays, a bounded query answers from the quotient with an index
// and a partitioning attached beside it, and equals the kernel's answer.
func TestCompressedTakesPrecedenceOverIndexAndPartitions(t *testing.T) {
	e := newCollabEngine(t)
	if _, err := e.BuildIndex("collab", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.PartitionGraph("collab", partition.Options{Parts: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.CompressGraph("collab", compress.Bisimulation, compress.View{"experience"}); err != nil {
		t.Fatal(err)
	}
	q := dataset.PaperQuery()
	res, err := e.Query("collab", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanBounded || res.Source != SourceCompressed {
		t.Fatalf("plan/source = %v/%v, want bounded-simulation/compressed", res.Plan, res.Source)
	}
	if want := directRelation(t, e, "collab", q); res.Relation.String() != want {
		t.Fatalf("compressed relation = %s, want the kernel's %s", res.Relation, want)
	}
}

func TestConcurrentIndexedQueriesAndInserts(t *testing.T) {
	e := New(Options{Parallelism: 4})
	g, p := dataset.PaperGraph()
	if err := e.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	qs := dataset.BenchQueries(8)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				if _, err := e.QueryCtx(context.Background(), "paper", qs[(i*3+j)%len(qs)], 3); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 5; j++ {
			_, _ = e.ApplyUpdates("paper", []incremental.Update{incremental.Insert(p.Fred, p.Pat)})
			_, _ = e.ApplyUpdates("paper", []incremental.Update{incremental.Delete(p.Fred, p.Pat)})
		}
	}()
	wg.Wait()
}
