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
	"expfinder/internal/pattern"
)

func TestIndexedPlanRouting(t *testing.T) {
	e, _ := newPaperEngine(t)
	q := dataset.PaperQuery()
	direct, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}

	// Fresh engine for the routed query, so the result cache from the
	// direct run cannot mask the indexed plan.
	eIx := New(Options{})
	g, _ := dataset.PaperGraph()
	if err := eIx.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	if _, err := eIx.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := eIx.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan != PlanIndexed || res.Source != SourceIndexed {
		t.Fatalf("plan/source = %v/%v, want %v/%v", res.Plan, res.Source, PlanIndexed, SourceIndexed)
	}
	if !res.Relation.Equal(direct.Relation) {
		t.Fatal("indexed relation differs from direct")
	}
	if fmt.Sprintf("%v", res.TopK) != fmt.Sprintf("%v", direct.TopK) {
		t.Fatalf("indexed top-K differs: %v vs %v", res.TopK, direct.TopK)
	}

	// A cache hit keeps reporting the selected plan.
	res2, err := eIx.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != SourceCache || res2.Plan != PlanIndexed {
		t.Fatalf("repeat plan/source = %v/%v", res2.Plan, res2.Source)
	}

	// Plain-simulation queries never take the indexed plan.
	qSim, err := pattern.Parse(`
node SA [label = "SA"] output
node SD [label = "SD"]
edge SA -> SD bound 1
`)
	if err != nil {
		t.Fatal(err)
	}
	resSim, err := eIx.Query("paper", qSim, 0)
	if err != nil {
		t.Fatal(err)
	}
	if resSim.Plan != PlanSimulation {
		t.Fatalf("plain query plan = %v", resSim.Plan)
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
	if _, err := e.Index("paper"); err != nil {
		t.Fatal(err)
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
	res, err := e.Query("paper", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceIndexed {
		t.Fatalf("post-insert source = %v", res.Source)
	}
	g, err := e.Graph("paper")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Relation.Equal(bsim.Compute(g, q)) {
		t.Fatal("indexed relation diverges after insert repair")
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
	// graph content is unchanged, so the index must stay routed.
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
	res, err := e.Query("paper", dataset.PaperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceIndexed {
		t.Fatalf("post-rollback source = %v, want indexed", res.Source)
	}
	g, _ := e.Graph("paper")
	if !res.Relation.Equal(bsim.Compute(g, dataset.PaperQuery())) {
		t.Fatal("post-rollback relation wrong")
	}
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
	// Rebuilding restores the indexed plan.
	if _, err := e.BuildIndex("paper", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	q2 := dataset.BenchQueries(1)[0] // different hash: dodge the cache
	res2, err := e.Query("paper", q2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source != SourceIndexed {
		t.Fatalf("post-rebuild source = %v", res2.Source)
	}
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
	ix, err := e.Index("paper")
	if err != nil {
		t.Fatal(err)
	}
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

func TestIndexedTakesPrecedenceOverCompressed(t *testing.T) {
	e := newCollabEngine(t)
	if _, err := e.CompressGraph("collab", compress.Bisimulation, compress.View{"experience"}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.BuildIndex("collab", distindex.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query("collab", dataset.PaperQuery(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != SourceIndexed {
		t.Fatalf("source = %v, want indexed over compressed", res.Source)
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
