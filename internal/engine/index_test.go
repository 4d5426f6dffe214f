package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"expfinder/internal/compress"
	"expfinder/internal/dataset"
	"expfinder/internal/distindex"
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
