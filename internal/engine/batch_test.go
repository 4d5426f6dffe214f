package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"expfinder/internal/dataset"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/partition"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/testutil"
	"expfinder/internal/trace"
)

// batchWorkload is a shared graph plus a set of distinct queries against
// it (varying experience thresholds so no two share a cache key).
func batchWorkload(t *testing.T, nQueries int) (*graph.Graph, []*pattern.Pattern) {
	t.Helper()
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 400, AvgDegree: 6, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	qs := make([]*pattern.Pattern, nQueries)
	for i := range qs {
		q, err := pattern.Parse(fmt.Sprintf(`
node SA [label = "SA", experience >= %d] output
node SD [label = "SD"]
edge SA -> SD bound 2
edge SD -> SA bound 2
`, 1+i%6))
		if err != nil {
			t.Fatal(err)
		}
		qs[i] = q
	}
	return g, qs
}

func TestQueryBatchMatchesSerial(t *testing.T) {
	g, qs := batchWorkload(t, 12)
	serial := New(Options{Parallelism: 1})
	parallel := New(Options{Parallelism: 4})
	for _, e := range []*Engine{serial, parallel} {
		if err := e.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
	}
	reqs := make([]QueryRequest, len(qs))
	for i, q := range qs {
		reqs[i] = QueryRequest{Graph: "g", Pattern: q, K: 5}
	}
	want := make([]*Result, len(qs))
	for i, q := range qs {
		res, err := serial.Query("g", q, 5)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got := parallel.QueryBatch(context.Background(), reqs)
	if len(got) != len(reqs) {
		t.Fatalf("outcomes = %d, want %d", len(got), len(reqs))
	}
	for i, oc := range got {
		if oc.Err != nil {
			t.Fatalf("request %d: %v", i, oc.Err)
		}
		if !oc.Result.Relation.Equal(want[i].Relation) {
			t.Errorf("request %d: batch relation diverged from serial", i)
		}
		if !sameRanking(oc.Result.TopK, want[i].TopK) {
			t.Errorf("request %d: batch top-K diverged from serial", i)
		}
	}
}

func sameRanking(a, b []rank.Ranked) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Node != b[i].Node || a[i].Rank != b[i].Rank {
			return false
		}
	}
	return true
}

// TestExecutorDeterminism pins the ISSUE acceptance check: identical match
// relations and top-K ranking for Parallelism 1, 4, and GOMAXPROCS — and
// under a live trace, which observes the evaluation and never steers it.
func TestExecutorDeterminism(t *testing.T) {
	g, qs := batchWorkload(t, 8)
	arms := []struct {
		par    int
		traced bool
	}{{1, false}, {4, false}, {runtime.GOMAXPROCS(0), false}, {4, true}}
	var baseline []QueryOutcome
	for _, arm := range arms {
		e := New(Options{Parallelism: arm.par})
		if err := e.AddGraph("g", g); err != nil {
			t.Fatal(err)
		}
		reqs := make([]QueryRequest, len(qs))
		for i, q := range qs {
			reqs[i] = QueryRequest{Graph: "g", Pattern: q, K: 10}
		}
		var tracer *trace.Tracer // nil: Start and Finish do nothing
		if arm.traced {
			tracer = trace.New(trace.Options{Sample: 1})
		}
		ctx, tr := tracer.Start(context.Background(), "t1", "batch", false)
		out := e.QueryBatch(ctx, reqs)
		if tj := tracer.Finish(tr); arm.traced && (tj == nil || tj.Find("engine.query") == nil) {
			t.Fatalf("traced arm recorded no engine.query span: %+v", tj)
		}
		for i, oc := range out {
			if oc.Err != nil {
				t.Fatalf("arm %+v request %d: %v", arm, i, oc.Err)
			}
		}
		if baseline == nil {
			baseline = out
			continue
		}
		for i := range out {
			if !out[i].Result.Relation.Equal(baseline[i].Result.Relation) {
				t.Errorf("arm %+v request %d: relation differs from arm %+v", arm, i, arms[0])
			}
			if !sameRanking(out[i].Result.TopK, baseline[i].Result.TopK) {
				t.Errorf("arm %+v request %d: top-K differs from arm %+v", arm, i, arms[0])
			}
		}
	}
}

func TestQueryBatchIsolatesFailures(t *testing.T) {
	e, _ := newPaperEngine(t)
	q := dataset.PaperQuery()
	bad := pattern.New() // fails Validate: no nodes
	out := e.QueryBatch(context.Background(), []QueryRequest{
		{Graph: "paper", Pattern: q, K: 1},
		{Graph: "missing", Pattern: q, K: 1},
		{Graph: "paper", Pattern: bad, K: 1},
		{Graph: "paper", Pattern: q, K: 1},
	})
	if out[0].Err != nil || out[3].Err != nil {
		t.Fatalf("good requests failed: %v, %v", out[0].Err, out[3].Err)
	}
	if !errors.Is(out[1].Err, ErrNoGraph) {
		t.Errorf("missing graph error = %v, want ErrNoGraph", out[1].Err)
	}
	if out[2].Err == nil {
		t.Error("invalid pattern did not fail")
	}
	if out[0].Result.Relation.Size() != 7 || out[3].Result.Relation.Size() != 7 {
		t.Error("good outcomes wrong")
	}
}

func TestQueryBatchCancelled(t *testing.T) {
	e, _ := newPaperEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := e.QueryBatch(ctx, []QueryRequest{
		{Graph: "paper", Pattern: dataset.PaperQuery(), K: 1},
		{Graph: "paper", Pattern: dataset.PaperQuery(), K: 1},
	})
	for i, oc := range out {
		if !errors.Is(oc.Err, context.Canceled) {
			t.Errorf("request %d: err = %v, want context.Canceled", i, oc.Err)
		}
	}
}

func TestQueryAsync(t *testing.T) {
	e, p := newPaperEngine(t)
	oc := <-e.QueryAsync(context.Background(), QueryRequest{Graph: "paper", Pattern: dataset.PaperQuery(), K: 1})
	if oc.Err != nil {
		t.Fatal(oc.Err)
	}
	if len(oc.Result.TopK) != 1 || oc.Result.TopK[0].Node != p.Bob {
		t.Errorf("top-1 = %v, want Bob", oc.Result.TopK)
	}
}

// TestPerGraphLockSharding drives queries and updates on independent
// graphs from many goroutines at once: with per-graph locks none of it
// may deadlock, race (the -race CI job), or corrupt either graph.
func TestPerGraphLockSharding(t *testing.T) {
	e := New(Options{Parallelism: 8})
	r := rand.New(rand.NewSource(21))
	for _, name := range []string{"a", "b"} {
		if err := e.AddGraph(name, testutil.RandomGraph(r, 80, 240)); err != nil {
			t.Fatal(err)
		}
	}
	q := testutil.RandomPattern(rand.New(rand.NewSource(22)), 3)
	ga, _ := e.Graph("a")
	opsMirror := ga.Clone()
	ops := testutil.RandomOps(rand.New(rand.NewSource(23)), opsMirror, 40)

	var wg sync.WaitGroup
	errCh := make(chan error, 16)
	wg.Add(1)
	go func() { // mutate graph a...
		defer wg.Done()
		for _, op := range ops {
			if _, err := e.ApplyUpdates("a", []incremental.Update{{Insert: op.Insert, From: op.From, To: op.To}}); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for w := 0; w < 4; w++ { // ...while querying graph b
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				if _, err := e.Query("b", q, 3); err != nil {
					errCh <- err
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
}

// TestReAddedGraphDoesNotServeStaleCache pins the epoch-keyed cache: a
// graph removed and re-registered under its old name (with a colliding
// per-graph version counter) must never be answered from the previous
// instance's cache entries — even when an in-flight query re-inserts one
// after RemoveGraph's purge.
func TestReAddedGraphDoesNotServeStaleCache(t *testing.T) {
	e := New(Options{})
	g1, _ := dataset.PaperGraph()
	q := dataset.PaperQuery()
	if err := e.AddGraph("g", g1); err != nil {
		t.Fatal(err)
	}
	res1, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Relation.Size() != 7 {
		t.Fatalf("relation size = %d, want 7", res1.Relation.Size())
	}
	if err := e.RemoveGraph("g"); err != nil {
		t.Fatal(err)
	}
	// Same name, same version (both graphs are unmutated), no matches.
	if err := e.AddGraph("g", graph.New(0)); err != nil {
		t.Fatal(err)
	}
	res2, err := e.Query("g", q, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res2.Source == SourceCache {
		t.Error("re-added graph served from the old instance's cache")
	}
	if res2.Relation.Size() != 0 {
		t.Errorf("relation size = %d on empty graph, want 0", res2.Relation.Size())
	}
}

// TestQueuedQueryDoesNotBlockWriters pins the dispatch order of QueryCtx:
// a query parked waiting for an execution slot holds no graph lock, so an
// update to its graph completes while it is parked (and the query then
// answers the updated graph); one that gives up while parked leaves
// neither a slot nor a lock behind.
func TestQueuedQueryDoesNotBlockWriters(t *testing.T) {
	e := New(Options{Parallelism: 1})
	g, p := dataset.PaperGraph()
	if err := e.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	q := dataset.PaperQuery()
	release, err := e.Admit(context.Background()) // occupy the only slot: every query from here on parks
	if err != nil {
		t.Fatal(err)
	}

	parked := func(ctx context.Context) <-chan QueryOutcome {
		ch := e.QueryAsync(ctx, QueryRequest{Graph: "paper", Pattern: q})
		for deadline := time.Now().Add(10 * time.Second); e.Pool().Queued == 0; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatal("query never reached the slot queue")
			}
		}
		return ch
	}
	write := func(up incremental.Update) {
		t.Helper()
		done := make(chan error, 1)
		go func() {
			_, err := e.ApplyUpdates("paper", []incremental.Update{up})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("update blocked behind a query that is only queued for a slot")
		}
	}

	e1 := dataset.E1(p)
	ch := parked(context.Background())
	write(incremental.Insert(e1.From, e1.To))
	release() // free the slot; the parked query runs against the updated graph
	oc := <-ch
	if oc.Err != nil {
		t.Fatal(oc.Err)
	}
	if sd, _ := q.Lookup("SD"); !oc.Result.Relation.Has(sd, p.Fred) {
		t.Error("parked query answered the pre-update graph")
	}

	if release, err = e.Admit(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ch = parked(ctx)
	cancel()
	if oc := <-ch; !errors.Is(oc.Err, context.Canceled) {
		t.Fatalf("cancelled while parked: err = %v, want context.Canceled", oc.Err)
	}
	if st := e.Pool(); st.Queued != 0 || e.evaluating.Load() != 0 || st.Held != 1 {
		t.Errorf("after cancel: queued=%d evaluating=%d slots held=%d, want 0, 0 and the test's own 1",
			st.Queued, e.evaluating.Load(), st.Held)
	}
	write(incremental.Delete(e1.From, e1.To)) // no read lock left behind
	release()
}

// TestFullQueueOverloads fills the execution pool — its one slot and its
// queue of 4×Parallelism — so that one more caller, through Execute, as a
// QueryBatch entry or through Admit, is refused at once with
// *ErrOverloaded carrying the depth and the bound; once the holder leaves,
// the queued queries answer and the pool is empty again.
func TestFullQueueOverloads(t *testing.T) {
	e := New(Options{Parallelism: 1})
	g, _ := dataset.PaperGraph()
	if err := e.AddGraph("paper", g); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := QueryRequest{Graph: "paper", Pattern: dataset.PaperQuery(), K: 1}
	release, err := e.Admit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var parked []<-chan QueryOutcome
	for i := 0; i < 4; i++ {
		parked = append(parked, e.QueryAsync(ctx, req))
	}
	for deadline := time.Now().Add(10 * time.Second); e.Pool().Queued < 4; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("queue reached %d of 4", e.Pool().Queued)
		}
	}
	overloaded := func(how string, err error) {
		t.Helper()
		var ov *ErrOverloaded
		if !errors.As(err, &ov) || ov.Queued != 4 || ov.Bound != 4 {
			t.Errorf("%s on a full pool: err = %v, want ErrOverloaded{4, 4}", how, err)
		}
	}
	_, err = e.Execute(ctx, req)
	overloaded("Execute", err)
	overloaded("QueryBatch entry", e.QueryBatch(ctx, []QueryRequest{req})[0].Err)
	_, err = e.Admit(ctx)
	overloaded("Admit", err)

	release()
	for i, ch := range parked {
		if oc := <-ch; oc.Err != nil {
			t.Errorf("queued query %d: %v", i, oc.Err)
		}
	}
	if st := e.Pool(); st.Held != 0 || st.Queued != 0 || e.evaluating.Load() != 0 {
		t.Errorf("after the queue drained: held=%d queued=%d evaluating=%d, want 0, 0, 0", st.Held, st.Queued, e.evaluating.Load())
	}
}

// TestCancelledQueryReleasesSlotAndLock cancels a query in the middle of an
// evaluation that takes tens of milliseconds, under either semantics and on
// a partitioned graph: it must return ctx.Err() within a pass, hand back its
// execution slot and the graph's read lock (a writer that was waiting behind
// it proceeds), and leave nothing in the result cache.
func TestCancelledQueryReleasesSlotAndLock(t *testing.T) {
	g, err := generator.Generate(generator.KindCollab, generator.Config{Nodes: 20000, AvgDegree: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const dsl = `node SA [label = "SA", experience >= 8] output
node SD [label = "SD", specialty = "Programmer", experience >= 4]
node BA [label = "BA", specialty = "Business Analyst", experience >= 3]
edge SA -> SD bound %s
edge SA -> BA bound 4
edge SD -> BA bound %s
`
	q, err := pattern.Parse(fmt.Sprintf(dsl, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	shallow, err := pattern.Parse(fmt.Sprintf(dsl, "2", "3"))
	if err != nil {
		t.Fatal(err)
	}
	t.Run("bounded", func(t *testing.T) { cancelMidEvaluation(t, g, q, match.Bounded, 0, 12) })
	t.Run("dual", func(t *testing.T) { cancelMidEvaluation(t, g, q, match.Dual, 0, 12) })
	// A miss polls once before its slot and twice after its relation, so a
	// 4th poll exists only if the evaluator itself polls: the partitioning
	// is not read, and the kernel polls between its passes.
	t.Run("partitioned", func(t *testing.T) { cancelMidEvaluation(t, g, shallow, match.Bounded, 2, 4) })
}

// cancelMidEvaluation parks the query inside its parkAt-th ctx.Err poll;
// parts > 0 partitions the graph first.
func cancelMidEvaluation(t *testing.T, g *graph.Graph, q *pattern.Pattern, sem match.Semantics, parts int, parkAt int64) {
	e := New(Options{Parallelism: 1})
	if err := e.AddGraph("g", g); err != nil {
		t.Fatal(err)
	}
	if parts > 0 {
		if _, err := e.PartitionGraph("g", partition.Options{Parts: parts}); err != nil {
			t.Fatal(err)
		}
	}

	// The evaluators poll ctx.Err between passes; the parkAt-th poll parks
	// the query mid-evaluation until the test lets it see the cancellation.
	midway, release := make(chan struct{}), make(chan struct{})
	ctx := &testutil.PollCtx{Context: context.Background(), N: parkAt, At: func() { close(midway); <-release }}
	ch := e.QueryAsync(ctx, QueryRequest{Graph: "g", Pattern: q, K: 10, Semantics: sem})
	select {
	case <-midway:
	case oc := <-ch:
		t.Fatalf("query finished before its pass boundary %d: %+v", parkAt, oc)
	}
	// Mid-evaluation: the query holds the slot and the read lock, so this
	// writer waits.
	up := incremental.Insert(0, 1)
	if g.HasEdge(0, 1) {
		up = incremental.Delete(0, 1)
	}
	wrote := make(chan error, 1)
	go func() {
		_, err := e.ApplyUpdates("g", []incremental.Update{up})
		wrote <- err
	}()
	select {
	case err := <-wrote:
		t.Fatalf("writer got through a query holding the read lock (err %v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	if oc := <-ch; !errors.Is(oc.Err, context.Canceled) || oc.Result != nil {
		t.Fatalf("cancelled mid-evaluation: result %v, err %v; want nil, context.Canceled", oc.Result, oc.Err)
	}
	if after := ctx.Polls() - ctx.N; after > 1 {
		t.Errorf("%d pass boundaries polled after the cancellation, want at most 1", after)
	}
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("writer still blocked: the cancelled query left its read lock behind")
	}
	if e.evaluating.Load() != 0 || e.Pool().Held != 0 {
		t.Errorf("after cancel: evaluating=%d slots held=%d, want 0 and 0", e.evaluating.Load(), e.Pool().Held)
	}
	if n := e.CacheStats().Entries; n != 0 {
		t.Errorf("cancelled query left %d result-cache entries", n)
	}
}

// TestCancelledAtStageBoundaryCachesNothing cancels a query after its
// relation is computed: the last two polls of an undisturbed miss are the
// stage boundaries — after the relation, and after the result graph,
// before the ranking. Either way the query returns ctx.Err() and the cache
// stays empty, so the same query afterwards is a miss with the right
// answer.
func TestCancelledAtStageBoundaryCachesNothing(t *testing.T) {
	g, _ := dataset.PaperGraph()
	q, err := pattern.Parse("node SA [label=SA] output\nnode GD [label=GD]\nedge SA -> GD bound 1\n")
	if err != nil {
		t.Fatal(err)
	}
	undisturbed := &testutil.PollCtx{Context: context.Background(), N: 1 << 60}
	dry := New(Options{Parallelism: 1})
	if err := dry.AddGraph("g", g.Clone()); err != nil {
		t.Fatal(err)
	}
	if _, err := dry.QueryCtx(undisturbed, "g", q, 1); err != nil {
		t.Fatal(err)
	}
	last := undisturbed.Polls()
	for _, tc := range []struct {
		name string
		poll int64
	}{{"after relation", last - 1}, {"after result graph", last}} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(Options{Parallelism: 1})
			if err := e.AddGraph("g", g.Clone()); err != nil {
				t.Fatal(err)
			}
			ctx := &testutil.PollCtx{Context: context.Background(), N: tc.poll}
			res, err := e.QueryCtx(ctx, "g", q, 1)
			if !errors.Is(err, context.Canceled) || res != nil {
				t.Fatalf("result %v, err %v; want nil, context.Canceled", res, err)
			}
			if got := ctx.Polls(); got != tc.poll {
				t.Fatalf("query polled ctx %d times, want to stop at poll %d", got, tc.poll)
			}
			if st := e.CacheStats(); st.Entries != 0 || st.Bytes != 0 {
				t.Errorf("cancelled query left %d cache entries (%d bytes)", st.Entries, st.Bytes)
			}
			if e.evaluating.Load() != 0 || e.Pool().Held != 0 {
				t.Errorf("after cancel: evaluating=%d slots held=%d, want 0 and 0", e.evaluating.Load(), e.Pool().Held)
			}
			res, err = e.Query("g", q, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Source != SourceDirect || res.Relation.IsEmpty() || len(res.TopK) != 1 {
				t.Errorf("query after the cancelled one: source %v, relation %v, top %v; want a direct, nonempty answer", res.Source, res.Relation, res.TopK)
			}
		})
	}
}
