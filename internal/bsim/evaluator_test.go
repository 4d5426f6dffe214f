package bsim

import (
	"context"
	"sync"
	"testing"

	"expfinder/internal/match"
	"expfinder/internal/testutil"
	"expfinder/internal/trace"
)

// TestCancelledBetweenPasses cancels an evaluation at every pass boundary
// in turn: it must return nil having polled at most once more per worker,
// and the first uncancelled run must return the full relation.
func TestCancelledBetweenPasses(t *testing.T) {
	g, shapes := collab()
	ix := collabIndex()
	for _, sh := range shapes[:2] {
		for _, sem := range []match.Semantics{match.Bounded, match.Dual} {
			want := Evaluate(context.Background(), g, sh.q, sem, 1, nil)
			for _, workers := range []int{1, 4} {
				run := func(ctx context.Context) *match.Relation {
					if workers == 4 {
						return Evaluate(ctx, g, sh.q, sem, workers, ix)
					}
					return Evaluate(ctx, g, sh.q, sem, workers, nil)
				}
				all := &testutil.PollCtx{Context: context.Background(), N: 1 << 60}
				if got := run(all); !got.Equal(want) {
					t.Fatalf("%s sem=%d workers=%d: uncancelled run diverged", sh.name, sem, workers)
				}
				boundaries := all.Polls()
				if boundaries < 10 {
					t.Fatalf("%s sem=%d workers=%d: only %d pass boundaries polled", sh.name, sem, workers, boundaries)
				}
				for n := int64(1); n <= boundaries; n += 1 + boundaries/16 {
					ctx := &testutil.PollCtx{Context: context.Background(), N: n}
					if got := run(ctx); got != nil {
						t.Errorf("%s sem=%d workers=%d: cancelled at boundary %d of %d, still returned a relation", sh.name, sem, workers, n, boundaries)
					}
					if extra := ctx.Polls() - n; extra >= int64(workers) {
						t.Errorf("%s sem=%d workers=%d: %d polls after cancellation at boundary %d", sh.name, sem, workers, extra, n)
					}
				}
			}
		}
	}
}

// TestSpanAttributes: a traced evaluation reports what it cost — passes
// and walk directions — on the spans it always had, and the relation does
// not depend on being traced.
func TestSpanAttributes(t *testing.T) {
	g, shapes := collab()
	tracer := trace.New(trace.Options{Sample: 1})
	ctx, tr := tracer.Start(context.Background(), "t", "test", true)
	rel := Evaluate(ctx, g, shapes[0].q, match.Bounded, 1, nil)
	tj := tracer.Finish(tr)
	if !rel.Equal(Compute(g, shapes[0].q)) {
		t.Fatal("traced relation differs from the untraced one")
	}
	want := map[string][]string{
		"bsim.init_cands":  {"candidates"},
		"bsim.init_counts": {"zero_support", "oracle", "passes", "forward_edges", "backward_edges"},
		"bsim.propagate":   {"removals", "passes"},
	}
	for name, keys := range want {
		sp := tj.Find(name)
		if sp == nil {
			t.Fatalf("no %s span", name)
		}
		for _, k := range keys {
			if _, ok := sp.Attrs[k]; !ok {
				t.Errorf("%s: no %q attribute (have %v)", name, k, sp.Attrs)
			}
		}
	}
	// The broad shape: SA (321 candidates) walks forward to SD and BA, SD
	// (1381) is reached backward from ST (756), ST walks forward to SD.
	counts := tj.Find("bsim.init_counts").Attrs
	if counts["forward_edges"] != int64(3) || counts["backward_edges"] != int64(1) || counts["passes"] != int64(36) {
		t.Errorf("bsim.init_counts = %v, want 3 forward edges, 1 backward, 36 passes", counts)
	}
}

// TestComputeAllocs holds an evaluation to the allocations of the relation
// it returns — a presized set per pattern node: candidate sets, counters,
// candidate lists and worklists come from the pooled state, whatever the
// graph and candidate-set sizes — and, under dual simulation, so do the
// parent counters.
func TestComputeAllocs(t *testing.T) {
	if testutil.RaceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	g, shapes := collab()
	for _, sh := range shapes {
		for _, sem := range []match.Semantics{match.Bounded, match.Dual} {
			eval := func() { benchSink = Evaluate(context.Background(), g, sh.q, sem, 1, nil) }
			eval() // warm the pool
			lo := testing.AllocsPerRun(1, eval)
			for i := 0; i < 9; i++ { // a GC between tries may empty the pool
				lo = min(lo, testing.AllocsPerRun(1, eval))
			}
			if ceiling := float64(6 + 5*sh.q.NumNodes()); lo > ceiling {
				t.Errorf("%s sem=%d: %v allocs per evaluation, ceiling %v", sh.name, sem, lo, ceiling)
			}
		}
	}
}

// TestConcurrentEvaluationsSharePool runs evaluations of different shapes
// and semantics, first one after another — so each inherits the state the
// one before it dirtied: a dual evaluation the counters of a larger bounded
// one, a bounded evaluation the parent counters of a dual one — then from
// many goroutines at once; they draw their state from one pool, and every
// one must get the relation a lone caller on a fresh state gets.
func TestConcurrentEvaluationsSharePool(t *testing.T) {
	g, shapes := collab()
	ix := collabIndex()
	want := make([][2]*match.Relation, len(shapes))
	for i, sh := range shapes {
		want[i] = [2]*match.Relation{refCompute(g, sh.q), refDual(g, sh.q)}
	}
	broad, star := 0, 2
	for i, step := range []struct {
		shape int
		sem   match.Semantics
	}{{broad, match.Bounded}, {star, match.Dual}, {star, match.Bounded}, {broad, match.Dual}, {star, match.Dual}, {broad, match.Bounded}} {
		if got := Evaluate(context.Background(), g, shapes[step.shape].q, step.sem, 1, nil); !got.Equal(want[step.shape][step.sem]) {
			t.Errorf("step %d (%s, sem=%d) on an inherited state differs from the reference", i, shapes[step.shape].name, step.sem)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				k, sem := (w+i)%len(shapes), match.Bounded
				var got *match.Relation
				switch (w + i) % 4 {
				case 0:
					got = Compute(g, shapes[k].q)
				case 1:
					got = ComputeParallel(g, shapes[k].q, 3)
				case 2:
					got = ComputeIndexed(g, shapes[k].q, ix)
				default:
					sem = match.Dual
					got = Evaluate(context.Background(), g, shapes[k].q, sem, 1+i%3, nil)
				}
				if !got.Equal(want[k][sem]) {
					t.Errorf("worker %d: concurrent evaluation of %q (sem=%d) differs from the reference", w, shapes[k].name, sem)
				}
			}
		}()
	}
	wg.Wait()
}
