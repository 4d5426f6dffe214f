package trace

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeAndSnapshot(t *testing.T) {
	tr := New(Options{Sample: 1})
	ctx, root := tr.Start(context.Background(), "req-1", "query", false)
	if root == nil {
		t.Fatal("sample=1 must trace every request")
	}
	ctx2, sp := StartSpan(ctx, "engine.query")
	sp.SetStr("plan", "bounded")
	_, child := StartSpan(ctx2, "cache.lookup")
	child.SetBool("hit", false)
	child.End()
	sp.SetInt("k", 5)
	sp.End()
	if ActiveTrace(ctx2) != root {
		t.Fatal("derived contexts must resolve to the same trace")
	}
	tj := tr.Finish(root)

	if tj.ID != "req-1" || tj.Name != "query" {
		t.Fatalf("snapshot identity = (%q, %q)", tj.ID, tj.Name)
	}
	eng := tj.Find("engine.query")
	if eng == nil {
		t.Fatal("engine.query span missing")
	}
	if eng.Attrs["plan"] != "bounded" || eng.Attrs["k"] != int64(5) {
		t.Fatalf("attrs = %v", eng.Attrs)
	}
	if len(eng.Children) != 1 || eng.Children[0].Name != "cache.lookup" {
		t.Fatalf("children = %+v", eng.Children)
	}
	if eng.Children[0].Attrs["hit"] != false {
		t.Fatalf("cache.lookup attrs = %v", eng.Children[0].Attrs)
	}
	if eng.StartUS < 0 || eng.DurationUS < 0 || tj.DurationUS < eng.DurationUS {
		t.Fatalf("timing inconsistent: trace %dus, span start %dus dur %dus",
			tj.DurationUS, eng.StartUS, eng.DurationUS)
	}
}

// TestSpanAttrReaders: Int, Str and Bool read a span's attributes the same
// in process and after a JSON round trip, and read zero values when an
// attribute is absent or of another type.
func TestSpanAttrReaders(t *testing.T) {
	tr := New(Options{Sample: 1})
	ctx, root := tr.Start(context.Background(), "req-1", "query", false)
	_, sp := StartSpan(ctx, "engine.query")
	sp.SetInt("matches", 42)
	sp.SetStr("plan", "bounded-simulation")
	sp.SetBool("hit", true)
	sp.End()
	live := tr.Finish(root)
	data, err := json.Marshal(live)
	if err != nil {
		t.Fatal(err)
	}
	var decoded TraceJSON
	if err := json.Unmarshal(data, &decoded); err != nil {
		t.Fatal(err)
	}
	for name, tj := range map[string]*TraceJSON{"in process": live, "decoded": &decoded} {
		q := tj.Find("engine.query")
		if q.Int("matches") != 42 || q.Str("plan") != "bounded-simulation" || !q.Bool("hit") {
			t.Errorf("%s: Int/Str/Bool = %d/%q/%v", name, q.Int("matches"), q.Str("plan"), q.Bool("hit"))
		}
		if q.Int("plan") != 0 || q.Str("matches") != "" || q.Bool("missing") || q.Int("missing") != 0 {
			t.Errorf("%s: mistyped or missing attributes read non-zero", name)
		}
	}
}

func TestUntracedContextIsFreeAndNilSafe(t *testing.T) {
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, sp := StartSpan(ctx, "engine.query")
		sp.SetInt("n", 1)
		sp.SetStr("s", "x")
		sp.SetBool("b", true)
		sp.End()
		_, sp2 := StartSpan(c, "child")
		sp2.End()
	})
	if allocs != 0 {
		t.Fatalf("untraced StartSpan allocated %.1f times per run, want 0", allocs)
	}
	if SpanFrom(ctx) != nil || ActiveTrace(ctx) != nil {
		t.Fatal("plain context must carry no span")
	}
}

func TestSampledOutRequestAllocatesNoSpans(t *testing.T) {
	tr := New(Options{Sample: 0})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		c, trc := tr.Start(ctx, "id", "query", false)
		if trc != nil {
			t.Fatal("sample=0 must never trace")
		}
		_, sp := StartSpan(c, "engine.query")
		sp.End()
	})
	if allocs != 0 {
		t.Fatalf("sampled-out request allocated %.1f times per run, want 0", allocs)
	}
}

func TestNilTracerIsNoOp(t *testing.T) {
	var tr *Tracer
	ctx, trc := tr.Start(context.Background(), "id", "q", true)
	if trc != nil {
		t.Fatal("nil tracer must not trace")
	}
	if tr.Finish(trc) != nil {
		t.Fatal("nil finish must return nil")
	}
	if tr.Recent() != nil || tr.Slow() != nil {
		t.Fatal("nil tracer rings must be empty")
	}
	tr.NoteSlow("id", "r", "client-a", 200, time.Hour, nil)
	_ = ctx
}

func TestForcedBypassesSampling(t *testing.T) {
	tr := New(Options{Sample: 0})
	_, trc := tr.Start(context.Background(), "id", "q", true)
	if trc == nil {
		t.Fatal("forced request must be traced at sample=0")
	}
	if !trc.Forced() {
		t.Fatal("Forced() must report true")
	}
}

func TestSamplingRateIsApproximatelyHonored(t *testing.T) {
	tr := New(Options{Sample: 0.25})
	hits := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if _, trc := tr.Start(context.Background(), "id", "q", false); trc != nil {
			hits++
		}
	}
	if hits < n/8 || hits > n/2 {
		t.Fatalf("sample=0.25 traced %d of %d", hits, n)
	}
	// Determinism: a fresh tracer with the same rate makes the same calls.
	tr2 := New(Options{Sample: 0.25})
	hits2 := 0
	for i := 0; i < n; i++ {
		if _, trc := tr2.Start(context.Background(), "id", "q", false); trc != nil {
			hits2++
		}
	}
	if hits != hits2 {
		t.Fatalf("sampling not deterministic: %d vs %d", hits, hits2)
	}
}

func TestRecentRingBounds(t *testing.T) {
	tr := New(Options{Sample: 1, RingSize: 4})
	for i := 0; i < 10; i++ {
		_, trc := tr.Start(context.Background(), string(rune('a'+i)), "q", false)
		tr.Finish(trc)
	}
	got := tr.Recent()
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want 4", len(got))
	}
	// Newest first: ids j, i, h, g.
	want := []string{"j", "i", "h", "g"}
	for i, tj := range got {
		if tj.ID != want[i] {
			t.Fatalf("ring[%d] = %q, want %q", i, tj.ID, want[i])
		}
	}
}

func TestSlowLogThreshold(t *testing.T) {
	tr := New(Options{SlowThreshold: 10 * time.Millisecond})
	if tr.NoteSlow("fast", "query", "c1", 200, 5*time.Millisecond, nil) {
		t.Fatal("below-threshold request must not be recorded")
	}
	if !tr.NoteSlow("slow", "query", "c1", 200, 20*time.Millisecond, nil) {
		t.Fatal("over-threshold request must be recorded")
	}
	entries := tr.Slow()
	if len(entries) != 1 || entries[0].ID != "slow" || entries[0].DurationUS != 20000 {
		t.Fatalf("slow log = %+v", entries)
	}
	// Threshold 0 disables the log entirely.
	off := New(Options{})
	if off.NoteSlow("x", "query", "", 200, time.Hour, nil) {
		t.Fatal("zero threshold must disable the slow log")
	}
}

func TestConcurrentSpanCreation(t *testing.T) {
	tr := New(Options{Sample: 1})
	ctx, trc := tr.Start(context.Background(), "id", "batch", false)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, sp := StartSpan(ctx, "engine.query")
				sp.SetInt("worker", int64(w))
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	tj := tr.Finish(trc)
	n := 0
	tj.Walk(func(sp *SpanJSON) {
		if sp.Name == "engine.query" {
			n++
		}
	})
	if n != 400 {
		t.Fatalf("concurrent spans recorded = %d, want 400", n)
	}
}

func TestOpenSpanMeasuredToSnapshot(t *testing.T) {
	tr := New(Options{Sample: 1})
	ctx, trc := tr.Start(context.Background(), "id", "q", false)
	_, sp := StartSpan(ctx, "open")
	time.Sleep(2 * time.Millisecond)
	tj := trc.Snapshot() // sp never ended
	open := tj.Find("open")
	if open == nil || open.DurationUS <= 0 {
		t.Fatalf("open span duration = %+v", open)
	}
	sp.End()
	tr.Finish(trc)
}
