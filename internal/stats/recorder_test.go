package stats

import (
	"fmt"
	"testing"

	"expfinder/internal/trace"
)

// querySpan builds an engine.query span the way the engine emits one:
// key attrs on the span, stages as named children.
func querySpan(graphName, plan, shape string, durUS, matches int64, children ...*trace.SpanJSON) *trace.SpanJSON {
	return &trace.SpanJSON{
		Name:       "engine.query",
		DurationUS: durUS,
		Attrs: map[string]any{
			"graph":   graphName,
			"plan":    plan,
			"shape":   shape,
			"matches": matches,
		},
		Children: children,
	}
}

func traceOf(spans ...*trace.SpanJSON) *trace.TraceJSON {
	return &trace.TraceJSON{
		Name: "http.request",
		Root: &trace.SpanJSON{Name: "http.request", Children: spans},
	}
}

func TestRecorderAggregates(t *testing.T) {
	r := NewRecorder(0)
	// Two queries in the same bucket (one batch trace carrying both),
	// with a cache miss then a hit.
	r.Observe(traceOf(
		querySpan("g1", "bounded-simulation", "n2e1b3", 100, 5,
			&trace.SpanJSON{Name: "cache.lookup", Attrs: map[string]any{"hit": false}},
			&trace.SpanJSON{Name: "eval.bounded"},
		),
		querySpan("g1", "bounded-simulation", "n2e1b3", 300, 5,
			&trace.SpanJSON{Name: "cache.lookup", Attrs: map[string]any{"hit": true}},
		),
	))
	// A simulation-plan query in a second bucket, with float64 attrs as a
	// JSON round-trip would produce.
	sim := querySpan("g1", "simulation", "n3e2b1", 900, 12,
		&trace.SpanJSON{Name: "eval.simulation"},
	)
	sim.Attrs["matches"] = float64(12)
	r.Observe(traceOf(sim))

	sums := r.Summaries()
	if len(sums) != 2 {
		t.Fatalf("got %d summaries, want 2", len(sums))
	}
	// Busiest first: the bounded bucket saw two queries.
	bnd := sums[0]
	if bnd.Plan != "bounded-simulation" || bnd.Shape != "n2e1b3" || bnd.Count != 2 {
		t.Fatalf("busiest bucket = %+v", bnd)
	}
	if bnd.Matches != 10 || bnd.CacheHits != 1 || bnd.CacheMisses != 1 {
		t.Fatalf("bounded counters = %+v", bnd)
	}
	if bnd.MeanUS != 200 || bnd.P50US != 100 || bnd.P95US != 300 || bnd.Samples != 2 {
		t.Fatalf("durations = %+v", bnd)
	}
	if s := sums[1]; s.Plan != "simulation" || s.Count != 1 || s.Matches != 12 {
		t.Fatalf("simulation bucket = %+v", s)
	}

	totals := r.PlanTotals()
	if len(totals) != 2 {
		t.Fatalf("got %d plan totals, want 2", len(totals))
	}
	if totals[0].Plan != "bounded-simulation" || totals[0].Count != 2 || totals[0].P95US != 300 {
		t.Fatalf("plan total = %+v", totals[0])
	}
}

func TestRecorderKeyBound(t *testing.T) {
	r := NewRecorder(2)
	for i := 0; i < 5; i++ {
		r.Observe(traceOf(querySpan("g", fmt.Sprintf("plan-%d", i), "n1e0b*", 10, 1)))
	}
	if got := len(r.Summaries()); got != 2 {
		t.Fatalf("bucket count = %d, want 2", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// Established buckets still aggregate after the cap is hit.
	r.Observe(traceOf(querySpan("g", "plan-0", "n1e0b*", 10, 1)))
	if got := r.Summaries()[0].Count; got != 2 {
		t.Fatalf("capped bucket count = %d, want 2", got)
	}
}

func TestRecorderIgnoresNonQuerySpans(t *testing.T) {
	r := NewRecorder(0)
	r.Observe(nil)
	r.Observe(traceOf(&trace.SpanJSON{Name: "engine.update", Attrs: map[string]any{"graph": "g"}}))
	if len(r.Summaries()) != 0 || r.Dropped() != 0 {
		t.Fatal("non-query spans recorded")
	}
	var nilRec *Recorder
	nilRec.Observe(traceOf(querySpan("g", "p", "s", 1, 1)))
	if nilRec.Summaries() != nil || nilRec.Dropped() != 0 || nilRec.PlanTotals() != nil {
		t.Fatal("nil recorder not inert")
	}
}
