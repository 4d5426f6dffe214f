package stats

import (
	"fmt"
	"testing"
)

// outcome builds one query outcome the way the serving tier's trace
// fold reads it off an engine.query span.
func outcome(graphName, plan, shape string, durUS, matches int64, hit bool) Outcome {
	return Outcome{
		OutcomeKey: OutcomeKey{Graph: graphName, Plan: plan, Shape: shape},
		DurationUS: durUS,
		Matches:    matches,
		Hit:        hit,
	}
}

func TestRecorderAggregates(t *testing.T) {
	r := NewRecorder(0)
	// Two queries in the same bucket, a cache miss then a hit.
	r.Record(outcome("g1", "bounded-simulation", "n2e1b3", 100, 5, false))
	r.Record(outcome("g1", "bounded-simulation", "n2e1b3", 300, 5, true))
	// A simulation-plan query in a second bucket.
	r.Record(outcome("g1", "simulation", "n3e2b1", 900, 12, false))

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
		r.Record(outcome("g", fmt.Sprintf("plan-%d", i), "n1e0b*", 10, 1, false))
	}
	if got := len(r.Summaries()); got != 2 {
		t.Fatalf("bucket count = %d, want 2", got)
	}
	if got := r.Dropped(); got != 3 {
		t.Fatalf("dropped = %d, want 3", got)
	}
	// Established buckets still aggregate after the cap is hit.
	r.Record(outcome("g", "plan-0", "n1e0b*", 10, 1, false))
	if got := r.Summaries()[0].Count; got != 2 {
		t.Fatalf("capped bucket count = %d, want 2", got)
	}
}
