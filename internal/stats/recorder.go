package stats

// Plan-outcome telemetry: a bounded recorder of finished queries. The
// serving tier's trace fold hands it one Outcome per engine.query span,
// keyed by (graph, plan, pattern shape); outcomes aggregate into
// rolling summaries — counts, cache hit/miss, and a bounded duration
// sample ring rendered as p50/p95.

import (
	"sort"
	"sync"
)

// OutcomeKey identifies one aggregation bucket.
type OutcomeKey struct {
	Graph string `json:"graph"`
	Plan  string `json:"plan"`
	// Shape is the pattern's shape signature (the engine.query span's
	// "shape" attribute): node count, edge count, max bound.
	Shape string `json:"shape"`
}

// sampleRing bounds per-key duration retention: percentiles reflect
// the most recent window, not all history.
const sampleRing = 512

// defaultMaxKeys bounds distinct (graph, plan, shape) buckets; beyond
// it new keys are counted as dropped rather than grown — the recorder
// must stay O(1) per query regardless of workload cardinality.
const defaultMaxKeys = 256

// outcomeAgg is one key's rolling aggregate.
type outcomeAgg struct {
	count       int64
	matches     int64 // summed relation sizes (candidate counts)
	cacheHits   int64
	cacheMisses int64
	durUS       [sampleRing]int64
	durN        int // samples stored (min(count, sampleRing))
	durNext     int // ring cursor
	totalDurUS  int64
}

// Outcome is one finished query: its bucket, how long it ran, how many
// pairs it matched, and whether the result cache answered it.
type Outcome struct {
	OutcomeKey
	DurationUS int64
	Matches    int64
	Hit        bool
}

// Recorder aggregates plan outcomes. Safe for concurrent use.
type Recorder struct {
	mu      sync.Mutex
	maxKeys int
	byKey   map[OutcomeKey]*outcomeAgg
	dropped uint64
}

// NewRecorder returns a recorder bounded at maxKeys distinct
// (graph, plan, shape) buckets (<= 0 means the default 256).
func NewRecorder(maxKeys int) *Recorder {
	if maxKeys <= 0 {
		maxKeys = defaultMaxKeys
	}
	return &Recorder{maxKeys: maxKeys, byKey: map[OutcomeKey]*outcomeAgg{}}
}

// Record folds one outcome into its bucket.
func (r *Recorder) Record(o Outcome) {
	r.mu.Lock()
	defer r.mu.Unlock()
	agg, ok := r.byKey[o.OutcomeKey]
	if !ok {
		if len(r.byKey) >= r.maxKeys {
			r.dropped++
			return
		}
		agg = &outcomeAgg{}
		r.byKey[o.OutcomeKey] = agg
	}
	agg.count++
	agg.matches += o.Matches
	agg.totalDurUS += o.DurationUS
	agg.durUS[agg.durNext] = o.DurationUS
	agg.durNext = (agg.durNext + 1) % sampleRing
	if agg.durN < sampleRing {
		agg.durN++
	}
	if o.Hit {
		agg.cacheHits++
	} else {
		agg.cacheMisses++
	}
}

// Summary is one (graph, plan, shape) bucket's rolling aggregate.
type Summary struct {
	OutcomeKey
	Count       int64 `json:"count"`
	Matches     int64 `json:"matches"`
	CacheHits   int64 `json:"cache_hits"`
	CacheMisses int64 `json:"cache_misses"`
	// Duration summary over the retained sample window.
	MeanUS int64 `json:"mean_us"`
	P50US  int64 `json:"p50_us"`
	P95US  int64 `json:"p95_us"`
	// Samples is the window size the percentiles describe.
	Samples int `json:"samples"`
}

// percentile returns the q-quantile (0..1) of sorted by
// nearest-rank; sorted must be non-empty.
func percentile(sorted []int64, q float64) int64 {
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

func (a *outcomeAgg) summarize(key OutcomeKey) Summary {
	s := Summary{
		OutcomeKey:  key,
		Count:       a.count,
		Matches:     a.matches,
		CacheHits:   a.cacheHits,
		CacheMisses: a.cacheMisses,
		Samples:     a.durN,
	}
	if a.count > 0 {
		s.MeanUS = a.totalDurUS / a.count
	}
	if a.durN > 0 {
		window := append([]int64(nil), a.durUS[:a.durN]...)
		sort.Slice(window, func(i, j int) bool { return window[i] < window[j] })
		s.P50US = percentile(window, 0.50)
		s.P95US = percentile(window, 0.95)
	}
	return s
}

// Summaries renders every bucket, busiest first (then by key for
// determinism at equal counts).
func (r *Recorder) Summaries() []Summary {
	r.mu.Lock()
	out := make([]Summary, 0, len(r.byKey))
	for key, agg := range r.byKey {
		out = append(out, agg.summarize(key))
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		a, b := out[i].OutcomeKey, out[j].OutcomeKey
		if a.Graph != b.Graph {
			return a.Graph < b.Graph
		}
		if a.Plan != b.Plan {
			return a.Plan < b.Plan
		}
		return a.Shape < b.Shape
	})
	return out
}

// Dropped reports outcomes discarded because the key bound was hit.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// PlanTotal aggregates a graph+plan pair across shapes — the metrics
// registry's granularity (per-shape series would be unbounded label
// cardinality).
type PlanTotal struct {
	Graph string
	Plan  string
	Count int64
	P95US int64
}

// PlanTotals merges buckets by (graph, plan), sorted by key. The p95
// merges the retained sample windows of every shape in the pair.
func (r *Recorder) PlanTotals() []PlanTotal {
	type pair struct{ graph, plan string }
	r.mu.Lock()
	counts := map[pair]int64{}
	windows := map[pair][]int64{}
	for key, agg := range r.byKey {
		p := pair{key.Graph, key.Plan}
		counts[p] += agg.count
		windows[p] = append(windows[p], agg.durUS[:agg.durN]...)
	}
	r.mu.Unlock()
	out := make([]PlanTotal, 0, len(counts))
	for p, c := range counts {
		w := windows[p]
		sort.Slice(w, func(i, j int) bool { return w[i] < w[j] })
		t := PlanTotal{Graph: p.graph, Plan: p.plan, Count: c}
		if len(w) > 0 {
			t.P95US = percentile(w, 0.95)
		}
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Graph != out[j].Graph {
			return out[i].Graph < out[j].Graph
		}
		return out[i].Plan < out[j].Plan
	})
	return out
}
