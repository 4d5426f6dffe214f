package metrics

import (
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestCounterRender(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("requests_total", "Total requests.", "route", "code")
	c.Inc("query", "200")
	c.Add(2, "query", "200")
	c.Inc("query", "404")

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP requests_total Total requests.",
		"# TYPE requests_total counter",
		`requests_total{route="query",code="200"} 3`,
		`requests_total{route="query",code="404"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if c.Value("query", "200") != 3 {
		t.Errorf("Value = %d, want 3", c.Value("query", "200"))
	}
	if c.Value("other", "200") != 0 {
		t.Errorf("unseen series Value = %d, want 0", c.Value("other", "200"))
	}
}

func TestUnlabeledCounterRendersZero(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("sheds_total", "Requests shed.")
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "sheds_total 0\n") {
		t.Errorf("unlabeled untouched counter should render as 0:\n%s", sb.String())
	}
}

func TestHistogramRender(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.01, 0.1, 1}, "route")
	h.Observe(0.005, "query")
	h.Observe(0.05, "query")
	h.Observe(5, "query") // above last bucket

	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# TYPE latency_seconds histogram",
		`latency_seconds_bucket{route="query",le="0.01"} 1`,
		`latency_seconds_bucket{route="query",le="0.1"} 2`,
		`latency_seconds_bucket{route="query",le="1"} 2`,
		`latency_seconds_bucket{route="query",le="+Inf"} 3`,
		`latency_seconds_count{route="query"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if h.Count("query") != 3 {
		t.Errorf("Count = %d, want 3", h.Count("query"))
	}
}

func TestGaugeFunc(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.NewGaugeFunc("queue_depth", "Queued requests.", func() float64 { return v })
	var sb strings.Builder
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "queue_depth 7\n") {
		t.Errorf("gauge not rendered:\n%s", sb.String())
	}
	v = 9
	sb.Reset()
	r.WriteText(&sb)
	if !strings.Contains(sb.String(), "queue_depth 9\n") {
		t.Errorf("gauge should re-sample at scrape:\n%s", sb.String())
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("zzz_total", "Last.")
	r.NewCounter("aaa_total", "First.")
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
}

func TestDuplicateFamilyPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "One.")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration should panic")
		}
	}()
	r.NewCounter("dup_total", "Two.")
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("hits_total", "Hits.", "route")
	h := r.NewHistogram("lat_seconds", "Lat.", nil, "route")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc("r")
				h.Observe(0.001, "r")
			}
		}()
	}
	wg.Wait()
	if c.Value("r") != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value("r"))
	}
	if h.Count("r") != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count("r"))
	}
}

func TestLabelValueEscaping(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("odd_total", "Odd labels.", "path")
	c.Inc("a\\b\"c\nd\tе") // backslash, quote, newline escaped; tab and non-ASCII verbatim
	var sb strings.Builder
	r.WriteText(&sb)
	want := "odd_total{path=\"a\\\\b\\\"c\\nd\tе\"} 1\n"
	if !strings.Contains(sb.String(), want) {
		t.Errorf("escaped render missing %q:\n%s", want, sb.String())
	}
}

func TestZeroObservationHistogramEmitsCountAndSum(t *testing.T) {
	r := NewRegistry()
	r.NewHistogram("cold_seconds", "Never observed.", []float64{0.1, 1})
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		`cold_seconds_bucket{le="0.1"} 0`,
		`cold_seconds_bucket{le="1"} 0`,
		`cold_seconds_bucket{le="+Inf"} 0`,
		"cold_seconds_sum 0",
		"cold_seconds_count 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("zero-observation histogram missing %q:\n%s", want, out)
		}
	}
}

func TestZeroObservationLabeledHistogramStaysEmpty(t *testing.T) {
	// A labeled family has no series to synthesize values for; it must
	// render only its header (and not invent label sets).
	r := NewRegistry()
	r.NewHistogram("warm_seconds", "Labeled.", []float64{1}, "route")
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	if strings.Contains(out, "warm_seconds_count") || strings.Contains(out, "warm_seconds_bucket") {
		t.Errorf("labeled empty histogram should emit no series:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE warm_seconds histogram") {
		t.Errorf("header missing:\n%s", out)
	}
}

func TestCounterFunc(t *testing.T) {
	r := NewRegistry()
	n := 41.0
	r.NewCounterFunc("sampled_total", "Sampled.", func() float64 { n++; return n })
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	if !strings.Contains(out, "# TYPE sampled_total counter") || !strings.Contains(out, "sampled_total 42") {
		t.Errorf("counter func render:\n%s", out)
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"expfinder_goroutines ",
		"expfinder_heap_alloc_bytes ",
		"expfinder_gc_pause_seconds_total ",
		"expfinder_gc_cycles_total ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("runtime metrics missing %q:\n%s", want, out)
		}
	}
}

// TestRuntimeGaugesSamplePerScrape: two scrapes taken back to back read
// two snapshots, so a GC cycle between them shows in the second.
func TestRuntimeGaugesSamplePerScrape(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	cycles := func() float64 {
		t.Helper()
		var sb strings.Builder
		r.WriteText(&sb)
		for _, line := range strings.Split(sb.String(), "\n") {
			if v, ok := strings.CutPrefix(line, "expfinder_gc_cycles_total "); ok {
				n, err := strconv.ParseFloat(v, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		t.Fatalf("no expfinder_gc_cycles_total in\n%s", sb.String())
		return 0
	}
	before := cycles()
	runtime.GC()
	if after := cycles(); after <= before {
		t.Errorf("expfinder_gc_cycles_total %v after runtime.GC(), %v before", after, before)
	}
}
