package account

import (
	"math"
	"testing"
	"time"
)

func newTestSLO(obj map[string]Objective) (*SLO, *fakeClock) {
	s := NewSLO(obj)
	c := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	s.now = c.now
	return s, c
}

func report1m(s *SLO, class string) WindowReport {
	for _, cr := range s.Report([]time.Duration{time.Minute}) {
		if cr.Class == class {
			return cr.Windows[0]
		}
	}
	return WindowReport{}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestSLOAvailabilityAndAttainment(t *testing.T) {
	s, _ := newTestSLO(map[string]Objective{
		"query": {Latency: 100 * time.Millisecond, Availability: 0.99},
	})
	// 8 fast, 1 slow, 1 error.
	for i := 0; i < 8; i++ {
		s.Observe("query", 200, 10*time.Millisecond)
	}
	s.Observe("query", 200, 500*time.Millisecond)
	s.Observe("query", 500, 10*time.Millisecond)

	r := report1m(s, "query")
	if r.Total != 10 || r.Good != 9 || r.Fast != 8 {
		t.Fatalf("counts: %+v", r)
	}
	if !approx(r.Availability, 0.9) {
		t.Fatalf("availability: %v", r.Availability)
	}
	if !approx(r.Attainment, 8.0/9.0) {
		t.Fatalf("attainment: %v", r.Attainment)
	}
	// Burn: (1-0.9)/(1-0.99) = 10x; latency (1-8/9)/0.01 ≈ 11.1x.
	if !approx(r.AvailabilityBurn, 10) {
		t.Fatalf("avail burn: %v", r.AvailabilityBurn)
	}
	if !approx(r.LatencyBurn, (1-8.0/9.0)/0.01) {
		t.Fatalf("latency burn: %v", r.LatencyBurn)
	}
}

func TestSLOEmptyWindowSpendsNoBudget(t *testing.T) {
	s, clk := newTestSLO(nil)
	s.Observe("query", 500, time.Millisecond)
	clk.t = clk.t.Add(5 * time.Minute)
	var minute, hour WindowReport
	for _, cr := range s.Report([]time.Duration{time.Minute, time.Hour}) {
		if cr.Class == "query" {
			minute, hour = cr.Windows[0], cr.Windows[1]
		}
	}
	if minute.Total != 0 {
		t.Fatalf("expired window still counts: %+v", minute)
	}
	if minute.Availability != 1 || minute.Attainment != 1 || minute.AvailabilityBurn != 0 || minute.LatencyBurn != 0 {
		t.Fatalf("empty window should be clean: %+v", minute)
	}
	// The 1h window still sees it.
	if hour.Total != 1 || hour.Good != 0 {
		t.Fatalf("1h window: %+v", hour)
	}
}

func TestSLODefaultsAndNoLatencyTarget(t *testing.T) {
	s, _ := newTestSLO(nil)
	s.Observe("admin", 200, time.Hour) // absurdly slow, but no latency target
	r := report1m(s, "admin")
	if r.Fast != 1 || !approx(r.Attainment, 1) {
		t.Fatalf("no latency target should attain: %+v", r)
	}
	for _, cr := range s.Report([]time.Duration{time.Minute}) {
		if cr.Class == "admin" {
			if !approx(cr.AvailabilityTarget, defaultAvailability) {
				t.Fatalf("default availability: %+v", cr)
			}
			if cr.LatencyTargetMS != 0 {
				t.Fatalf("latency target should be unset: %+v", cr)
			}
		}
	}
}

func TestSLOClassBoundFoldsIntoOther(t *testing.T) {
	s, _ := newTestSLO(nil)
	for i := 0; i < maxClasses+5; i++ {
		s.Observe(string(rune('a'+i)), 200, time.Millisecond)
	}
	var total int64
	seenOther := false
	for _, cr := range s.Report([]time.Duration{time.Minute}) {
		total += cr.Windows[0].Total
		if cr.Class == OtherClient {
			seenOther = true
		}
	}
	if total != int64(maxClasses+5) {
		t.Fatalf("lost observations: %d", total)
	}
	if !seenOther {
		t.Fatal("overflow classes should fold into other")
	}
}

func TestWindowLabel(t *testing.T) {
	cases := map[time.Duration]string{
		time.Minute:      "1m",
		5 * time.Minute:  "5m",
		time.Hour:        "1h",
		90 * time.Second: "1m30s",
	}
	for d, want := range cases {
		if got := windowLabel(d); got != want {
			t.Fatalf("windowLabel(%v) = %q, want %q", d, got, want)
		}
	}
}
