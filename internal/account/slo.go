package account

// Per-route-class SLO tracking: availability (non-5xx share) and
// latency-objective attainment (share of good requests at or under the
// class's p99 target) over the same 10s-sliced rolling windows the
// ledger uses, rendered with multi-window burn rates. Burn rate is the
// standard error-budget speed: (1 - measured) / (1 - objective) — 1.0
// spends the budget exactly at the objective's pace, 10x exhausts a
// 30-day budget in 3 days.

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// attainTarget is the latency objective's quantile: the target
// duration is a p99, so the slow budget is 1% of good requests.
const attainTarget = 0.99

// maxClasses bounds distinct route classes; route classes are a small
// fixed vocabulary, so hitting the bound means a caller bug, and the
// overflow folds into "other" rather than growing.
const maxClasses = 16

// Objective is one route class's targets.
type Objective struct {
	// Latency is the p99 latency target; 0 means no latency objective
	// (attainment reports 1 whenever availability holds).
	Latency time.Duration
	// Availability is the non-5xx share target in (0,1); 0 means the
	// default 0.999.
	Availability float64
}

// defaultAvailability is the availability target when unset.
const defaultAvailability = 0.999

// sloCounts is one (class, slice) bucket.
type sloCounts struct {
	total int64 // finished requests
	good  int64 // non-5xx
	fast  int64 // good and within the latency target
}

func (c *sloCounts) add(v sloCounts) {
	c.total += v.total
	c.good += v.good
	c.fast += v.fast
}

// sloSlice is one 10-second window slice of per-class counts.
type sloSlice struct {
	epoch   int64
	classes map[string]*sloCounts
}

// SLO tracks per-class objectives over rolling windows. Safe for
// concurrent use.
type SLO struct {
	mu         sync.Mutex
	now        func() time.Time
	objectives map[string]Objective
	slices     [numSlices]sloSlice
}

// NewSLO returns a tracker with the given per-class objectives.
// Classes observed without an explicit objective get the defaults
// (99.9% availability, no latency target).
func NewSLO(objectives map[string]Objective) *SLO {
	cp := make(map[string]Objective, len(objectives))
	for k, v := range objectives {
		cp[k] = v
	}
	return &SLO{now: time.Now, objectives: cp}
}

// objective resolves a class's targets with defaults applied.
func (s *SLO) objective(class string) Objective {
	o := s.objectives[class]
	if o.Availability <= 0 || o.Availability >= 1 {
		o.Availability = defaultAvailability
	}
	return o
}

// Observe records one finished request for its route class.
func (s *SLO) Observe(class string, status int, d time.Duration) {
	if class == "" {
		class = OtherClient
	}
	o := s.objective(class)
	var v sloCounts
	v.total = 1
	if status < 500 {
		v.good = 1
		if o.Latency <= 0 || d <= o.Latency {
			v.fast = 1
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	epoch := s.now().UnixNano() / int64(sliceDur)
	sl := &s.slices[epoch%numSlices]
	if sl.epoch != epoch {
		sl.epoch = epoch
		sl.classes = map[string]*sloCounts{}
	}
	b, ok := sl.classes[class]
	if !ok {
		if len(sl.classes) >= maxClasses {
			class = OtherClient
			if b, ok = sl.classes[class]; !ok {
				b = &sloCounts{}
				sl.classes[class] = b
			}
		} else {
			b = &sloCounts{}
			sl.classes[class] = b
		}
	}
	b.add(v)
}

// WindowReport is one class's measurements over one trailing window.
type WindowReport struct {
	Window string `json:"window"`
	Total  int64  `json:"total"`
	Good   int64  `json:"good"`
	Fast   int64  `json:"fast"`
	// Availability is good/total; Attainment fast/good. An empty
	// window reports both as 1 (no traffic spends no budget).
	Availability float64 `json:"availability"`
	Attainment   float64 `json:"latency_attainment"`
	// Burn rates: error-budget spend speed vs. the objective; 0 for an
	// empty window, 1.0 exactly at objective pace.
	AvailabilityBurn float64 `json:"availability_burn_rate"`
	LatencyBurn      float64 `json:"latency_burn_rate"`
}

// ClassReport is one route class's objectives plus its per-window
// measurements.
type ClassReport struct {
	Class              string         `json:"class"`
	LatencyTargetMS    float64        `json:"latency_target_ms,omitempty"`
	AvailabilityTarget float64        `json:"availability_target"`
	Windows            []WindowReport `json:"windows"`
}

// Report renders every class seen in the largest window, classes
// sorted by name, one WindowReport per requested window. Windows are
// labeled by their duration string ("1m0s" → "1m").
func (s *SLO) Report(windows []time.Duration) []ClassReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	nowEpoch := s.now().UnixNano() / int64(sliceDur)

	// Merge per window, collecting the union of classes as we go.
	perWindow := make([]map[string]*sloCounts, len(windows))
	classSet := map[string]bool{}
	for wi, w := range windows {
		n := int64(w / sliceDur)
		if n < 1 {
			n = 1
		}
		merged := map[string]*sloCounts{}
		for i := range s.slices {
			sl := &s.slices[i]
			if sl.epoch == 0 || sl.epoch <= nowEpoch-n || sl.epoch > nowEpoch {
				continue
			}
			for class, c := range sl.classes {
				b, ok := merged[class]
				if !ok {
					b = &sloCounts{}
					merged[class] = b
				}
				b.add(*c)
				classSet[class] = true
			}
		}
		perWindow[wi] = merged
	}

	classes := make([]string, 0, len(classSet))
	for c := range classSet {
		classes = append(classes, c)
	}
	sort.Strings(classes)

	out := make([]ClassReport, 0, len(classes))
	for _, class := range classes {
		o := s.objective(class)
		cr := ClassReport{
			Class:              class,
			AvailabilityTarget: o.Availability,
		}
		if o.Latency > 0 {
			cr.LatencyTargetMS = float64(o.Latency) / float64(time.Millisecond)
		}
		for wi, w := range windows {
			var c sloCounts
			if b := perWindow[wi][class]; b != nil {
				c = *b
			}
			cr.Windows = append(cr.Windows, windowReport(windowLabel(w), c, o))
		}
		out = append(out, cr)
	}
	return out
}

// windowReport computes one window's ratios and burn rates.
func windowReport(label string, c sloCounts, o Objective) WindowReport {
	r := WindowReport{Window: label, Total: c.total, Good: c.good, Fast: c.fast, Availability: 1, Attainment: 1}
	if c.total > 0 {
		r.Availability = float64(c.good) / float64(c.total)
		r.AvailabilityBurn = (1 - r.Availability) / (1 - o.Availability)
	}
	if c.good > 0 {
		r.Attainment = float64(c.fast) / float64(c.good)
		r.LatencyBurn = (1 - r.Attainment) / (1 - attainTarget)
	}
	return r
}

// windowLabel renders "1m"/"5m"/"1h" style labels without the trailing
// zero units time.Duration.String produces.
func windowLabel(d time.Duration) string {
	switch {
	case d%time.Hour == 0:
		return fmt.Sprintf("%dh", d/time.Hour)
	case d%time.Minute == 0:
		return fmt.Sprintf("%dm", d/time.Minute)
	default:
		return d.String()
	}
}
