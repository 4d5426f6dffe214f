package server

// Serving-tier surface of the statistics subsystem: build-info
// identification, the per-graph statistics gauges, and the
// plan-outcome recorder (fed by foldTrace) whose rolling summaries are
// served at GET /api/v1/stats/queries.

import (
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"

	"expfinder/internal/api"
	"expfinder/internal/metrics"
	"expfinder/internal/stats"
)

// buildVersion resolves the binary's version from the embedded build
// info: the module version when built from a tagged release, else the
// VCS revision, else "unknown" (go test binaries).
func buildVersion() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	if v := bi.Main.Version; v != "" && v != "(devel)" {
		return v
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "-dirty"
			}
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		return rev + modified
	}
	return "unknown"
}

// buildInfo is the identification block exposed as the
// expfinder_build_info gauge and echoed in /healthz.
func buildInfo() api.BuildInfo {
	return api.BuildInfo{
		Version:    buildVersion(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// registerStatsMetrics wires the statistics subsystem into the metrics
// registry: the constant build_info series, per-graph graph-shape
// gauges read from the engine's statistics, and per-
// (graph, plan) plan-outcome series from the recorder.
func (s *Server) registerStatsMetrics() {
	bi := buildInfo()
	s.registry.NewGaugeVecFunc("expfinder_build_info",
		"Build identification; the value is always 1, the labels carry the info.",
		[]string{"version", "go_version", "gomaxprocs"},
		func() []metrics.LabeledValue {
			return []metrics.LabeledValue{{
				Labels: []string{bi.Version, bi.GoVersion, strconv.Itoa(bi.GOMAXPROCS)},
				Value:  1,
			}}
		})

	// graphSnapshots reads every graph's statistics. Each of the three
	// per-graph families below calls it on its own, so one scrape walks
	// the graphs three times; statistics are recounted at most once per
	// graph version, so the second and third walks read what the first
	// counted unless a write landed between them.
	graphSnapshots := func() map[string]*stats.Snapshot {
		out := map[string]*stats.Snapshot{}
		for _, name := range s.eng.ListGraphs() {
			if snap, err := s.eng.GraphStatistics(name); err == nil {
				out[name] = snap
			}
		}
		return out
	}
	s.registry.NewGaugeVecFunc("expfinder_graph_nodes",
		"Nodes per managed graph, from the online statistics.",
		[]string{"graph"}, func() []metrics.LabeledValue {
			var out []metrics.LabeledValue
			for name, snap := range graphSnapshots() {
				out = append(out, metrics.LabeledValue{Labels: []string{name}, Value: float64(snap.Nodes)})
			}
			return out
		})
	s.registry.NewGaugeVecFunc("expfinder_graph_edges",
		"Edges per managed graph, from the online statistics.",
		[]string{"graph"}, func() []metrics.LabeledValue {
			var out []metrics.LabeledValue
			for name, snap := range graphSnapshots() {
				out = append(out, metrics.LabeledValue{Labels: []string{name}, Value: float64(snap.Edges)})
			}
			return out
		})
	s.registry.NewGaugeVecFunc("expfinder_graph_distinct_labels",
		"Distinct node labels per managed graph.",
		[]string{"graph"}, func() []metrics.LabeledValue {
			var out []metrics.LabeledValue
			for name, snap := range graphSnapshots() {
				out = append(out, metrics.LabeledValue{Labels: []string{name}, Value: float64(len(snap.Labels))})
			}
			return out
		})
	s.registry.NewCounterVecFunc("expfinder_graph_stats_rebuilds_total",
		"From-scratch statistic recounts per graph: 1 at registration, then one per graph version read.",
		[]string{"graph"}, func() []metrics.LabeledValue {
			var out []metrics.LabeledValue
			for _, name := range s.eng.ListGraphs() {
				if n, err := s.eng.StatsRebuilds(name); err == nil && n > 0 {
					out = append(out, metrics.LabeledValue{Labels: []string{name}, Value: float64(n)})
				}
			}
			return out
		})

	s.registry.NewCounterVecFunc("expfinder_plan_outcome_total",
		"Traced query outcomes aggregated by graph and plan.",
		[]string{"graph", "plan"}, func() []metrics.LabeledValue {
			var out []metrics.LabeledValue
			for _, t := range s.recorder.PlanTotals() {
				out = append(out, metrics.LabeledValue{Labels: []string{t.Graph, t.Plan}, Value: float64(t.Count)})
			}
			return out
		})
	s.registry.NewGaugeVecFunc("expfinder_plan_outcome_p95_seconds",
		"p95 traced query latency over the retained sample window, by graph and plan.",
		[]string{"graph", "plan"}, func() []metrics.LabeledValue {
			var out []metrics.LabeledValue
			for _, t := range s.recorder.PlanTotals() {
				out = append(out, metrics.LabeledValue{Labels: []string{t.Graph, t.Plan}, Value: float64(t.P95US) / 1e6})
			}
			return out
		})
	s.registry.NewCounterFunc("expfinder_plan_outcome_dropped_total",
		"Traced query outcomes discarded because the recorder's key bound was hit.",
		func() float64 { return float64(s.recorder.Dropped()) })
}

// statsQueries serves GET /stats/queries: the plan-outcome rolling
// summaries, busiest bucket first.
func (s *Server) statsQueries(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, api.QueryStatsResponse{
		Summaries: s.recorder.Summaries(),
		Dropped:   s.recorder.Dropped(),
	})
}
