package server

// Serving-tier surface of internal/account: route classification, SLO
// objective defaults, the component-health probes /healthz rolls up,
// the expfinder_client_*/expfinder_slo_*/expfinder_component_health
// metric families, and the GET /stats/clients and GET /slo handlers.

import (
	"fmt"
	"net/http"
	"strings"
	"time"

	"expfinder/internal/account"
	"expfinder/internal/api"
	"expfinder/internal/metrics"
)

// sloWindows are the trailing windows every SLO report and metric
// renders: fast burn shows in 1m, sustained burn in 1h.
var sloWindows = []time.Duration{time.Minute, 5 * time.Minute, time.Hour}

// routeClass maps a route name to its SLO class. Classes, not routes,
// carry objectives: a latency target for "mutation" should not need
// restating for every one of the dozen write routes.
func routeClass(route string) string {
	switch route {
	case "query", "query_batch":
		return "query"
	case "create_graph", "delete_graph", "apply_updates", "add_node",
		"remove_node", "set_node_attrs", "compress_graph", "drop_compression",
		"build_index", "drop_index", "build_partitions", "drop_partitions",
		"register_query", "force_checkpoint":
		return "mutation"
	case "create_subscription", "delete_subscription", "stream_events":
		return "stream"
	case "promote":
		return "admin"
	}
	if strings.HasPrefix(route, "debug_") {
		return "debug"
	}
	// Everything else is a cheap read (listings, stats, cache counters).
	return "read"
}

// defaultSLOTargets are the p99 latency targets per route class.
// Streams and admin operations are open-ended by design (an SSE
// connection lives as long as the client wants), so they carry no
// latency objective — availability still applies.
var defaultSLOTargets = map[string]time.Duration{
	"query":    500 * time.Millisecond,
	"mutation": 250 * time.Millisecond,
	"read":     100 * time.Millisecond,
	"debug":    100 * time.Millisecond,
}

// sloObjectives merges configured targets over the defaults.
func sloObjectives(targets map[string]time.Duration) map[string]account.Objective {
	out := map[string]account.Objective{}
	for class, d := range defaultSLOTargets {
		out[class] = account.Objective{Latency: d}
	}
	for class, d := range targets {
		out[class] = account.Objective{Latency: d}
	}
	return out
}

// Thresholds at which a component degrades the /healthz rollup. The
// execution pool's queue thresholds are structural (half full degrades,
// full is unhealthy).
const (
	// replicationLagDegraded / replicationLagUnhealthy are in records.
	replicationLagDegraded  = 500
	replicationLagUnhealthy = 5000
	// checkpointLagBytes: any graph's WAL grew this far past its last
	// checkpoint.
	checkpointLagBytes = 256 << 20
	// walDiskBytes: the total on-disk WAL footprint.
	walDiskBytes = 4 << 30
	// subscriptionBacklog: undelivered events buffered across
	// subscriptions.
	subscriptionBacklog = 65536
)

// registerHealthComponents wires every component probe. Probes read
// s.repl/s.recovery at evaluation time, so registering before
// SetReplication/SetRecoverySummary is fine.
func (s *Server) registerHealthComponents() {
	s.health.Register("replication", func() (account.HealthStatus, string) {
		if s.repl == nil {
			return account.StatusOK, ""
		}
		st := s.repl.Status()
		if st.Role == "follower" && !st.Connected {
			return account.StatusDegraded, "follower disconnected from leader " + st.Leader
		}
		lag := st.LagRecords
		switch {
		case lag >= replicationLagUnhealthy:
			return account.StatusUnhealthy, fmt.Sprintf("lag %d records over unhealthy threshold %d", lag, replicationLagUnhealthy)
		case lag >= replicationLagDegraded:
			return account.StatusDegraded, fmt.Sprintf("lag %d records over degraded threshold %d", lag, replicationLagDegraded)
		}
		return account.StatusOK, ""
	})

	s.health.Register("wal_disk", func() (account.HealthStatus, string) {
		if !s.eng.PersistenceEnabled() {
			return account.StatusOK, ""
		}
		st, err := s.eng.PersistenceStats()
		if err != nil {
			return account.StatusDegraded, "persistence stats unavailable: " + err.Error()
		}
		if st.FsyncFailures > 0 {
			return account.StatusUnhealthy, fmt.Sprintf("%d fsync failures", st.FsyncFailures)
		}
		var total int64
		for _, g := range st.Graphs {
			if g.Broken {
				return account.StatusUnhealthy, "graph " + g.Name + " has a broken log"
			}
			total += g.WALBytes
		}
		if total >= walDiskBytes {
			return account.StatusDegraded, fmt.Sprintf("WAL footprint %d bytes over threshold %d", total, walDiskBytes)
		}
		return account.StatusOK, ""
	})

	s.health.Register("checkpoint", func() (account.HealthStatus, string) {
		if !s.eng.PersistenceEnabled() {
			return account.StatusOK, ""
		}
		st, err := s.eng.PersistenceStats()
		if err != nil {
			return account.StatusOK, ""
		}
		for _, g := range st.Graphs {
			if g.BytesSinceCheckpoint >= checkpointLagBytes {
				return account.StatusDegraded, fmt.Sprintf("graph %s grew %d bytes past its checkpoint (threshold %d)",
					g.Name, g.BytesSinceCheckpoint, checkpointLagBytes)
			}
		}
		return account.StatusOK, ""
	})

	s.health.Register("admission_queue", func() (account.HealthStatus, string) {
		st := s.eng.Pool()
		switch {
		case st.Queued >= st.Bound:
			return account.StatusUnhealthy, fmt.Sprintf("queue full (%d/%d), shedding", st.Queued, st.Bound)
		case st.Queued*2 >= st.Bound:
			return account.StatusDegraded, fmt.Sprintf("queue %d/%d over half full", st.Queued, st.Bound)
		}
		return account.StatusOK, ""
	})

	s.health.Register("subscriptions", func() (account.HealthStatus, string) {
		if backlog := s.eng.SubscriptionStats().Backlog; backlog >= subscriptionBacklog {
			return account.StatusDegraded, fmt.Sprintf("%d undelivered events buffered (threshold %d)", backlog, subscriptionBacklog)
		}
		return account.StatusOK, ""
	})

	s.health.Register("recovery", func() (account.HealthStatus, string) {
		if s.recovery == nil {
			return account.StatusOK, ""
		}
		if failed := s.recovery.Failed(); len(failed) > 0 {
			return account.StatusDegraded, fmt.Sprintf("%d graphs failed recovery and are not serving", len(failed))
		}
		return account.StatusOK, ""
	})
}

// registerAccountMetrics exposes the ledger's since-boot per-client
// totals, the SLO tracker's per-class/window measurements, and the
// component-health states. Client labels are bounded by the ledger's
// top-K fold, SLO labels by the fixed class vocabulary.
func (s *Server) registerAccountMetrics() {
	clientCounter := func(name, help string, value func(account.ClientUsage) float64) {
		s.registry.NewCounterVecFunc(name, help, []string{"client"},
			func() []metrics.LabeledValue {
				var out []metrics.LabeledValue
				for _, cu := range s.ledger.Snapshot(0) {
					out = append(out, metrics.LabeledValue{Labels: []string{cu.Client}, Value: value(cu)})
				}
				return out
			})
	}
	clientCounter("expfinder_client_requests_total",
		"Requests charged per client since boot (top-K clients plus the other bucket).",
		func(cu account.ClientUsage) float64 { return float64(cu.Requests) })
	clientCounter("expfinder_client_wall_seconds_total",
		"Request wall time charged per client since boot.",
		func(cu account.ClientUsage) float64 { return float64(cu.WallUS) / 1e6 })
	clientCounter("expfinder_client_queue_seconds_total",
		"Execution-pool queue wait charged per client (traced requests).",
		func(cu account.ClientUsage) float64 { return float64(cu.QueueUS) / 1e6 })
	clientCounter("expfinder_client_bytes_out_total",
		"Response bytes charged per client since boot.",
		func(cu account.ClientUsage) float64 { return float64(cu.BytesOut) })
	clientCounter("expfinder_client_wal_bytes_total",
		"WAL bytes appended on behalf of each client (traced requests).",
		func(cu account.ClientUsage) float64 { return float64(cu.WALBytes) })
	clientCounter("expfinder_client_shed_total",
		"503 responses charged per client since boot.",
		func(cu account.ClientUsage) float64 { return float64(cu.Shed) })

	sloGauge := func(name, help string, value func(account.WindowReport) float64) {
		s.registry.NewGaugeVecFunc(name, help, []string{"class", "window"},
			func() []metrics.LabeledValue {
				var out []metrics.LabeledValue
				for _, cr := range s.slo.Report(sloWindows) {
					for _, wr := range cr.Windows {
						out = append(out, metrics.LabeledValue{
							Labels: []string{cr.Class, wr.Window}, Value: value(wr)})
					}
				}
				return out
			})
	}
	sloGauge("expfinder_slo_availability",
		"Non-5xx share per route class over the trailing window.",
		func(wr account.WindowReport) float64 { return wr.Availability })
	sloGauge("expfinder_slo_latency_attainment",
		"Share of good requests within the class's p99 latency target.",
		func(wr account.WindowReport) float64 { return wr.Attainment })
	sloGauge("expfinder_slo_availability_burn_rate",
		"Availability error-budget spend speed (1.0 = exactly at objective pace).",
		func(wr account.WindowReport) float64 { return wr.AvailabilityBurn })
	sloGauge("expfinder_slo_latency_burn_rate",
		"Latency error-budget spend speed (1.0 = exactly at objective pace).",
		func(wr account.WindowReport) float64 { return wr.LatencyBurn })

	s.registry.NewGaugeVecFunc("expfinder_component_health",
		"Per-component health: 0 ok, 1 degraded, 2 unhealthy.",
		[]string{"component"}, func() []metrics.LabeledValue {
			_, checks := s.health.Evaluate()
			out := make([]metrics.LabeledValue, 0, len(checks))
			for _, c := range checks {
				out = append(out, metrics.LabeledValue{Labels: []string{c.Component}, Value: float64(c.Status)})
			}
			return out
		})
	s.registry.NewGaugeFunc("expfinder_health_status",
		"Process health rollup: 0 ok, 1 degraded, 2 unhealthy (worst component wins).",
		func() float64 {
			st, _ := s.health.Evaluate()
			return float64(st)
		})
}

// parseWindow maps the ?window= query parameter to a ledger window.
func parseWindow(s string) (time.Duration, string, error) {
	switch s {
	case "", "5m":
		return 5 * time.Minute, "5m", nil
	case "1m":
		return time.Minute, "1m", nil
	case "1h":
		return time.Hour, "1h", nil
	case "total":
		return 0, "total", nil
	}
	return 0, "", fmt.Errorf("unknown window %q (want 1m, 5m, 1h, or total)", s)
}

// statsClients serves GET /stats/clients: the per-client resource
// bill over a trailing window (default 5m) or since boot
// (?window=total), heaviest wall time first.
func (s *Server) statsClients(w http.ResponseWriter, r *http.Request) {
	window, label, err := parseWindow(r.URL.Query().Get("window"))
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidRequest, err)
		return
	}
	clients := s.ledger.Snapshot(window)
	if clients == nil {
		clients = []account.ClientUsage{}
	}
	writeJSON(w, http.StatusOK, api.ClientStatsResponse{
		Window:  label,
		Clients: clients,
		Totals:  s.ledger.Totals(),
	})
}

// sloReport serves GET /slo: per-route-class availability and latency
// attainment with burn rates over the 1m/5m/1h windows.
func (s *Server) sloReport(w http.ResponseWriter, r *http.Request) {
	classes := s.slo.Report(sloWindows)
	if classes == nil {
		classes = []account.ClassReport{}
	}
	writeJSON(w, http.StatusOK, api.SLOResponse{Classes: classes})
}
