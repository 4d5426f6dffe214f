package engine

// Engine surface of the statistics subsystem (see internal/stats):
// the shape signature stamped on query spans for the plan-outcome
// recorder, and the accessor the serving tier renders at
// /api/v1/graphs/{name}/stats.

import (
	"fmt"

	"expfinder/internal/pattern"
	"expfinder/internal/stats"
)

// patternShape is a pattern's coarse shape signature: node count, edge
// count, and maximum bound ("*" when any edge is unbounded). Plan
// outcomes aggregate per shape — shapes, not whole patterns, are the
// granularity a cost model generalizes over.
func patternShape(q *pattern.Pattern) string {
	max, unbounded := q.MaxBound()
	if unbounded {
		return fmt.Sprintf("n%de%db*", q.NumNodes(), q.NumEdges())
	}
	return fmt.Sprintf("n%de%db%d", q.NumNodes(), q.NumEdges(), max)
}

// GraphStatistics returns the named graph's statistics snapshot,
// rebuilding first if the counters have gone stale.
func (e *Engine) GraphStatistics(graphName string) (*stats.Snapshot, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return nil, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return mg.st.Snapshot(mg.g), nil
}

// StatsRebuilds reports how many from-scratch recounts the named
// graph's statistics have paid (1 for the build at registration; more
// means a reader caught a stale stamp).
func (e *Engine) StatsRebuilds(graphName string) (uint64, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return 0, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	return mg.st.Rebuilds(), nil
}
