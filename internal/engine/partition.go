package engine

// Partitioned graphs: the engine front-end of internal/partition. A
// managed graph can carry an edge-cut partitioning until the next write,
// which detaches it. No query reads it — the partition-parallel evaluator
// loses to the kernel on every measured shape — and the build and stats
// stay only while the benchmark pins them.
//
// Partitionings are in-memory accelerators, like compressed views: they
// are not persisted, and after a crash recovery the operator (or a boot
// script) re-partitions — a rebuild is cheap relative to a WAL replay
// and always exact.

import (
	"errors"
	"fmt"

	"expfinder/internal/partition"
)

// ErrNoPartition reports a partition operation on a graph without one.
var ErrNoPartition = errors.New("engine: no partitioning built")

// PartitionGraph builds (or replaces) the edge-cut partitioning of a
// graph and returns its stats. opts.Parts <= 0 defaults to the engine's
// parallelism. The build holds the graph's write lock — queries queue
// behind it — and is cheap: one streaming pass for assignment plus one
// edge sweep for the boundary bookkeeping.
func (e *Engine) PartitionGraph(graphName string, opts partition.Options) (partition.Stats, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return partition.Stats{}, err
	}
	if opts.Parts <= 0 {
		opts.Parts = e.par
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	pt, err := partition.Partition(mg.g, opts)
	if err != nil {
		return partition.Stats{}, err
	}
	mg.part = pt
	return pt.Stats(), nil
}

// DropPartitions removes the partitioning.
func (e *Engine) DropPartitions(graphName string) error {
	mg, err := e.lookup(graphName)
	if err != nil {
		return err
	}
	mg.mu.Lock()
	defer mg.mu.Unlock()
	if mg.part == nil {
		return fmt.Errorf("%w: %q", ErrNoPartition, graphName)
	}
	mg.part = nil
	return nil
}

// PartitionStats returns the partitioning's stats (fragment sizes, cut
// edges, ghost counts, cumulative evaluator exchange volume), or
// ErrNoPartition.
func (e *Engine) PartitionStats(graphName string) (partition.Stats, error) {
	mg, err := e.lookup(graphName)
	if err != nil {
		return partition.Stats{}, err
	}
	mg.mu.RLock()
	defer mg.mu.RUnlock()
	if mg.part == nil {
		return partition.Stats{}, fmt.Errorf("%w: %q", ErrNoPartition, graphName)
	}
	return mg.part.Stats(), nil
}
