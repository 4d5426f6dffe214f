package subscribe

import (
	"errors"
	"fmt"

	"expfinder/internal/match"
)

// Mirror materializes a subscription's event stream back into the match
// relation: a snapshot resets it, each delta advances it. Clients that
// want the full current relation (not just the change feed) fold every
// event through a Mirror; the protocol guarantees the result equals a
// fresh batch evaluation on the graph at that revision. Mirror also
// enforces the protocol's invariants (snapshot-first, strictly
// increasing revisions) so tests and clients detect a broken stream
// instead of silently diverging.
type Mirror struct {
	rel    *match.Relation
	seq    uint64
	synced bool
}

// ErrOutOfSync is returned when events arrive out of protocol order.
var ErrOutOfSync = errors.New("subscribe: event out of protocol order")

// NewMirror returns a mirror for patterns with n nodes.
func NewMirror(n int) *Mirror {
	return &Mirror{rel: match.NewRelation(n)}
}

// Apply folds one event into the mirrored relation.
func (mi *Mirror) Apply(ev Event) error {
	switch ev.Kind {
	case Snapshot:
		n := mi.rel.NumPatternNodes()
		mi.rel = match.NewRelation(n)
		for _, p := range ev.Pairs {
			if int(p.PNode) >= n {
				return fmt.Errorf("%w: snapshot pair for pattern node %d of %d", ErrOutOfSync, p.PNode, n)
			}
			mi.rel.Add(p.PNode, p.Node)
		}
		mi.seq = ev.Seq
		mi.synced = true
	case Delta:
		if !mi.synced {
			return fmt.Errorf("%w: delta before first snapshot", ErrOutOfSync)
		}
		if ev.Seq <= mi.seq {
			return fmt.Errorf("%w: delta seq %d after %d", ErrOutOfSync, ev.Seq, mi.seq)
		}
		for _, p := range ev.Removed {
			mi.rel.Remove(p.PNode, p.Node)
		}
		for _, p := range ev.Added {
			mi.rel.Add(p.PNode, p.Node)
		}
		mi.seq = ev.Seq
	default:
		return fmt.Errorf("%w: unknown event kind %q", ErrOutOfSync, ev.Kind)
	}
	return nil
}

// Relation returns a copy of the mirrored relation.
func (mi *Mirror) Relation() *match.Relation { return mi.rel.Clone() }

// Seq returns the revision the mirror has caught up to.
func (mi *Mirror) Seq() uint64 { return mi.seq }
