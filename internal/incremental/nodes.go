package incremental

import (
	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
)

// Node-level maintenance. Edge updates are the common case (Apply/Sync);
// the engine additionally keeps matchers alive across node insertions,
// node removals and attribute changes instead of re-registering:
//
//   - a freshly added node has no edges, so it can only match pattern
//     nodes whose obligations it satisfies vacuously, and nothing else can
//     gain or lose support from it (no cascades);
//   - a node is removed only after its incident edges were removed and
//     synced, so clearing its candidacy cannot cascade either;
//   - an attribute change can both disqualify (removal refinement) and
//     qualify (admission closure) the node.

// RefreshVersion re-synchronizes the matcher's staleness check with the
// graph after coordinated mutations the matcher was already told about
// through its Sync* methods (the engine's node-removal sequence ends with
// a graph mutation the matcher does not see individually).
func (m *Matcher) RefreshVersion() { m.version = m.g.Version() }

// ensureCap grows the candidate sets after the graph allocated new node
// ids.
func (m *Matcher) ensureCap() {
	maxID := m.g.MaxID()
	if maxID <= m.maxID {
		return
	}
	for u := range m.cand {
		grown := make([]bool, maxID)
		copy(grown, m.cand[u])
		m.cand[u] = grown
	}
	m.maxID = maxID
}

// SyncNodeAdded registers a node that was just added to the graph (with no
// incident edges yet). It returns the match pairs gained.
func (m *Matcher) SyncNodeAdded(id graph.NodeID) []match.Pair {
	m.ensureCap()
	n, ok := m.g.Node(id)
	if !ok {
		return nil
	}
	var added []match.Pair
	for u := range m.cand {
		uIdx := pattern.NodeIdx(u)
		if m.q.Node(uIdx).Pred.Eval(n) && m.satisfies(uIdx, id) {
			m.cand[u][id] = true
			added = append(added, match.Pair{PNode: uIdx, Node: id})
		}
	}
	m.version = m.g.Version()
	return added
}

// SyncNodeRemoving clears a node's candidacy ahead of its removal from the
// graph. The caller must have removed and synced the node's incident edges
// first (the engine does); at that point nothing else depends on the node,
// so no cascade is needed. It returns the match pairs lost.
func (m *Matcher) SyncNodeRemoving(id graph.NodeID) []match.Pair {
	var removed []match.Pair
	if int(id) >= m.maxID {
		return nil
	}
	for u := range m.cand {
		if m.cand[u][id] {
			m.cand[u][id] = false
			removed = append(removed, match.Pair{PNode: pattern.NodeIdx(u), Node: id})
		}
	}
	m.version = m.g.Version()
	return removed
}

// SyncAttrChanged re-evaluates a node whose attributes changed: candidacy
// it loses cascades through the removal refinement; candidacy it might gain
// enters through the admission closure (its own and, transitively, its
// upstream neighbourhood's).
func (m *Matcher) SyncAttrChanged(id graph.NodeID) (added, removed []match.Pair, err error) {
	m.ensureCap()
	n, ok := m.g.Node(id)
	if !ok {
		return nil, nil, graph.ErrNoNode
	}
	// A pair whose predicate no longer holds leaves at once, and its
	// dependents become suspects, exactly as in the edge-deletion path.
	var suspects []pair
	for u := range m.cand {
		p := pair{pattern.NodeIdx(u), id}
		if m.cand[u][id] && !m.q.Node(p.u).Pred.Eval(n) {
			removed = append(removed, match.Pair{PNode: p.u, Node: id})
			suspects = m.drop(suspects, p)
		}
	}
	// Every position of the node is offered to the admission closure.
	tentative := m.admissionClosure(func(offer func(pair)) {
		for u := range m.cand {
			offer(pair{pattern.NodeIdx(u), id})
		}
	})
	gained, lost := m.repair(suspects, tentative)
	return gained, append(removed, lost...), nil
}
