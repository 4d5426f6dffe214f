package compress

import (
	"expfinder/internal/graph"
)

// Node-level maintenance of the bisimulation quotient, mirroring the
// incremental matcher's node support: added nodes become fresh singleton
// blocks (a finer-than-coarsest partition stays exact), removed nodes leave
// their block (dropping it when it empties), and a change to a viewed
// attribute moves the node into its own block before restabilizing, since
// the static signature may no longer match its old blockmates'.

// SyncNodeAdded registers a node just added to the source graph (no
// incident edges yet) as a new singleton block.
func (c *Compressed) SyncNodeAdded(id graph.NodeID) error {
	if c.scheme != Bisimulation {
		return ErrNoMaintenance
	}
	n, ok := c.src.Node(id)
	if !ok {
		return graph.ErrNoNode
	}
	c.ensureCap()
	attrs := n.Attrs.Clone()
	if c.view != nil {
		attrs = graph.Attrs{}
		for _, a := range c.view {
			if val, ok := n.Attrs[a]; ok {
				attrs[a] = val
			}
		}
	}
	b := c.gc.AddNode(n.Label, attrs)
	c.blockOf[id] = b
	c.members[b] = []graph.NodeID{id}
	c.version = c.src.Version()
	return nil
}

// RefreshVersion re-synchronizes the staleness check after coordinated
// mutations already reflected through Sync* calls.
func (c *Compressed) RefreshVersion() { c.version = c.src.Version() }

// ensureCap grows blockOf after the source graph allocated new ids.
func (c *Compressed) ensureCap() {
	maxID := c.src.MaxID()
	if maxID <= len(c.blockOf) {
		return
	}
	grown := make([]graph.NodeID, maxID)
	copy(grown, c.blockOf)
	for i := len(c.blockOf); i < maxID; i++ {
		grown[i] = graph.Invalid
	}
	c.blockOf = grown
}

// SyncNodeRemoving detaches a node from its block ahead of its removal
// from the source graph. Incident edges must already be removed and synced
// (the engine guarantees this), so edge multiplicities are untouched. The
// block is dropped when it empties; emptying cannot destabilize neighbours
// because an empty block has no quotient edges left.
func (c *Compressed) SyncNodeRemoving(id graph.NodeID) error {
	if c.scheme != Bisimulation {
		return ErrNoMaintenance
	}
	if int(id) >= len(c.blockOf) || c.blockOf[id] == graph.Invalid {
		return graph.ErrNoNode
	}
	b := c.blockOf[id]
	list := c.members[b]
	for i, m := range list {
		if m == id {
			list[i] = list[len(list)-1]
			c.members[b] = list[:len(list)-1]
			break
		}
	}
	c.blockOf[id] = graph.Invalid
	if len(c.members[b]) == 0 {
		delete(c.members, b)
		if err := c.gc.RemoveNode(b); err != nil {
			return err
		}
	}
	c.version = c.src.Version()
	return nil
}

// SyncAttrChanged follows a change of attribute key on node id. A key
// outside the view leaves every static signature as it was, so only the
// version moves. Otherwise the node moves into a fresh singleton block
// (its static signature may have diverged from its block) and the affected
// region restabilizes; when the node was already alone in its block, only
// the block's stored attributes refresh.
func (c *Compressed) SyncAttrChanged(id graph.NodeID, key string) error {
	if c.scheme != Bisimulation {
		return ErrNoMaintenance
	}
	n, ok := c.src.Node(id)
	if !ok {
		return graph.ErrNoNode
	}
	c.ensureCap()
	old := c.blockOf[id]
	if old == graph.Invalid {
		return graph.ErrNoNode
	}
	if !c.view.Has(key) {
		c.version = c.src.Version()
		return nil
	}
	attrs := n.Attrs.Clone()
	if c.view != nil {
		attrs = graph.Attrs{}
		for _, a := range c.view {
			if val, ok := n.Attrs[a]; ok {
				attrs[a] = val
			}
		}
	}
	if len(c.members[old]) == 1 {
		// Singleton: refresh the quotient node's label and attributes.
		if err := c.gc.ResetNode(old, n.Label, attrs); err != nil {
			return err
		}
		c.version = c.src.Version()
		return nil
	}
	nb := c.gc.AddNode(n.Label, attrs)
	c.members[nb] = nil
	c.moveMember(id, old, nb)
	// Predecessors of both blocks may now be non-uniform; so may the old
	// block itself (though splitting it off cannot, by itself, change its
	// remaining members' signatures — their successor blocks are intact —
	// the new block's appearance changes *incoming* signatures).
	dirty := map[graph.NodeID]bool{old: true, nb: true}
	for _, p := range c.gc.In(old) {
		dirty[p] = true
	}
	for _, p := range c.gc.In(nb) {
		dirty[p] = true
	}
	c.restabilize(dirty)
	c.version = c.src.Version()
	return nil
}
