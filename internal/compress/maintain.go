package compress

import (
	"fmt"
	"sort"

	"expfinder/internal/graph"
)

// Update is one edge insertion or deletion against the source graph.
type Update = graph.Update

// Insert returns an edge-insertion update.
func Insert(from, to graph.NodeID) Update { return Update{Insert: true, From: from, To: to} }

// Delete returns an edge-deletion update.
func Delete(from, to graph.NodeID) Update { return Update{Insert: false, From: from, To: to} }

// Maintain applies edge updates to the source graph and repairs the
// quotient incrementally. The repaired partition stays a valid (stable)
// bisimulation partition — queries on the quotient remain exact — though it
// can be finer than the coarsest one: maintenance only splits blocks, never
// re-merges them, so the quotient only grows under writes; Rebuild, or a
// fresh CompressWithView, restores the coarsest one. Pays reports when it
// has grown too fine to be worth keeping.
//
// Only the Bisimulation scheme supports maintenance. Given the same
// quotient and the same updates, maintenance assigns the same block ids.
func (c *Compressed) Maintain(ops []Update) error {
	if c.scheme != Bisimulation {
		return ErrNoMaintenance
	}
	if c.src.Version() != c.version {
		return ErrStale
	}
	for _, op := range ops {
		if !c.src.Has(op.From) || !c.src.Has(op.To) {
			return graph.ErrNoNode
		}
		if op.Insert {
			if err := c.src.AddEdge(op.From, op.To); err != nil {
				return err
			}
		} else if err := c.src.RemoveEdge(op.From, op.To); err != nil {
			return err
		}
	}
	return c.Sync(ops)
}

// Sync repairs the quotient after ops were already applied to the source
// graph (the engine path, where one graph is shared by several consumers).
// Block assignments are unaffected by edge updates themselves, so edge
// multiplicities and stability can be restored entirely post-hoc.
func (c *Compressed) Sync(ops []Update) error {
	if c.scheme != Bisimulation {
		return ErrNoMaintenance
	}
	dirty := map[graph.NodeID]bool{} // gc blocks to recheck for uniformity
	for _, op := range ops {
		if op.Insert {
			c.bumpEdge(c.blockOf[op.From], c.blockOf[op.To], +1)
		} else {
			c.bumpEdge(c.blockOf[op.From], c.blockOf[op.To], -1)
		}
		// Only the source endpoint's successor signature changed.
		dirty[c.blockOf[op.From]] = true
	}
	c.restabilize(dirty)
	c.version = c.src.Version()
	return nil
}

// Rebuild recomputes the quotient from scratch (coarsest partition, same
// scheme and attribute view), re-coarsening a quotient fragmented by many
// Maintain calls.
func (c *Compressed) Rebuild() {
	fresh := CompressWithView(c.src, c.scheme, c.view)
	*c = *fresh
}

// bumpEdge adjusts the multiplicity of a quotient edge, materializing or
// removing the gc edge at the 0/1 boundary.
func (c *Compressed) bumpEdge(from, to graph.NodeID, delta int) {
	key := [2]graph.NodeID{from, to}
	old := c.edgeCnt[key]
	now := old + delta
	if now < 0 {
		panic(fmt.Sprintf("compress: edge count underflow for %v", key))
	}
	switch {
	case old == 0 && now > 0:
		if err := c.gc.AddEdge(from, to); err != nil {
			panic(err)
		}
	case old > 0 && now == 0:
		if err := c.gc.RemoveEdge(from, to); err != nil {
			panic(err)
		}
	}
	if now == 0 {
		delete(c.edgeCnt, key)
	} else {
		c.edgeCnt[key] = now
	}
}

// restabilize processes dirty blocks, splitting any whose members disagree
// on their successor-block signature, and cascading to predecessor blocks
// whenever a split changes what their signatures refer to. Blocks are
// queued in id order, so the same input always splits the same way.
func (c *Compressed) restabilize(dirty map[graph.NodeID]bool) {
	queue := sortedIDs(dirty)
	queued := dirty
	for len(queue) > 0 {
		b := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		delete(queued, b)
		newBlocks := c.splitBlock(b)
		if len(newBlocks) == 0 {
			continue
		}
		// Every block with an edge into the split block (old or new parts)
		// may now be non-uniform.
		affected := append(newBlocks, b)
		preds := map[graph.NodeID]bool{}
		for _, nb := range affected {
			for _, p := range c.gc.In(nb) {
				preds[p] = true
			}
		}
		for _, p := range sortedIDs(preds) {
			if !queued[p] {
				queued[p] = true
				queue = append(queue, p)
			}
		}
	}
}

// sortedIDs returns the members of set in ascending order.
func sortedIDs(set map[graph.NodeID]bool) []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// memberSuccSig renders the successor-block signature of one source node.
func (c *Compressed) memberSuccSig(v graph.NodeID) string {
	blocks := make([]int, 0, len(c.src.Out(v)))
	for _, w := range c.src.Out(v) {
		blocks = append(blocks, int(c.blockOf[w]))
	}
	if len(blocks) == 0 {
		return ""
	}
	sort.Ints(blocks)
	out := blocks[:1]
	for _, b := range blocks[1:] {
		if b != out[len(out)-1] {
			out = append(out, b)
		}
	}
	return fmt.Sprint(out)
}

// splitBlock checks uniformity of block b and, if violated, moves each
// minority signature group into a fresh quotient node, updating membership
// and edge multiplicities. It returns the ids of newly created blocks (nil
// if the block was already uniform).
func (c *Compressed) splitBlock(b graph.NodeID) []graph.NodeID {
	ms := c.members[b]
	if len(ms) <= 1 {
		return nil
	}
	groups := map[string][]graph.NodeID{}
	for _, v := range ms {
		sig := c.memberSuccSig(v)
		groups[sig] = append(groups[sig], v)
	}
	if len(groups) == 1 {
		return nil
	}
	// New blocks are created in signature order. The largest group stays
	// in place (least churn), the first in that order on a tie.
	sigs := make([]string, 0, len(groups))
	for sig := range groups {
		sigs = append(sigs, sig)
	}
	sort.Strings(sigs)
	keepSig := sigs[0]
	for _, sig := range sigs[1:] {
		if len(groups[sig]) > len(groups[keepSig]) {
			keepSig = sig
		}
	}
	var created []graph.NodeID
	oldNode := c.gc.MustNode(b)
	for _, sig := range sigs {
		if sig == keepSig {
			continue
		}
		grp := groups[sig]
		// The new block inherits the old quotient node's label and (viewed)
		// attributes: splits never change the static signature.
		nb := c.gc.AddNode(oldNode.Label, oldNode.Attrs.Clone())
		created = append(created, nb)
		for _, v := range grp {
			c.moveMember(v, b, nb)
		}
	}
	return created
}

// moveMember reassigns source node v from block old to block nb, updating
// membership lists and the edge multiplicities of every incident quotient
// edge. Moves are processed one node at a time so blockOf is always
// current while counting.
func (c *Compressed) moveMember(v graph.NodeID, old, nb graph.NodeID) {
	// Outgoing edges: (old -> B(w)) loses one, (nb -> B(w)) gains one.
	for _, w := range c.src.Out(v) {
		if w == v {
			// Self-loop accounting happens once, as an out-edge; the block
			// target is v's own (new) block.
			c.bumpEdge(old, old, -1)
			c.bumpEdge(nb, nb, +1)
			continue
		}
		c.bumpEdge(old, c.blockOf[w], -1)
		c.bumpEdge(nb, c.blockOf[w], +1)
	}
	// Incoming edges: (B(p) -> old) loses one, (B(p) -> nb) gains one.
	for _, p := range c.src.In(v) {
		if p == v {
			continue // handled above
		}
		c.bumpEdge(c.blockOf[p], old, -1)
		c.bumpEdge(c.blockOf[p], nb, +1)
	}
	// Membership swap.
	list := c.members[old]
	for i, m := range list {
		if m == v {
			list[i] = list[len(list)-1]
			c.members[old] = list[:len(list)-1]
			break
		}
	}
	c.members[nb] = append(c.members[nb], v)
	c.blockOf[v] = nb
}
