package graph

// Update is one edge insertion or deletion — the single mutation value
// every layer above the graph shares: the matchers, the accelerators, the
// statistics and the write-ahead log alias it, so one batch reaches all of
// them as the same slice.
type Update struct {
	Insert   bool
	From, To NodeID
}

// Insert returns an edge-insertion update.
func Insert(from, to NodeID) Update { return Update{Insert: true, From: from, To: to} }

// Delete returns an edge-deletion update.
func Delete(from, to NodeID) Update { return Update{From: from, To: to} }

// Inverse returns the update that undoes u.
func (u Update) Inverse() Update { return Update{Insert: !u.Insert, From: u.From, To: u.To} }

// Apply performs the update on g.
func (u Update) Apply(g *Graph) error {
	if u.Insert {
		return g.AddEdge(u.From, u.To)
	}
	return g.RemoveEdge(u.From, u.To)
}
