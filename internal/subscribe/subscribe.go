// Package subscribe implements ExpFinder's continuous-query subsystem: a
// client registers a pattern against a named graph once and from then on
// receives *match deltas* — the pairs that entered and left M(Q,G) — as
// updates stream into the graph, instead of re-polling full queries.
//
// The Hub is delivery only; it maintains no relation itself. The engine
// keeps one incremental matcher per standing query — registered,
// subscribed, or both — repairs it in place on every mutation, and then
// calls Publish with a lookup of each pattern's current relation:
//
//   - Subscriptions sharing a (graph, pattern) are grouped so each distinct
//     standing query is diffed, ranked and revisioned once per publish no
//     matter how many clients watch it.
//   - Every subscription owns a bounded delta buffer. A subscriber that
//     consumes too slowly never blocks the update path or grows memory
//     without bound: on overflow the buffered backlog is replaced by a
//     single resync snapshot of the current relation, from which deltas
//     resume.
//   - Rapid update bursts coalesce: consecutive unconsumed delta events
//     merge into one, with add/remove pairs cancelling, so a subscriber
//     waking late reads the net effect, not the full history.
//   - The protocol is deterministic: a subscriber first receives a snapshot
//     of the current relation (Kind == Snapshot), then deltas in revision
//     order. Applying the events in sequence (see Mirror) reconstructs a
//     relation identical to a fresh batch evaluation on the final graph —
//     property-tested in this package and in internal/engine.
//
// The Hub performs no locking of the data graph itself: callers (the
// engine) pass the graph into Subscribe and Publish while holding that
// graph's lock, so the relations they hand over and the ranking read a
// stable graph.
package subscribe

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
)

// Subscription errors.
var (
	// ErrClosed is returned by Next once a subscription is closed and its
	// buffered events are drained.
	ErrClosed = errors.New("subscribe: subscription closed")
	// ErrNoSubscription is returned for unknown subscription ids.
	ErrNoSubscription = errors.New("subscribe: no such subscription")
	// ErrGraphRemoved closes subscriptions whose graph was dropped.
	ErrGraphRemoved = errors.New("subscribe: graph removed")
)

// Kind discriminates subscription events.
type Kind string

// Event kinds.
const (
	// Snapshot carries the full current relation. The first event of
	// every subscription is a snapshot; later snapshots only appear as
	// overflow resyncs (Event.Resync).
	Snapshot Kind = "snapshot"
	// Delta carries the pairs added to and removed from the relation.
	Delta Kind = "delta"
)

// Event is one notification to a subscriber. Seq is the revision of the
// standing query's relation the event brings the subscriber up to:
// revisions increase by one per published delta, and a snapshot's Seq
// names the revision it captures. After coalescing, a delta's Seq is the
// newest revision folded into it.
type Event struct {
	Seq     uint64
	Kind    Kind
	Pairs   []match.Pair // Snapshot: the full relation, sorted
	Added   []match.Pair // Delta: pairs that entered, sorted
	Removed []match.Pair // Delta: pairs that left, sorted
	// TopK is the re-ranked top-K experts of the output node, present on
	// every event when Options.K > 0.
	TopK []rank.Ranked
	// Resync marks a snapshot that replaced an overflowed delta backlog:
	// the subscriber missed individual deltas and must reset to Pairs.
	Resync bool
}

// Options configures one subscription.
type Options struct {
	// K re-ranks the top-K experts of the pattern's output node on every
	// event (k best, lower rank first). 0 disables ranking — events then
	// carry only relation deltas, which is much cheaper.
	K int
	// Buffer bounds the unconsumed events held for this subscription.
	// When full, the backlog collapses into one resync snapshot. <= 0
	// means DefaultBuffer.
	Buffer int
	// NoCoalesce disables merging of consecutive unconsumed deltas.
	// With coalescing (the default) a slow subscriber reads the net
	// effect of a burst; without it, every published delta is preserved
	// until the buffer overflows.
	NoCoalesce bool
}

// DefaultBuffer is the per-subscription event-buffer capacity when
// Options.Buffer is unset.
const DefaultBuffer = 64

// Subscription is one client's handle on a standing query. Events are
// consumed with Next (blocking) or Poll (non-blocking); the Hub pushes
// into the buffer as updates are applied. Safe for concurrent use,
// though events are delivered to whichever consumer asks first.
type Subscription struct {
	id    string
	graph string
	hash  string
	q     *pattern.Pattern
	opts  Options

	mu        sync.Mutex
	buf       []Event
	closed    bool
	closeErr  error
	notify    chan struct{}
	delivered uint64
	resyncs   uint64
	coalesced uint64
}

// ID returns the hub-assigned subscription id.
func (s *Subscription) ID() string { return s.id }

// GraphName returns the name of the subscribed graph.
func (s *Subscription) GraphName() string { return s.graph }

// PatternHash returns the standing query's hash (subscriptions with equal
// hashes on one graph share one group, and one matcher in the engine).
func (s *Subscription) PatternHash() string { return s.hash }

// Pattern returns the standing query. The returned pattern is shared and
// must not be mutated.
func (s *Subscription) Pattern() *pattern.Pattern { return s.q }

// Next blocks until an event is available, the subscription closes, or
// done is closed (nil done never cancels). Buffered events are drained
// before a close error is reported.
func (s *Subscription) Next(done <-chan struct{}) (Event, error) {
	for {
		s.mu.Lock()
		if ev, ok := s.pop(); ok {
			s.mu.Unlock()
			return ev, nil
		}
		if s.closed {
			err := s.closeErr
			s.mu.Unlock()
			return Event{}, err
		}
		s.mu.Unlock()
		select {
		case <-s.notify:
		case <-done:
			return Event{}, errors.New("subscribe: wait cancelled")
		}
	}
}

// Poll returns the next buffered event without blocking; ok is false when
// the buffer is empty. A closed subscription still drains its buffer.
func (s *Subscription) Poll() (ev Event, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pop()
}

// pop dequeues the oldest buffered event under s.mu, which the caller
// holds. It re-signals while events remain, so a second blocked Next is
// not stranded on the 1-slot notify channel (a closed subscription's
// channel is closed and wakes everyone anyway).
func (s *Subscription) pop() (ev Event, ok bool) {
	if len(s.buf) == 0 {
		return Event{}, false
	}
	ev = s.buf[0]
	s.buf = append(s.buf[:0], s.buf[1:]...)
	s.delivered++
	if len(s.buf) > 0 && !s.closed {
		s.wake()
	}
	return ev, true
}

// Closed reports whether the hub has closed the subscription (its buffer
// may still hold undelivered events) and the terminal error, if any.
func (s *Subscription) Closed() (bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed, s.closeErr
}

// wake nudges one blocked Next without ever blocking the publisher.
func (s *Subscription) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// push appends ev, coalescing into the last unconsumed delta when allowed
// and collapsing to nothing when the buffer is full (the caller then
// resyncs). Returns false on overflow.
func (s *Subscription) push(ev Event) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return true // silently dropped; the subscriber is gone
	}
	if ev.Kind == Delta && !s.opts.NoCoalesce && len(s.buf) > 0 {
		if last := &s.buf[len(s.buf)-1]; last.Kind == Delta {
			*last = mergeDeltas(*last, ev)
			s.coalesced++
			s.wake()
			return true
		}
	}
	if len(s.buf) >= s.bufferCap() {
		return false
	}
	s.buf = append(s.buf, ev)
	s.wake()
	return true
}

// resync replaces the entire backlog with one snapshot event.
func (s *Subscription) resync(snap Event) {
	snap.Resync = true
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.buf = append(s.buf[:0], snap)
	s.resyncs++
	s.wake()
}

func (s *Subscription) bufferCap() int {
	if s.opts.Buffer > 0 {
		return s.opts.Buffer
	}
	return DefaultBuffer
}

// close marks the subscription terminal. Buffered events stay readable.
func (s *Subscription) close(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	s.closeErr = err
	close(s.notify)
}

// Info is a subscription's observable state, for listings and wire APIs.
type Info struct {
	ID          string `json:"id"`
	Graph       string `json:"graph"`
	PatternHash string `json:"pattern_hash"`
	Buffered    int    `json:"buffered"`
	Delivered   uint64 `json:"delivered"`
	Resyncs     uint64 `json:"resyncs"`
	Coalesced   uint64 `json:"coalesced"`
	Closed      bool   `json:"closed"`
}

// Info snapshots the subscription's counters.
func (s *Subscription) Info() Info {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Info{
		ID: s.id, Graph: s.graph, PatternHash: s.hash,
		Buffered: len(s.buf), Delivered: s.delivered,
		Resyncs: s.resyncs, Coalesced: s.coalesced, Closed: s.closed,
	}
}

// mergeDeltas folds next into prev: pairs that were added then removed (or
// vice versa) cancel; the merged event advances to next's Seq and carries
// its ranking.
func mergeDeltas(prev, next Event) Event {
	added := make(map[match.Pair]bool, len(prev.Added)+len(next.Added))
	removed := make(map[match.Pair]bool, len(prev.Removed)+len(next.Removed))
	for _, p := range prev.Added {
		added[p] = true
	}
	for _, p := range prev.Removed {
		removed[p] = true
	}
	for _, p := range next.Added {
		if removed[p] {
			delete(removed, p)
		} else {
			added[p] = true
		}
	}
	for _, p := range next.Removed {
		if added[p] {
			delete(added, p)
		} else {
			removed[p] = true
		}
	}
	return Event{
		Seq: next.Seq, Kind: Delta,
		Added: sortedPairs(added), Removed: sortedPairs(removed),
		TopK: next.TopK,
	}
}

func sortedPairs(set map[match.Pair]bool) []match.Pair {
	if len(set) == 0 {
		return nil
	}
	out := make([]match.Pair, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].PNode != out[j].PNode {
			return out[i].PNode < out[j].PNode
		}
		return out[i].Node < out[j].Node
	})
	return out
}

// group is one standing query on one graph: the last published
// (normalized) relation, the revision counter, and the subscriptions
// watching it.
type group struct {
	hash string
	q    *pattern.Pattern
	last *match.Relation // last published relation (normalized)
	rev  uint64
	subs map[string]*Subscription
}

// RelationOf resolves a standing query's pattern hash to its current
// relation, normalized. The engine passes a lookup into the matchers it
// keeps, so the hub reads the relation every other maintainer settled on.
type RelationOf func(hash string) *match.Relation

// maxK returns the largest K requested by the group's subscribers, so the
// ranking is computed once per publish at the widest cutoff.
func (gr *group) maxK() int {
	k := 0
	for _, s := range gr.subs {
		if s.opts.K > k {
			k = s.opts.K
		}
	}
	return k
}

// Stats aggregates hub counters.
type Stats struct {
	Subscriptions int    `json:"subscriptions"`
	Groups        int    `json:"groups"`
	Published     uint64 `json:"published"` // delta publishes (per group)
	Resyncs       uint64 `json:"resyncs"`   // overflow snapshots pushed
	Coalesced     uint64 `json:"coalesced"` // delta merges into unconsumed events
	// Backlog is the total of buffered, undelivered events across live
	// subscriptions — the health registry's slow-consumer signal.
	Backlog int `json:"backlog"`
}

// Hub is the subscription registry: it owns every live Subscription and
// the per-(graph, pattern) groups behind them. All methods are safe for
// concurrent use; methods taking a *graph.Graph additionally require the
// caller to hold that graph's lock (the engine's per-graph mutex) so the
// relations and rankings read a stable graph.
type Hub struct {
	mu     sync.Mutex
	nextID uint64
	groups map[string]map[string]*group // graph name -> pattern hash -> group
	subs   map[string]*Subscription

	published uint64
	resyncs   uint64
	coalesced uint64
}

// NewHub returns an empty registry.
func NewHub() *Hub {
	return &Hub{
		groups: map[string]map[string]*group{},
		subs:   map[string]*Subscription{},
	}
}

// Subscribe registers a standing query against graphName and returns the
// subscription, whose first buffered event is a snapshot of the current
// relation. Subscriptions with an equal pattern hash share one group; the
// first one asks relationOf for the relation to start from, later ones
// start from the group's last published relation, which every Publish
// keeps current. q must be valid (pattern.Validate).
func (h *Hub) Subscribe(graphName string, g *graph.Graph, q *pattern.Pattern, relationOf RelationOf, opts Options) *Subscription {
	h.mu.Lock()
	defer h.mu.Unlock()
	byHash, ok := h.groups[graphName]
	if !ok {
		byHash = map[string]*group{}
		h.groups[graphName] = byHash
	}
	hash := q.Hash()
	gr, ok := byHash[hash]
	if !ok {
		gr = &group{hash: hash, q: q.Clone(), last: relationOf(hash), subs: map[string]*Subscription{}}
		byHash[hash] = gr
	}
	h.nextID++
	s := &Subscription{
		id:     fmt.Sprintf("s%d", h.nextID),
		graph:  graphName,
		hash:   hash,
		q:      gr.q,
		opts:   opts,
		notify: make(chan struct{}, 1),
	}
	gr.subs[s.id] = s
	h.subs[s.id] = s
	s.push(h.snapshotLocked(gr, g, s.opts.K))
	return s
}

// Unsubscribe closes and removes a subscription; the last subscriber of a
// group releases the group.
func (h *Hub) Unsubscribe(id string) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSubscription, id)
	}
	delete(h.subs, id)
	s.mu.Lock()
	h.coalesced += s.coalesced
	s.mu.Unlock()
	s.close(ErrClosed)
	if byHash, ok := h.groups[s.graph]; ok {
		if gr, ok := byHash[s.hash]; ok {
			delete(gr.subs, id)
			if len(gr.subs) == 0 {
				delete(byHash, s.hash)
				if len(byHash) == 0 {
					delete(h.groups, s.graph)
				}
			}
		}
	}
	return nil
}

// Get resolves a subscription id.
func (h *Hub) Get(id string) (*Subscription, error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	s, ok := h.subs[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSubscription, id)
	}
	return s, nil
}

// List returns the subscriptions on graphName (every graph when empty),
// sorted by id.
func (h *Hub) List(graphName string) []Info {
	h.mu.Lock()
	subs := make([]*Subscription, 0, len(h.subs))
	for _, s := range h.subs {
		if graphName == "" || s.graph == graphName {
			subs = append(subs, s)
		}
	}
	h.mu.Unlock()
	out := make([]Info, len(subs))
	for i, s := range subs {
		out[i] = s.Info()
	}
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].ID) != len(out[j].ID) {
			return len(out[i].ID) < len(out[j].ID) // s2 < s10
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Publish fans out what the last mutation of graphName did to its
// standing queries: for every group on the graph, in pattern-hash order,
// it diffs relationOf(hash) against the last published relation and
// pushes the delta, if any, to each subscriber; a group relationOf knows
// nothing of (nil) is left alone. It returns the number of subscriptions
// notified. The caller holds g's lock and has already repaired the
// relations relationOf returns.
func (h *Hub) Publish(graphName string, g *graph.Graph, relationOf RelationOf) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	notified := 0
	for _, gr := range h.sortedGroups(graphName) {
		if cur := relationOf(gr.hash); cur != nil {
			notified += h.publishLocked(gr, g, cur)
		}
	}
	return notified
}

// Watched reports whether any live subscription on graphName watches the
// pattern with the given hash.
func (h *Hub) Watched(graphName, hash string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, ok := h.groups[graphName][hash]
	return ok
}

// CloseGraph closes every subscription on graphName with ErrGraphRemoved
// and drops its groups.
func (h *Hub) CloseGraph(graphName string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, gr := range h.groups[graphName] {
		for id, s := range gr.subs {
			s.mu.Lock()
			h.coalesced += s.coalesced
			s.mu.Unlock()
			s.close(ErrGraphRemoved)
			delete(h.subs, id)
		}
	}
	delete(h.groups, graphName)
}

// Stats snapshots the hub's counters.
func (h *Hub) Stats() Stats {
	h.mu.Lock()
	defer h.mu.Unlock()
	groups := 0
	for _, byHash := range h.groups {
		groups += len(byHash)
	}
	coalesced := h.coalesced // merges performed by since-removed subscriptions
	backlog := 0
	for _, s := range h.subs {
		s.mu.Lock()
		coalesced += s.coalesced
		backlog += len(s.buf)
		s.mu.Unlock()
	}
	return Stats{
		Subscriptions: len(h.subs), Groups: groups,
		Published: h.published, Resyncs: h.resyncs, Coalesced: coalesced, Backlog: backlog,
	}
}

// sortedGroups returns graphName's groups in pattern-hash order so event
// fan-out is deterministic.
func (h *Hub) sortedGroups(graphName string) []*group {
	byHash := h.groups[graphName]
	if len(byHash) == 0 {
		return nil
	}
	hashes := make([]string, 0, len(byHash))
	for hash := range byHash {
		hashes = append(hashes, hash)
	}
	sort.Strings(hashes)
	out := make([]*group, len(hashes))
	for i, hash := range hashes {
		out[i] = byHash[hash]
	}
	return out
}

// publishLocked diffs the group's current relation cur against the last
// published one and pushes the delta (if any) to every subscriber.
func (h *Hub) publishLocked(gr *group, g *graph.Graph, cur *match.Relation) int {
	added, removed := gr.last.Diff(cur)
	if len(added) == 0 && len(removed) == 0 {
		return 0
	}
	gr.last = cur
	gr.rev++
	h.published++
	var ranked []rank.Ranked
	if k := gr.maxK(); k > 0 {
		ranked = rank.TopK(g, gr.q, cur, k)
	}
	notified := 0
	for _, s := range gr.subs {
		ev := Event{Seq: gr.rev, Kind: Delta, Added: added, Removed: removed}
		if s.opts.K > 0 {
			ev.TopK = topSlice(ranked, s.opts.K)
		}
		if !s.push(ev) {
			s.resync(h.snapshotLocked(gr, g, s.opts.K))
			h.resyncs++
		}
		notified++
	}
	return notified
}

// snapshotLocked builds a snapshot event of the group's current relation.
func (h *Hub) snapshotLocked(gr *group, g *graph.Graph, k int) Event {
	ev := Event{Seq: gr.rev, Kind: Snapshot, Pairs: gr.last.Pairs()}
	if k > 0 {
		ev.TopK = rank.TopK(g, gr.q, gr.last, k)
	}
	return ev
}

func topSlice(ranked []rank.Ranked, k int) []rank.Ranked {
	if k > 0 && k < len(ranked) {
		ranked = ranked[:k]
	}
	return append([]rank.Ranked(nil), ranked...)
}
