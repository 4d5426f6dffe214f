// Package cache is the one place ExpFinder's query engine remembers an
// answer: per (graph identity, graph version, pattern hash, semantics) one
// immutable Entry holding M(Q,G), the full ranking and the relation's
// encoded "matches" object, under LRU eviction against a single byte
// budget. Entry.Bytes charges what all three occupy: the relation's
// estimate (match.Relation.ApproxBytes), 24 bytes per ranked match, and
// len(Matches), the encoded bytes every response to the answer writes as
// they are. One enormous result cannot masquerade as cheap the way it
// could under entry-count accounting. The result graph the ranking was
// computed over is not kept: no hit of the default ranking reads it, and
// the few callers that do (a re-rank by another metric, a DOT render)
// rebuild it from the relation, exactly, on the graph version the key
// names. Nothing is copied in or out: Store freezes the relation and
// every hit hands out the same pointers. An entry is valid only while the graph version matches, and
// the engine drops a graph's entries (InvalidateGraph) on every write that
// reaches it, so the superseded versions no query can name do not hold the
// budget until eviction.
package cache

import (
	"container/list"
	"sync"

	"expfinder/internal/match"
	"expfinder/internal/rank"
)

// Key identifies a cached result. Epoch distinguishes graph *instances*
// registered under the same name: without it, a graph removed and
// re-added under its old name could collide with stale entries (versions
// are per-graph mutation counters, so they restart and can repeat).
// Semantics' zero value is bounded simulation, so a key that does not name
// one means what it meant before dual answers were cached.
type Key struct {
	GraphName    string
	Epoch        uint64
	GraphVersion uint64
	PatternHash  string
	Semantics    match.Semantics
}

// Stats reports cache effectiveness and occupancy.
type Stats struct {
	Hits, Misses, Evictions int
	Entries                 int
	// Bytes is the accounted footprint of all resident entries (relation,
	// ranking and encoded matches); BudgetBytes is the eviction threshold.
	Bytes       int64
	BudgetBytes int64
}

// DefaultBudget is the byte budget used when a caller passes a
// non-positive one: 64 MiB, roughly the footprint of a few hundred
// mid-size answers.
const DefaultBudget int64 = 64 << 20

// rankedBytes is the size of one rank.Ranked (id, score, count; padded).
const rankedBytes = 24

// Cache is a byte-budgeted LRU of query results, safe for concurrent
// use. The newest entry is always admitted — even one larger than the
// whole budget — so a hot oversized result still short-circuits its
// recomputation; it is simply the first casualty of the next insert.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	bytes   int64
	ll      *list.List
	items   map[Key]*list.Element
	hits    int
	misses  int
	evicted int
}

// Entry is one query's whole answer. It is immutable once stored: every
// lookup of its key returns this same pointer, and holders only read.
type Entry struct {
	Relation *match.Relation
	Ranking  []rank.Ranked // every match of the output node, best first; nil through Put
	// Matches is Relation encoded once by match.Relation.AppendJSON for
	// the pattern the key hashes; nil through Put. Holders share it and
	// only read it.
	Matches []byte
	// Bytes is what the entry is charged against the budget, set by Store.
	Bytes int64

	key Key
}

// New returns a cache evicting LRU-first once the accounted entry bytes
// exceed budgetBytes (DefaultBudget if non-positive).
func New(budgetBytes int64) *Cache {
	if budgetBytes <= 0 {
		budgetBytes = DefaultBudget
	}
	return &Cache{
		budget: budgetBytes,
		ll:     list.New(),
		items:  map[Key]*list.Element{},
	}
}

// Lookup returns the entry stored under key, if present.
func (c *Cache) Lookup(key Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*Entry), true
}

// Store freezes en's relation, charges en its bytes and publishes it under
// key (replacing any previous entry), evicting least recently used entries
// until the byte budget holds again. The entry just stored is never
// evicted by its own insert. The caller must not modify en afterwards.
func (c *Cache) Store(key Key, en *Entry) {
	en.Relation.Freeze()
	en.key = key
	en.Bytes = en.Relation.ApproxBytes() + int64(len(en.Ranking))*rankedBytes + int64(len(en.Matches))
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.bytes -= el.Value.(*Entry).Bytes
		el.Value = en
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(en)
	}
	c.bytes += en.Bytes
	c.evictOver()
}

// Get is Lookup for callers that want only the relation.
func (c *Cache) Get(key Key) (*match.Relation, bool) {
	if en, ok := c.Lookup(key); ok {
		return en.Relation, true
	}
	return nil, false
}

// Put is Store for callers that have only the relation.
func (c *Cache) Put(key Key, rel *match.Relation) { c.Store(key, &Entry{Relation: rel}) }

// evictOver drops LRU entries while over budget, sparing the newest.
// Callers hold c.mu.
func (c *Cache) evictOver() {
	for c.bytes > c.budget && c.ll.Len() > 1 {
		oldest := c.ll.Back()
		en := oldest.Value.(*Entry)
		c.ll.Remove(oldest)
		delete(c.items, en.key)
		c.bytes -= en.Bytes
		c.evicted++
	}
}

// InvalidateGraph drops every entry for the named graph (any version).
// The engine calls it under the graph's write lock on every write that
// reaches the graph and when the graph is removed.
func (c *Cache) InvalidateGraph(graphName string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if en := el.Value.(*Entry); en.key.GraphName == graphName {
			c.ll.Remove(el)
			delete(c.items, en.key)
			c.bytes -= en.Bytes
		}
		el = next
	}
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits: c.hits, Misses: c.misses, Evictions: c.evicted,
		Entries: c.ll.Len(), Bytes: c.bytes, BudgetBytes: c.budget,
	}
}
