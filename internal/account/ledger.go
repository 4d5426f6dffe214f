// Package account is the aggregate layer over the trace pipeline: it
// answers "who is spending the machine, are we meeting our latency
// objectives, and is the process healthy" — the three questions the
// per-request spans and per-plan summaries cannot, because they see
// one query at a time.
//
// Three pieces, all bounded and all fed from data the serving tier
// already has in hand when a request finishes:
//
//   - Ledger charges every finished request to its client (the same
//     X-Client-ID/remote-host key the rate limiter uses): wall time,
//     queue wait, bytes out, cache bytes served vs. computed,
//     candidate/removal work, WAL bytes. Aggregates are rolling
//     time-sliced windows plus exact since-boot totals, with a top-K
//     client bound and an "other" bucket so cardinality never grows
//     with the client population.
//   - SLO tracks per-route-class availability and latency-objective
//     attainment over the same sliced windows and renders multi-window
//     burn rates against configurable targets.
//   - Health rolls per-component probes (replication lag, checkpoint
//     age, WAL growth, admission queue, subscription backlog) up into
//     one ok|degraded|unhealthy verdict with per-component reasons.
//
// Everything here observes finished requests and never steers query
// evaluation, so answers do not depend on it.
package account

import (
	"sort"
	"sync"
	"time"

	"expfinder/internal/trace"
)

// OtherClient is the fold bucket for clients beyond the top-K bound.
// It reconciles exactly: for every Usage field, the global total
// equals the sum over tracked clients plus this bucket.
const OtherClient = "other"

// sliceDur is the rolling-window granularity: charges land in 10s
// slices, so a "1m" window is the last 6 slices and "1h" the last 360.
const sliceDur = 10 * time.Second

// numSlices sizes the slice ring: one hour of 10s slices plus slack so
// the oldest slice of a full 1h window is never the one being reused.
const numSlices = 368

// defaultMaxClients bounds distinct tracked clients when the caller
// passes 0.
const defaultMaxClients = 32

// Charge is one finished request's bill. Wall/Status/BytesOut come
// from the middleware; Queue and the cost fields below it come from
// the request's trace when one exists (AddTrace) — untraced requests
// are still charged their wall time, status, and bytes.
type Charge struct {
	Client   string
	Route    string
	Status   int
	Wall     time.Duration
	BytesOut int64

	// Queue is time spent waiting for slots of the engine's execution
	// pool, from the admission.wait spans: one per query or batch entry,
	// or one for the whole request on every other admitted route.
	Queue time.Duration
	// CacheBytesServed is result bytes answered from the cache;
	// CacheBytesComputed is result bytes the engine had to evaluate.
	CacheBytesServed   int64
	CacheBytesComputed int64
	// Candidates is summed match-relation sizes (the engine.query
	// "matches" attribute); Removals is BSP refinement work from
	// partitioned plans.
	Candidates int64
	Removals   int64
	// WALBytes is bytes appended to the write-ahead log on behalf of
	// this request.
	WALBytes int64
}

// AddTrace folds the cost counters a finished trace carries into the
// charge: queue-wait spans, cache hit bytes, computed result bytes,
// candidate/removal work, and WAL appends. Nil traces are ignored.
func (c *Charge) AddTrace(tj *trace.TraceJSON) {
	if tj == nil {
		return
	}
	tj.Walk(func(sp *trace.SpanJSON) {
		switch sp.Name {
		case "admission.wait":
			c.Queue += time.Duration(sp.DurationUS) * time.Microsecond
		case "engine.query":
			c.Candidates += attrInt(sp.Attrs, "matches")
			c.CacheBytesComputed += attrInt(sp.Attrs, "result_bytes")
		case "cache.lookup":
			if attrBool(sp.Attrs, "hit") {
				c.CacheBytesServed += attrInt(sp.Attrs, "bytes")
			}
		case "eval.partitioned":
			c.Removals += attrInt(sp.Attrs, "removals")
		case "wal.append":
			c.WALBytes += attrInt(sp.Attrs, "bytes")
		}
	})
}

// attrInt reads an integer span attribute. In-process attributes are
// int64; attributes that round-tripped through JSON are float64.
func attrInt(attrs map[string]any, key string) int64 {
	switch v := attrs[key].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	case int:
		return int64(v)
	}
	return 0
}

func attrBool(attrs map[string]any, key string) bool {
	b, _ := attrs[key].(bool)
	return b
}

// Usage is one aggregation bucket: a client's accumulated bill over a
// window or since boot. Every field is additive, so buckets merge by
// field-wise sum and the global/per-client reconciliation invariant is
// exact.
type Usage struct {
	Requests int64 `json:"requests"`
	// Errors counts 5xx responses; Shed the 503s among them;
	// RateLimited the 429s.
	Errors      int64 `json:"errors,omitempty"`
	Shed        int64 `json:"shed,omitempty"`
	RateLimited int64 `json:"rate_limited,omitempty"`
	WallUS      int64 `json:"wall_us"`
	QueueUS     int64 `json:"queue_us,omitempty"`
	BytesOut    int64 `json:"bytes_out"`

	CacheBytesServed   int64 `json:"cache_bytes_served,omitempty"`
	CacheBytesComputed int64 `json:"cache_bytes_computed,omitempty"`
	Candidates         int64 `json:"candidates,omitempty"`
	Removals           int64 `json:"removals,omitempty"`
	WALBytes           int64 `json:"wal_bytes,omitempty"`
}

// add accumulates v into u field-wise.
func (u *Usage) add(v Usage) {
	u.Requests += v.Requests
	u.Errors += v.Errors
	u.Shed += v.Shed
	u.RateLimited += v.RateLimited
	u.WallUS += v.WallUS
	u.QueueUS += v.QueueUS
	u.BytesOut += v.BytesOut
	u.CacheBytesServed += v.CacheBytesServed
	u.CacheBytesComputed += v.CacheBytesComputed
	u.Candidates += v.Candidates
	u.Removals += v.Removals
	u.WALBytes += v.WALBytes
}

// usage converts a charge into its additive bucket delta.
func (c Charge) usage() Usage {
	u := Usage{
		Requests:           1,
		WallUS:             c.Wall.Microseconds(),
		QueueUS:            c.Queue.Microseconds(),
		BytesOut:           c.BytesOut,
		CacheBytesServed:   c.CacheBytesServed,
		CacheBytesComputed: c.CacheBytesComputed,
		Candidates:         c.Candidates,
		Removals:           c.Removals,
		WALBytes:           c.WALBytes,
	}
	if c.Status >= 500 {
		u.Errors = 1
	}
	if c.Status == 503 {
		u.Shed = 1
	}
	if c.Status == 429 {
		u.RateLimited = 1
	}
	return u
}

// ClientUsage is one client's bucket in a snapshot.
type ClientUsage struct {
	Client string `json:"client"`
	Usage
}

// ledgerSlice is one 10-second window slice: bounded per-client
// buckets plus the fold bucket.
type ledgerSlice struct {
	epoch   int64
	clients map[string]*Usage
	other   Usage
}

// Ledger is the per-client resource accountant. Safe for concurrent use.
type Ledger struct {
	mu         sync.Mutex
	maxClients int
	now        func() time.Time

	slices [numSlices]ledgerSlice

	// Since-boot totals: the exact reconciliation surface. For every
	// field, total == sum(byClient) + other.
	total    Usage
	byClient map[string]*Usage
	other    Usage
}

// NewLedger returns a ledger tracking at most maxClients distinct
// clients (<= 0 means the default 32); the rest fold into OtherClient.
func NewLedger(maxClients int) *Ledger {
	if maxClients <= 0 {
		maxClients = defaultMaxClients
	}
	return &Ledger{
		maxClients: maxClients,
		now:        time.Now,
		byClient:   map[string]*Usage{},
	}
}

// Charge bills one finished request to its client.
func (l *Ledger) Charge(c Charge) {
	if c.Client == "" {
		c.Client = "unknown"
	}
	u := c.usage()
	l.mu.Lock()
	defer l.mu.Unlock()

	epoch := l.now().UnixNano() / int64(sliceDur)
	s := &l.slices[epoch%numSlices]
	if s.epoch != epoch {
		s.epoch = epoch
		s.clients = map[string]*Usage{}
		s.other = Usage{}
	}
	chargeInto(s.clients, &s.other, l.maxClients, c.Client, u)

	l.total.add(u)
	chargeInto(l.byClient, &l.other, l.maxClients, c.Client, u)
}

// chargeInto adds u to the client's bucket in m, creating it while
// under the bound and folding into other past it.
func chargeInto(m map[string]*Usage, other *Usage, bound int, client string, u Usage) {
	b, ok := m[client]
	if !ok {
		if len(m) >= bound {
			other.add(u)
			return
		}
		b = &Usage{}
		m[client] = b
	}
	b.add(u)
}

// Snapshot merges the slices covering the trailing window into
// per-client buckets, heaviest wall time first, folding any tail
// beyond the client bound into OtherClient. A zero window means the
// since-boot totals.
func (l *Ledger) Snapshot(window time.Duration) []ClientUsage {
	l.mu.Lock()
	merged, other := l.mergeLocked(window)
	bound := l.maxClients
	l.mu.Unlock()

	out := make([]ClientUsage, 0, len(merged))
	for client, u := range merged {
		out = append(out, ClientUsage{Client: client, Usage: *u})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WallUS != out[j].WallUS {
			return out[i].WallUS > out[j].WallUS
		}
		return out[i].Client < out[j].Client
	})
	for len(out) > bound {
		last := out[len(out)-1]
		out = out[:len(out)-1]
		other.add(last.Usage)
	}
	if other != (Usage{}) {
		out = append(out, ClientUsage{Client: OtherClient, Usage: other})
	}
	return out
}

// Totals returns the exact since-boot global aggregate: the sum of
// every charge ever billed, regardless of client folding.
func (l *Ledger) Totals() Usage {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.total
}

// mergeLocked merges window slices (or the boot totals when window is
// 0) into a fresh per-client map plus the fold bucket.
func (l *Ledger) mergeLocked(window time.Duration) (map[string]*Usage, Usage) {
	merged := map[string]*Usage{}
	var other Usage
	if window <= 0 {
		for client, u := range l.byClient {
			cp := *u
			merged[client] = &cp
		}
		return merged, l.other
	}
	n := int64(window / sliceDur)
	if n < 1 {
		n = 1
	}
	nowEpoch := l.now().UnixNano() / int64(sliceDur)
	for i := range l.slices {
		s := &l.slices[i]
		if s.epoch == 0 || s.epoch <= nowEpoch-n || s.epoch > nowEpoch {
			continue
		}
		for client, u := range s.clients {
			b, ok := merged[client]
			if !ok {
				b = &Usage{}
				merged[client] = b
			}
			b.add(*u)
		}
		other.add(s.other)
	}
	return merged, other
}

// Heaviest returns the client with the largest wall-time share of the
// trailing window and that share in [0,1]. The fold bucket is part of
// the denominator but never the answer; an idle window returns ("", 0).
func (l *Ledger) Heaviest(window time.Duration) (string, float64) {
	l.mu.Lock()
	merged, other := l.mergeLocked(window)
	l.mu.Unlock()

	var denom int64 = other.WallUS
	var best string
	var bestUS int64
	for client, u := range merged {
		denom += u.WallUS
		if u.WallUS > bestUS || (u.WallUS == bestUS && (best == "" || client < best)) {
			best, bestUS = client, u.WallUS
		}
	}
	if denom <= 0 || bestUS <= 0 {
		return "", 0
	}
	return best, float64(bestUS) / float64(denom)
}
