// Package trace is a dependency-free, context-propagated span tracer
// for the query path: the engine and its subsystems open spans around
// their stages (plan selection, fixpoint refinement, oracle probes,
// BSP supersteps, cache lookups, WAL appends) and attach the counters
// their stats structs already keep, producing a per-request EXPLAIN
// ANALYZE tree the serving tier returns inline, keeps in a bounded
// ring of recent traces, feeds to a threshold-based slow-query log,
// and aggregates into per-plan/per-stage histograms.
//
// The design optimizes for the disabled case: a request that is not
// sampled (and did not force tracing) carries no trace in its context,
// StartSpan returns a nil *Span after one context lookup, and every
// method of a nil *Span is a no-op — no allocation, no branch beyond
// the nil check. Instrumentation therefore never needs its own "is
// tracing on" flag, and results are byte-identical either way because
// spans only observe, never steer.
//
// Concurrency: a trace's span tree may be grown from several
// goroutines (the engine's batch executor runs queries of one request
// concurrently), so all tree mutations take the owning trace's mutex.
// Sampling is deterministic — a counter mixed through a fixed hash —
// so a given request sequence always samples the same requests,
// keeping replays and tests reproducible.
package trace

import (
	"context"
	"log/slog"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key/value annotation on a span. Values are kept to
// JSON-friendly kinds (string, int64, float64, bool) by the setters.
type Attr struct {
	Key   string
	Value any
}

// Span is one timed stage of a trace. The zero of *Span (nil) is a
// valid no-op span: every method checks the receiver so instrumented
// code never branches on "is tracing enabled".
type Span struct {
	tr       *Trace
	name     string
	start    time.Time
	end      time.Time
	attrs    []Attr
	children []*Span
}

// Trace is one request's span tree plus its correlation identity.
type Trace struct {
	id     string
	name   string
	start  time.Time
	forced bool

	mu   sync.Mutex
	root *Span
}

// ID returns the correlation id the trace was started with (the
// serving tier passes its request id).
func (t *Trace) ID() string { return t.id }

// Forced reports whether the trace was requested explicitly
// (?trace=1 / X-Trace: 1) rather than picked up by sampling.
func (t *Trace) Forced() bool { return t.forced }

// Root returns the root span.
func (t *Trace) Root() *Span { return t.root }

// ctxKey is the private context key carrying the active *Span.
type ctxKey struct{}

// contextKey is the single instance used for Value lookups.
var contextKey ctxKey

// SpanFrom returns the active span of ctx, or nil when the request is
// untraced. The nil return is usable directly: all *Span methods are
// nil-safe.
func SpanFrom(ctx context.Context) *Span {
	sp, _ := ctx.Value(contextKey).(*Span)
	return sp
}

// ActiveTrace returns the trace ctx participates in, or nil.
func ActiveTrace(ctx context.Context) *Trace {
	if sp := SpanFrom(ctx); sp != nil {
		return sp.tr
	}
	return nil
}

// withSpan derives a context carrying sp as the active span.
func withSpan(ctx context.Context, sp *Span) context.Context {
	return context.WithValue(ctx, contextKey, sp)
}

// StartSpan opens a child span under ctx's active span and returns a
// derived context carrying it. On an untraced context it returns ctx
// unchanged and a nil span — one Value lookup, zero allocations.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := SpanFrom(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.StartChild(name)
	return withSpan(ctx, sp), sp
}

// StartChild opens a child span directly (for callers that manage
// their own nesting and do not need context propagation).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	child := &Span{tr: s.tr, name: name, start: time.Now()}
	s.tr.mu.Lock()
	s.children = append(s.children, child)
	s.tr.mu.Unlock()
	return child
}

// End closes the span. Ending twice keeps the first end time; a span
// never ended reads as still-open (its snapshot duration runs to the
// snapshot instant).
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	s.tr.mu.Unlock()
}

// SetInt attaches an integer attribute.
func (s *Span) SetInt(key string, v int64) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Value: v})
}

// SetStr attaches a string attribute.
func (s *Span) SetStr(key, v string) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Value: v})
}

// SetBool attaches a boolean attribute.
func (s *Span) SetBool(key string, v bool) {
	if s == nil {
		return
	}
	s.set(Attr{Key: key, Value: v})
}

func (s *Span) set(a Attr) {
	s.tr.mu.Lock()
	s.attrs = append(s.attrs, a)
	s.tr.mu.Unlock()
}

// SpanJSON is the wire snapshot of one span: times as microsecond
// offsets from the trace start so the tree is compact and immediately
// comparable to the response's elapsed_us.
type SpanJSON struct {
	Name       string         `json:"name"`
	StartUS    int64          `json:"start_us"`
	DurationUS int64          `json:"duration_us"`
	Attrs      map[string]any `json:"attrs,omitempty"`
	Children   []*SpanJSON    `json:"children,omitempty"`
}

// Int reads an integer attribute: int64 as Span.SetInt stores it, float64
// once the span has round-tripped through JSON. Anything else reads 0.
func (sp *SpanJSON) Int(key string) int64 {
	switch v := sp.Attrs[key].(type) {
	case int64:
		return v
	case float64:
		return int64(v)
	}
	return 0
}

// Str reads a string attribute, "" when absent.
func (sp *SpanJSON) Str(key string) string {
	v, _ := sp.Attrs[key].(string)
	return v
}

// Bool reads a boolean attribute, false when absent.
func (sp *SpanJSON) Bool(key string) bool {
	v, _ := sp.Attrs[key].(bool)
	return v
}

// TraceJSON is the wire snapshot of a whole trace.
type TraceJSON struct {
	ID         string    `json:"id"`
	Name       string    `json:"name"`
	Start      time.Time `json:"start"`
	DurationUS int64     `json:"duration_us"`
	Root       *SpanJSON `json:"root"`
}

// Snapshot renders the trace as of now: open spans (including the
// root, before Finish) are measured up to the snapshot instant, so an
// inline EXPLAIN rendered mid-request still reports consistent stage
// totals.
func (t *Trace) Snapshot() *TraceJSON {
	if t == nil {
		return nil
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	root := t.root.snapshotLocked(t.start, now)
	return &TraceJSON{
		ID:         t.id,
		Name:       t.name,
		Start:      t.start,
		DurationUS: root.DurationUS,
		Root:       root,
	}
}

// snapshotLocked renders the subtree; the caller holds the trace lock.
func (s *Span) snapshotLocked(origin, now time.Time) *SpanJSON {
	end := s.end
	if end.IsZero() {
		end = now
	}
	out := &SpanJSON{
		Name:       s.name,
		StartUS:    s.start.Sub(origin).Microseconds(),
		DurationUS: end.Sub(s.start).Microseconds(),
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]any, len(s.attrs))
		for _, a := range s.attrs {
			out.Attrs[a.Key] = a.Value
		}
	}
	for _, c := range s.children {
		out.Children = append(out.Children, c.snapshotLocked(origin, now))
	}
	return out
}

// Walk visits every span of the snapshot tree, root first.
func (tj *TraceJSON) Walk(fn func(*SpanJSON)) {
	if tj == nil || tj.Root == nil {
		return
	}
	var rec func(*SpanJSON)
	rec = func(sp *SpanJSON) {
		fn(sp)
		for _, c := range sp.Children {
			rec(c)
		}
	}
	rec(tj.Root)
}

// Find returns the first span named name in depth-first order, or nil.
func (tj *TraceJSON) Find(name string) *SpanJSON {
	var found *SpanJSON
	tj.Walk(func(sp *SpanJSON) {
		if found == nil && sp.Name == name {
			found = sp
		}
	})
	return found
}

// SlowEntry is one slow-query log record. Trace is present when the
// request happened to be traced; the log itself does not depend on
// sampling — every request over the threshold is recorded.
type SlowEntry struct {
	ID     string `json:"id"`
	Route  string `json:"route"`
	Status int    `json:"status"`
	// Client identifies who sent the slow request (the serving tier's
	// client key: X-Client-ID when present, else the remote host), so a
	// slow-query investigation can go straight from log line to caller.
	Client     string     `json:"client,omitempty"`
	Time       time.Time  `json:"time"`
	DurationUS int64      `json:"duration_us"`
	Trace      *TraceJSON `json:"trace,omitempty"`
}

// Options configures a Tracer.
type Options struct {
	// Sample is the background sampling rate in [0,1]: the fraction of
	// requests traced without being asked. Forced traces (?trace=1)
	// bypass it. 0 disables background sampling entirely.
	Sample float64
	// SlowThreshold is the latency at or above which a finished
	// request enters the slow-query log; 0 disables the log.
	SlowThreshold time.Duration
	// RingSize bounds the recent-trace and slow-query rings
	// (default 64 each).
	RingSize int
	// Logger receives one slow_query record per slow query; nil
	// discards them.
	Logger *slog.Logger
}

// defaultRing is the ring capacity when Options.RingSize is 0.
const defaultRing = 64

// Tracer owns the sampling decision, the bounded ring of recent trace
// snapshots, and the slow-query log. A nil *Tracer is valid and never
// samples.
type Tracer struct {
	opts Options
	seq  atomic.Uint64

	mu     sync.Mutex
	recent ring[*TraceJSON]
	slow   ring[*SlowEntry]
}

// New returns a Tracer.
func New(opts Options) *Tracer {
	n := opts.RingSize
	if n <= 0 {
		n = defaultRing
	}
	if opts.Logger == nil {
		opts.Logger = slog.New(slog.DiscardHandler)
	}
	return &Tracer{opts: opts, recent: newRing[*TraceJSON](n), slow: newRing[*SlowEntry](n)}
}

// sampled decides deterministically whether the next request is
// traced: the request ordinal mixed through a fixed 64-bit hash,
// compared against the rate — no RNG state, reproducible across runs.
func (t *Tracer) sampled() bool {
	r := t.opts.Sample
	if r >= 1 {
		return true
	}
	if r <= 0 {
		return false
	}
	n := t.seq.Add(1) * 0x9E3779B97F4A7C15 // Fibonacci hashing constant
	return float64(n>>11) < r*float64(1<<53)
}

// Start begins a trace for the request (id, name) when forced or
// sampled, returning a context carrying the root span. Untraced (or
// nil-tracer) requests get ctx back unchanged and a nil trace.
func (t *Tracer) Start(ctx context.Context, id, name string, forced bool) (context.Context, *Trace) {
	if t == nil || (!forced && !t.sampled()) {
		return ctx, nil
	}
	tr := &Trace{id: id, name: name, start: time.Now(), forced: forced}
	tr.root = &Span{tr: tr, name: name, start: tr.start}
	return withSpan(ctx, tr.root), tr
}

// Finish closes the trace's root span, records the snapshot in the
// recent ring, and returns it. Nil-safe on both receivers.
func (t *Tracer) Finish(tr *Trace) *TraceJSON {
	if t == nil || tr == nil {
		return nil
	}
	tr.root.End()
	tj := tr.Snapshot()
	t.mu.Lock()
	t.recent.push(tj)
	t.mu.Unlock()
	return tj
}

// NoteSlow records a request in the slow-query log when it crossed
// the threshold, regardless of whether it was traced; tj may be nil.
// client is the serving tier's client identity for the request ("" when
// unknown). Returns true when the entry was recorded (the caller may
// want to log alongside). A zero threshold disables the log.
func (t *Tracer) NoteSlow(id, route, client string, status int, d time.Duration, tj *TraceJSON) bool {
	if t == nil || t.opts.SlowThreshold <= 0 || d < t.opts.SlowThreshold {
		return false
	}
	e := &SlowEntry{ID: id, Route: route, Status: status, Client: client, Time: time.Now(), DurationUS: d.Microseconds(), Trace: tj}
	t.mu.Lock()
	t.slow.push(e)
	t.mu.Unlock()
	t.opts.Logger.Warn("slow_query",
		"request_id", id, "route", route, "client", client, "status", status,
		"duration", d.Round(time.Microsecond), "threshold", t.opts.SlowThreshold,
		"traced", tj != nil)
	return true
}

// SlowThreshold returns the configured slow-query threshold.
func (t *Tracer) SlowThreshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.opts.SlowThreshold
}

// Recent returns the ring of recent trace snapshots, newest first.
func (t *Tracer) Recent() []*TraceJSON {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.recent.items()
}

// Slow returns the slow-query log entries, newest first.
func (t *Tracer) Slow() []*SlowEntry {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slow.items()
}

// ring is a fixed-capacity overwrite-oldest buffer.
type ring[T any] struct {
	buf  []T
	next int
	full bool
}

func newRing[T any](n int) ring[T] { return ring[T]{buf: make([]T, n)} }

func (r *ring[T]) push(v T) {
	r.buf[r.next] = v
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// items returns the contents newest first.
func (r *ring[T]) items() []T {
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]T, 0, n)
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.buf)
		}
		out = append(out, r.buf[idx])
	}
	return out
}
