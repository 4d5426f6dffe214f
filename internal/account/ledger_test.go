package account

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"expfinder/internal/trace"
)

// fakeClock is a settable clock for window tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time { return c.t }

func newTestLedger(maxClients int) (*Ledger, *fakeClock) {
	l := NewLedger(maxClients)
	c := &fakeClock{t: time.Unix(1_700_000_000, 0)}
	l.now = c.now
	return l, c
}

func TestLedgerChargeAndSnapshot(t *testing.T) {
	l, _ := newTestLedger(8)
	l.Charge(Charge{Client: "alice", Route: "query", Status: 200, Wall: 30 * time.Millisecond, BytesOut: 100})
	l.Charge(Charge{Client: "alice", Route: "query", Status: 503, Wall: time.Millisecond, BytesOut: 10})
	l.Charge(Charge{Client: "bob", Route: "query", Status: 429, Wall: 2 * time.Millisecond, BytesOut: 20})

	snap := l.Snapshot(time.Minute)
	if len(snap) != 2 {
		t.Fatalf("want 2 clients, got %+v", snap)
	}
	if snap[0].Client != "alice" {
		t.Fatalf("heaviest first: got %q", snap[0].Client)
	}
	a := snap[0].Usage
	if a.Requests != 2 || a.Errors != 1 || a.Shed != 1 || a.BytesOut != 110 {
		t.Fatalf("alice usage wrong: %+v", a)
	}
	if a.WallUS != 31_000 {
		t.Fatalf("alice wall: %d", a.WallUS)
	}
	b := snap[1].Usage
	if b.Requests != 1 || b.RateLimited != 1 || b.Errors != 0 {
		t.Fatalf("bob usage wrong: %+v", b)
	}
}

func TestLedgerTopKFoldsIntoOther(t *testing.T) {
	l, _ := newTestLedger(4)
	for i := 0; i < 20; i++ {
		l.Charge(Charge{Client: fmt.Sprintf("c%02d", i), Status: 200, Wall: time.Millisecond, BytesOut: 1})
	}
	snap := l.Snapshot(0)
	if len(snap) != 5 { // 4 tracked + other
		t.Fatalf("want 4 clients + other, got %d: %+v", len(snap), snap)
	}
	var other *ClientUsage
	for i := range snap {
		if snap[i].Client == OtherClient {
			other = &snap[i]
		}
	}
	if other == nil || other.Requests != 16 {
		t.Fatalf("other bucket wrong: %+v", other)
	}
	// The bound holds in the internal map too, not just the render.
	if len(l.byClient) != 4 {
		t.Fatalf("byClient grew past bound: %d", len(l.byClient))
	}
}

// TestLedgerReconciles is the reconciliation property: for any charge
// sequence, every field of the global total equals the field-wise sum
// over the snapshot's clients including the fold bucket — exactly, not
// within a tolerance.
func TestLedgerReconciles(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l, clk := newTestLedger(6)
	statuses := []int{200, 200, 200, 404, 429, 500, 503}
	for i := 0; i < 5000; i++ {
		l.Charge(Charge{
			Client:             fmt.Sprintf("client-%d", rng.Intn(40)),
			Status:             statuses[rng.Intn(len(statuses))],
			Wall:               time.Duration(rng.Intn(10_000)) * time.Microsecond,
			Queue:              time.Duration(rng.Intn(1000)) * time.Microsecond,
			BytesOut:           int64(rng.Intn(4096)),
			CacheBytesServed:   int64(rng.Intn(2048)),
			CacheBytesComputed: int64(rng.Intn(2048)),
			Candidates:         int64(rng.Intn(100)),
			Removals:           int64(rng.Intn(50)),
			WALBytes:           int64(rng.Intn(512)),
		})
		if rng.Intn(100) == 0 {
			clk.t = clk.t.Add(sliceDur)
		}
	}
	var sum Usage
	for _, cu := range l.Snapshot(0) {
		sum.add(cu.Usage)
	}
	if sum != l.Totals() {
		t.Fatalf("snapshot sum %+v != totals %+v", sum, l.Totals())
	}
	// The hour window saw every charge too (clock advanced < 1h).
	var hourSum Usage
	for _, cu := range l.Snapshot(time.Hour) {
		hourSum.add(cu.Usage)
	}
	if hourSum != l.Totals() {
		t.Fatalf("1h window sum %+v != totals %+v", hourSum, l.Totals())
	}
}

func TestLedgerWindowExpiry(t *testing.T) {
	l, clk := newTestLedger(8)
	l.Charge(Charge{Client: "old", Status: 200, Wall: time.Millisecond})
	clk.t = clk.t.Add(2 * time.Minute)
	l.Charge(Charge{Client: "new", Status: 200, Wall: time.Millisecond})

	minute := l.Snapshot(time.Minute)
	if len(minute) != 1 || minute[0].Client != "new" {
		t.Fatalf("1m window should only see the recent charge: %+v", minute)
	}
	hour := l.Snapshot(time.Hour)
	if len(hour) != 2 {
		t.Fatalf("1h window should see both: %+v", hour)
	}
	if total := l.Totals(); total.Requests != 2 {
		t.Fatalf("totals: %+v", total)
	}
}

func TestLedgerHeaviest(t *testing.T) {
	l, _ := newTestLedger(8)
	if c, s := l.Heaviest(time.Minute); c != "" || s != 0 {
		t.Fatalf("idle ledger: got %q %v", c, s)
	}
	l.Charge(Charge{Client: "big", Status: 200, Wall: 75 * time.Millisecond})
	l.Charge(Charge{Client: "small", Status: 200, Wall: 25 * time.Millisecond})
	c, share := l.Heaviest(time.Minute)
	if c != "big" {
		t.Fatalf("heaviest: %q", c)
	}
	if share < 0.74 || share > 0.76 {
		t.Fatalf("share: %v", share)
	}
}

// span builds a test SpanJSON tree node.
func span(name string, durUS int64, attrs map[string]any, children ...*trace.SpanJSON) *trace.SpanJSON {
	return &trace.SpanJSON{Name: name, DurationUS: durUS, Attrs: attrs, Children: children}
}

func TestChargeAddTrace(t *testing.T) {
	tj := &trace.TraceJSON{
		ID: "r1", Name: "query",
		Root: span("query", 5000, nil,
			span("admission.wait", 120, nil),
			span("engine.query", 4000, map[string]any{"matches": int64(42), "result_bytes": int64(2048)},
				span("cache.lookup", 5, map[string]any{"hit": false}),
				span("eval.partitioned", 3500, map[string]any{"removals": int64(17)}),
			),
			span("engine.query", 300, map[string]any{"matches": int64(7)},
				span("cache.lookup", 5, map[string]any{"hit": true, "bytes": int64(512)}),
			),
			span("wal.append", 50, map[string]any{"bytes": int64(333)}),
		),
	}
	var c Charge
	c.AddTrace(tj)
	if c.Queue != 120*time.Microsecond {
		t.Fatalf("queue: %v", c.Queue)
	}
	if c.Candidates != 49 || c.Removals != 17 {
		t.Fatalf("work: %+v", c)
	}
	if c.CacheBytesComputed != 2048 || c.CacheBytesServed != 512 {
		t.Fatalf("cache bytes: %+v", c)
	}
	if c.WALBytes != 333 {
		t.Fatalf("wal: %+v", c)
	}
	// Attributes that round-tripped through JSON arrive as float64.
	var c2 Charge
	c2.AddTrace(&trace.TraceJSON{Root: span("q", 0, nil,
		span("engine.query", 0, map[string]any{"matches": float64(5), "result_bytes": float64(100)}))})
	if c2.Candidates != 5 || c2.CacheBytesComputed != 100 {
		t.Fatalf("float attrs: %+v", c2)
	}
	// Nil trace is a no-op.
	var c3 Charge
	c3.AddTrace(nil)
	if c3 != (Charge{}) {
		t.Fatal("nil trace charged something")
	}
}
