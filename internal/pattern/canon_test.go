package pattern

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"expfinder/internal/graph"
)

// fmtCanon is Pattern.Canon as it was written with fmt; every cache key,
// registered hash and /register response was made from it, so the
// append-based Canon must render the same bytes.
func fmtCanon(p *Pattern) string {
	var b strings.Builder
	for i, n := range p.nodes {
		fmt.Fprintf(&b, "n%d:%s:%s;", i, n.Name, fmtPredCanon(n.Pred))
	}
	for _, e := range p.edges {
		fmt.Fprintf(&b, "e%d>%d@%d;", e.From, e.To, e.Bound)
	}
	fmt.Fprintf(&b, "out%d", p.output)
	return b.String()
}

func fmtPredCanon(p Predicate) string {
	parts := make([]string, len(p.Conds))
	for i, c := range p.Conds {
		parts[i] = fmt.Sprintf("%s|%d|%s", c.Attr, c.Op, valueCanon(c.Value))
	}
	for i := 1; i < len(parts); i++ {
		for j := i; j > 0 && parts[j] < parts[j-1]; j-- {
			parts[j], parts[j-1] = parts[j-1], parts[j]
		}
	}
	return strings.Join(parts, "&")
}

// valueCanon is graph.Value.Canon as it was written, with strconv's
// string-returning functions.
func valueCanon(v graph.Value) string {
	switch v.Kind() {
	case graph.KindString:
		return "s:" + strconv.Quote(v.Str())
	case graph.KindInt:
		return "i:" + strconv.FormatInt(v.IntVal(), 10)
	case graph.KindFloat:
		return "f:" + strconv.FormatFloat(v.FloatVal(), 'g', -1, 64)
	case graph.KindBool:
		return "b:" + strconv.FormatBool(v.BoolVal())
	default:
		return "?"
	}
}

// TestCanonUnchanged renders random patterns — names and strings that
// need quoting or collide with the separators, every operator and value
// kind, equal conditions in either order, unbounded edges, no output —
// with Canon and with the fmt formatter above, and compares the bytes and
// the hashes.
func TestCanonUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pieces := []string{"SA", "sd", "a|b", "x&y", "n0:", ";", `q"t`, "Zoë", "名", "\t", "\x00", "\xff", "", "experience", "label"}
	word := func() string {
		var b strings.Builder
		for n := rng.Intn(3); n >= 0; n-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		return b.String()
	}
	value := func() graph.Value {
		switch rng.Intn(6) {
		case 0:
			return graph.String(word())
		case 1:
			return graph.Int(rng.Int63() - rng.Int63())
		case 2:
			return graph.Float([]float64{0, -1.5, 1.0 / 3, 1e21, 1e-7, math.Inf(-1), math.NaN(), rng.NormFloat64() * 1e6}[rng.Intn(8)])
		case 3:
			return graph.Bool(rng.Intn(2) == 0)
		case 4:
			return graph.Value{}
		default:
			return graph.Int(int64(rng.Intn(10)))
		}
	}
	for i := 0; i < 2000; i++ {
		p := New()
		for n := 1 + rng.Intn(5); n > 0; n-- {
			var pred Predicate
			for c := rng.Intn(4); c > 0; c-- {
				pred = pred.And(word(), Op(rng.Intn(10)), value())
			}
			if len(pred.Conds) > 0 && rng.Intn(4) == 0 {
				pred.Conds = append(pred.Conds, pred.Conds[0]) // a duplicate sorts next to itself
			}
			_, _ = p.AddNode(word(), pred) // a duplicate name is refused and skipped
		}
		for e := rng.Intn(6); e > 0; e-- {
			bound := []int{1, 2, 3, 17, Unbounded}[rng.Intn(5)]
			_ = p.AddEdge(NodeIdx(rng.Intn(p.NumNodes())), NodeIdx(rng.Intn(p.NumNodes())), bound)
		}
		if rng.Intn(5) > 0 {
			_ = p.SetOutput(NodeIdx(rng.Intn(p.NumNodes())))
		}
		want := fmtCanon(p)
		if got := p.Canon(); got != want {
			t.Fatalf("pattern %d:\ncanon %q\nfmt   %q", i, got, want)
		}
		sum := sha256.Sum256([]byte(want))
		if got := p.Hash(); got != hex.EncodeToString(sum[:]) {
			t.Fatalf("pattern %d: hash %s, want the digest of %q", i, got, want)
		}
		for _, n := range p.nodes {
			if got, want := n.Pred.Canon(), fmtPredCanon(n.Pred); got != want {
				t.Fatalf("pattern %d: predicate canon %q, fmt %q", i, got, want)
			}
		}
	}
}
