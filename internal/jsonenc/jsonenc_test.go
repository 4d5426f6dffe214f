package jsonenc

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// TestAppendStringEqualsMarshal checks the string rule against
// json.Marshal on the characters it treats specially and on random
// bytes, invalid UTF-8 included.
func TestAppendStringEqualsMarshal(t *testing.T) {
	cases := []string{
		"", "Bob", `a"b\c`, "<script>&amp;</script>", "tab\there\nnl\r\b\f",
		"\x00\x01\x1f\x7f", "Zoë 名前", "line\u2028sep\u2029par", "bad\xffutf8\xc3", "\xe2\x80",
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte("a<>&\"\\\x00\x1f\x7f\xc3\xa9\xe2\x80\xa8\xa9\xff ")
	for i := 0; i < 2000; i++ {
		b := make([]byte, rng.Intn(12))
		for j := range b {
			if rng.Intn(4) == 0 {
				b[j] = byte(rng.Intn(256))
			} else {
				b[j] = alphabet[rng.Intn(len(alphabet))]
			}
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendString([]byte("x"), s); string(got) != "x"+string(want) {
			t.Fatalf("AppendString(%q) = %s, want %s", s, got[1:], want)
		}
	}
}

// TestAppendFloatEqualsMarshal checks the float rule at both exponent
// cut-offs, on either side of them, and on random bit patterns.
func TestAppendFloatEqualsMarshal(t *testing.T) {
	cases := []float64{
		0, math.Copysign(0, -1), 1, -1, 1.0 / 3, 2.5, 1e-6, 9.99999e-7, 1e-7, 1.5e-300,
		1e20, 1e21, 123456789e20, -1e21, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		f := math.Float64frombits(rng.Uint64())
		if math.IsNaN(f) || math.IsInf(f, 0) {
			continue
		}
		cases = append(cases, f, float64(rng.Intn(1000))/float64(1+rng.Intn(99)))
	}
	for _, f := range cases {
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := AppendFloat(nil, f); string(got) != string(want) {
			t.Fatalf("AppendFloat(%v) = %s, want %s", f, got, want)
		}
	}
}
