package graph

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// ValueKind discriminates the dynamic type of an attribute Value.
type ValueKind uint8

const (
	// KindInvalid is the zero Value kind; it compares unequal to everything.
	KindInvalid ValueKind = iota
	// KindString is a UTF-8 string value.
	KindString
	// KindInt is a signed 64-bit integer value.
	KindInt
	// KindFloat is a 64-bit floating point value.
	KindFloat
	// KindBool is a boolean value.
	KindBool
)

// String returns the kind name, for diagnostics.
func (k ValueKind) String() string {
	switch k {
	case KindString:
		return "string"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindBool:
		return "bool"
	default:
		return "invalid"
	}
}

// Value is a typed attribute value attached to a graph node. Using a small
// tagged union instead of interface{} keeps node attributes allocation-free
// on the hot matching path and gives predicates well-defined comparison
// semantics across kinds (ints and floats compare numerically).
type Value struct {
	kind ValueKind
	s    string
	n    int64
	f    float64
}

// String constructs a string Value.
func String(s string) Value { return Value{kind: KindString, s: s} }

// Int constructs an integer Value.
func Int(i int64) Value { return Value{kind: KindInt, n: i} }

// Float constructs a floating point Value.
func Float(f float64) Value { return Value{kind: KindFloat, f: f} }

// Bool constructs a boolean Value.
func Bool(b bool) Value {
	v := Value{kind: KindBool}
	if b {
		v.n = 1
	}
	return v
}

// Kind reports the dynamic kind of v.
func (v Value) Kind() ValueKind { return v.kind }

// Str returns the string payload; it is only meaningful for KindString.
func (v Value) Str() string { return v.s }

// IntVal returns the integer payload; it is only meaningful for KindInt and
// KindBool (0 or 1).
func (v Value) IntVal() int64 { return v.n }

// FloatVal returns the float payload; it is only meaningful for KindFloat.
func (v Value) FloatVal() float64 { return v.f }

// BoolVal returns the boolean payload; it is only meaningful for KindBool.
func (v Value) BoolVal() bool { return v.n != 0 }

// AsFloat converts numeric values (int, float, bool) to float64. The second
// return is false for strings and invalid values.
func (v Value) AsFloat() (float64, bool) {
	switch v.kind {
	case KindInt, KindBool:
		return float64(v.n), true
	case KindFloat:
		return v.f, true
	default:
		return 0, false
	}
}

// Equal reports whether two values are equal. Numeric values of different
// kinds (int vs float) compare numerically; all other cross-kind comparisons
// are false.
func (v Value) Equal(w Value) bool {
	if v.kind == w.kind {
		switch v.kind {
		case KindString:
			return v.s == w.s
		case KindInt, KindBool:
			return v.n == w.n
		case KindFloat:
			return v.f == w.f
		default:
			return false
		}
	}
	a, okA := v.AsFloat()
	b, okB := w.AsFloat()
	return okA && okB && a == b
}

// Compare orders two values: -1 if v < w, 0 if equal, +1 if v > w. The
// second return is false when the values are not comparable (different
// non-numeric kinds, or either invalid).
func (v Value) Compare(w Value) (int, bool) {
	if v.kind == KindString && w.kind == KindString {
		return strings.Compare(v.s, w.s), true
	}
	a, okA := v.AsFloat()
	b, okB := w.AsFloat()
	if !okA || !okB {
		return 0, false
	}
	switch {
	case a < b:
		return -1, true
	case a > b:
		return 1, true
	default:
		return 0, true
	}
}

// String renders the value for display and for canonical hashing.
func (v Value) String() string {
	switch v.kind {
	case KindString:
		return v.s
	case KindInt:
		return strconv.FormatInt(v.n, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return strconv.FormatBool(v.n != 0)
	default:
		return "<invalid>"
	}
}

// Canon renders the value with an unambiguous kind prefix, used when hashing
// attribute tuples (so Int(1) and String("1") hash differently).
func (v Value) Canon() string {
	switch v.kind {
	case KindString:
		return "s:" + strconv.Quote(v.s)
	case KindInt:
		return "i:" + strconv.FormatInt(v.n, 10)
	case KindFloat:
		return "f:" + strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindBool:
		return "b:" + strconv.FormatBool(v.n != 0)
	default:
		return "?"
	}
}

// ParseValue converts a literal string into a Value: quoted strings stay
// strings, "true"/"false" become bools, integers and floats become numbers,
// and anything else is a bare string. It is used by the pattern DSL and the
// CLI tools.
func ParseValue(lit string) Value {
	if len(lit) >= 2 && (lit[0] == '"' || lit[0] == '\'') && lit[len(lit)-1] == lit[0] {
		if unq, err := strconv.Unquote(`"` + lit[1:len(lit)-1] + `"`); err == nil {
			return String(unq)
		}
		return String(lit[1 : len(lit)-1])
	}
	switch lit {
	case "true":
		return Bool(true)
	case "false":
		return Bool(false)
	}
	if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
		return Int(i)
	}
	if f, err := strconv.ParseFloat(lit, 64); err == nil {
		return Float(f)
	}
	return String(lit)
}

// Attrs is the attribute map of a node: attribute name to typed value.
type Attrs map[string]Value

// Clone returns a deep copy of the attribute map.
func (a Attrs) Clone() Attrs {
	if a == nil {
		return nil
	}
	c := make(Attrs, len(a))
	for k, v := range a {
		c[k] = v
	}
	return c
}

// Equal reports whether two attribute maps hold exactly the same entries.
func (a Attrs) Equal(b Attrs) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !v.Equal(w) {
			return false
		}
	}
	return true
}

// Canon renders the attribute map deterministically (sorted by key) for
// hashing and equivalence-class construction.
func (a Attrs) Canon() string {
	if len(a) == 0 {
		return "{}"
	}
	keys := make([]string, 0, len(a))
	for k := range a {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%s", k, a[k].Canon())
	}
	b.WriteByte('}')
	return b.String()
}
