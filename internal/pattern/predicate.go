// Package pattern defines ExpFinder's pattern queries: small graphs whose
// nodes carry search conditions (predicates over node attributes) and whose
// edges carry hop bounds, plus one designated output node whose matches the
// user wants ranked. It includes a JSON form and a small text DSL so queries
// can be built by tools the way the demo's Pattern Builder GUI does.
package pattern

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"expfinder/internal/graph"
)

// Op is a comparison operator in a search condition.
type Op uint8

// Comparison operators supported by search conditions.
const (
	OpEq Op = iota + 1
	OpNe
	OpLt
	OpLe
	OpGt
	OpGe
	OpContains // substring test on string attributes
	OpPrefix   // prefix test on string attributes
)

var opNames = map[Op]string{
	OpEq: "=", OpNe: "!=", OpLt: "<", OpLe: "<=", OpGt: ">", OpGe: ">=",
	OpContains: "contains", OpPrefix: "prefix",
}

var opByName = map[string]Op{
	"=": OpEq, "==": OpEq, "!=": OpNe, "<": OpLt, "<=": OpLe, ">": OpGt,
	">=": OpGe, "contains": OpContains, "prefix": OpPrefix,
}

// String returns the DSL spelling of the operator.
func (o Op) String() string {
	if s, ok := opNames[o]; ok {
		return s
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// ParseOp converts a DSL spelling into an operator.
func ParseOp(s string) (Op, error) {
	if o, ok := opByName[s]; ok {
		return o, nil
	}
	return 0, fmt.Errorf("pattern: unknown operator %q", s)
}

// LabelAttr is the reserved attribute name that a condition uses to test a
// node's label rather than one of its attributes.
const LabelAttr = "label"

// Condition is one comparison in a search condition, e.g.
// `experience >= 5` or `label = "SA"`.
type Condition struct {
	Attr  string
	Op    Op
	Value graph.Value
}

// Eval evaluates the condition against a node. Missing attributes fail every
// comparison (including !=): a node with no "experience" attribute is never
// a valid expert match.
func (c Condition) Eval(n graph.Node) bool {
	var v graph.Value
	if c.Attr == LabelAttr {
		v = graph.String(n.Label)
	} else {
		var ok bool
		v, ok = n.Attrs[c.Attr]
		if !ok {
			return false
		}
	}
	switch c.Op {
	case OpEq:
		return v.Equal(c.Value)
	case OpNe:
		return !v.Equal(c.Value)
	case OpContains:
		return v.Kind() == graph.KindString && c.Value.Kind() == graph.KindString &&
			strings.Contains(v.Str(), c.Value.Str())
	case OpPrefix:
		return v.Kind() == graph.KindString && c.Value.Kind() == graph.KindString &&
			strings.HasPrefix(v.Str(), c.Value.Str())
	default:
		cmp, ok := v.Compare(c.Value)
		if !ok {
			return false
		}
		switch c.Op {
		case OpLt:
			return cmp < 0
		case OpLe:
			return cmp <= 0
		case OpGt:
			return cmp > 0
		case OpGe:
			return cmp >= 0
		}
		return false
	}
}

// String renders the condition in DSL syntax.
func (c Condition) String() string {
	return fmt.Sprintf("%s %s %s", c.Attr, c.Op, quoteValue(c.Value))
}

func quoteValue(v graph.Value) string {
	if v.Kind() == graph.KindString {
		return fmt.Sprintf("%q", v.Str())
	}
	return v.String()
}

// Predicate is the full search condition of a pattern node: a conjunction
// of comparisons. The empty predicate matches every node.
type Predicate struct {
	Conds []Condition
}

// And appends a condition and returns the predicate for chaining.
func (p Predicate) And(attr string, op Op, v graph.Value) Predicate {
	p.Conds = append(p.Conds, Condition{Attr: attr, Op: op, Value: v})
	return p
}

// Eval reports whether the node satisfies every condition.
func (p Predicate) Eval(n graph.Node) bool {
	for _, c := range p.Conds {
		if !c.Eval(n) {
			return false
		}
	}
	return true
}

// String renders the predicate in DSL syntax: `[a = 1, b >= 2]`.
func (p Predicate) String() string {
	if len(p.Conds) == 0 {
		return "[]"
	}
	parts := make([]string, len(p.Conds))
	for i, c := range p.Conds {
		parts[i] = c.String()
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

// Canon renders the predicate deterministically for hashing: each
// condition as "<attr>|<op number>|<value canon>", the renderings sorted so
// that logically identical predicates built in different orders hash the
// same, joined by "&".
func (p Predicate) Canon() string { return string(p.appendCanon(nil)) }

func (p Predicate) appendCanon(b []byte) []byte {
	parts := make([]string, len(p.Conds))
	for i, c := range p.Conds {
		parts[i] = string(c.appendCanon(nil))
	}
	slices.Sort(parts)
	for i, part := range parts {
		if i > 0 {
			b = append(b, '&')
		}
		b = append(b, part...)
	}
	return b
}

func (c Condition) appendCanon(b []byte) []byte {
	b = append(append(b, c.Attr...), '|')
	b = append(strconv.AppendUint(b, uint64(c.Op), 10), '|')
	return c.Value.AppendCanon(b)
}
