package pattern

import (
	"encoding/json"
	"fmt"

	"expfinder/internal/graph"
)

// jsonCond is the wire form of a Condition.
type jsonCond struct {
	Attr  string      `json:"attr"`
	Op    string      `json:"op"`
	Value graph.Value `json:"value"`
}

// jsonPNode is the wire form of a pattern node.
type jsonPNode struct {
	Name  string     `json:"name"`
	Conds []jsonCond `json:"conds,omitempty"`
}

// jsonPEdge is the wire form of a pattern edge; bound -1 means unbounded.
type jsonPEdge struct {
	From  string `json:"from"`
	To    string `json:"to"`
	Bound int    `json:"bound"`
}

// jsonPattern is the wire form of a Pattern, as submitted by API clients.
type jsonPattern struct {
	Nodes  []jsonPNode `json:"nodes"`
	Edges  []jsonPEdge `json:"edges"`
	Output string      `json:"output"`
}

// MarshalJSON encodes the pattern for the HTTP API.
func (p *Pattern) MarshalJSON() ([]byte, error) {
	jp := jsonPattern{}
	for i, n := range p.nodes {
		jn := jsonPNode{Name: n.Name}
		for _, c := range n.Pred.Conds {
			jn.Conds = append(jn.Conds, jsonCond{Attr: c.Attr, Op: c.Op.String(), Value: c.Value})
		}
		jp.Nodes = append(jp.Nodes, jn)
		if NodeIdx(i) == p.output {
			jp.Output = n.Name
		}
	}
	for _, e := range p.edges {
		jp.Edges = append(jp.Edges, jsonPEdge{
			From: p.nodes[e.From].Name, To: p.nodes[e.To].Name, Bound: e.Bound,
		})
	}
	return json.Marshal(jp)
}

// UnmarshalJSON decodes and validates a pattern from its wire form.
func (p *Pattern) UnmarshalJSON(data []byte) error {
	p.mutable()
	var jp jsonPattern
	if err := json.Unmarshal(data, &jp); err != nil {
		return fmt.Errorf("pattern: decode: %w", err)
	}
	fresh := New()
	for _, jn := range jp.Nodes {
		var pred Predicate
		for _, jc := range jn.Conds {
			op, err := ParseOp(jc.Op)
			if err != nil {
				return fmt.Errorf("pattern: node %q: %w", jn.Name, err)
			}
			pred.Conds = append(pred.Conds, Condition{Attr: jc.Attr, Op: op, Value: jc.Value})
		}
		if _, err := fresh.AddNode(jn.Name, pred); err != nil {
			return err
		}
	}
	for _, je := range jp.Edges {
		from, ok := fresh.Lookup(je.From)
		if !ok {
			return fmt.Errorf("pattern: edge from undeclared node %q", je.From)
		}
		to, ok := fresh.Lookup(je.To)
		if !ok {
			return fmt.Errorf("pattern: edge to undeclared node %q", je.To)
		}
		if err := fresh.AddEdge(from, to, je.Bound); err != nil {
			return err
		}
	}
	if jp.Output != "" {
		idx, ok := fresh.Lookup(jp.Output)
		if !ok {
			return fmt.Errorf("pattern: output names undeclared node %q", jp.Output)
		}
		if err := fresh.SetOutput(idx); err != nil {
			return err
		}
	}
	if err := fresh.Validate(); err != nil {
		return err
	}
	*p = *fresh
	return nil
}
