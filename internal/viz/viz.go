// Package viz renders data graphs and result graphs to Graphviz DOT, the
// library's stand-in for the demo GUI's visualizations: result graphs with
// weighted edges, top-K highlighting (the demo marks the best expert in
// red), and drill-down labels showing each node's attributes.
package viz

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"expfinder/internal/graph"
	"expfinder/internal/match"
	"expfinder/internal/rank"
)

// Options controls rendering.
type Options struct {
	// NameAttr selects the attribute used as the node caption (default
	// "name"; node ids are used when absent).
	NameAttr string
	// DrillDown includes every attribute in the node label, the GUI's
	// detailed view. Roll-up (false) shows captions only.
	DrillDown bool
	// Highlight marks these nodes (e.g. the top-1 expert) in red.
	Highlight []graph.NodeID
	// MaxNodes truncates huge graphs to keep DOT files renderable
	// (0 = unlimited).
	MaxNodes int
}

func (o *Options) nameAttr() string {
	if o.NameAttr == "" {
		return "name"
	}
	return o.NameAttr
}

func caption(g *graph.Graph, id graph.NodeID, o *Options) string {
	n, ok := g.Node(id)
	if !ok {
		return fmt.Sprintf("#%d", id)
	}
	name := fmt.Sprintf("#%d", id)
	if v, ok := n.Attrs[o.nameAttr()]; ok {
		name = v.Str()
	}
	if !o.DrillDown {
		return fmt.Sprintf("%s\\n%s", escape(name), escape(n.Label))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s\\n%s", escape(name), escape(n.Label))
	keys := make([]string, 0, len(n.Attrs))
	for k := range n.Attrs {
		if k == o.nameAttr() {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&b, "\\n%s: %s", escape(k), escape(n.Attrs[k].String()))
	}
	return b.String()
}

func escape(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return s
}

// WriteGraph renders a data graph as DOT.
func WriteGraph(w io.Writer, g *graph.Graph, opts Options) error {
	var b strings.Builder
	b.WriteString("digraph G {\n  rankdir=LR;\n  node [shape=box, style=rounded];\n")
	count := 0
	truncated := false
	g.ForEachNode(func(n graph.Node) {
		if opts.MaxNodes > 0 && count >= opts.MaxNodes {
			truncated = true
			return
		}
		count++
		attrs := ""
		for _, h := range opts.Highlight {
			if h == n.ID {
				attrs = ", color=red, fontcolor=red, penwidth=2"
			}
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"%s];\n", n.ID, caption(g, n.ID, &opts), attrs)
	})
	included := func(id graph.NodeID) bool {
		return opts.MaxNodes <= 0 || int(id) < opts.MaxNodes
	}
	g.ForEachEdge(func(e graph.Edge) {
		if opts.MaxNodes > 0 && (!included(e.From) || !included(e.To)) {
			return
		}
		fmt.Fprintf(&b, "  n%d -> n%d;\n", e.From, e.To)
	})
	if truncated {
		fmt.Fprintf(&b, "  truncated [label=\"… %d more nodes\", shape=plaintext];\n", g.NumNodes()-count)
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteResultGraph renders a result graph as DOT: nodes are matches
// (annotated with the pattern nodes they match), edges carry the shortest
// collaboration distance, and highlighted nodes (top-K experts) are red.
func WriteResultGraph(w io.Writer, g *graph.Graph, rg *match.ResultGraph, opts Options) error {
	var b strings.Builder
	b.WriteString("digraph Result {\n  rankdir=LR;\n  node [shape=box, style=rounded];\n")
	for _, v := range rg.Nodes() {
		attrs := ""
		for _, h := range opts.Highlight {
			if h == v {
				attrs = ", color=red, fontcolor=red, penwidth=2"
			}
		}
		fmt.Fprintf(&b, "  n%d [label=\"%s\"%s];\n", v, caption(g, v, &opts), attrs)
	}
	nodes := rg.Nodes()
	for i, v := range nodes {
		for _, e := range rg.OutAt(i) {
			fmt.Fprintf(&b, "  n%d -> n%d [label=\"%d\"];\n", v, nodes[e.To], e.Weight)
		}
	}
	b.WriteString("}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteTopK renders the result graph with the top-K experts highlighted —
// the demo's "Top-1 Match Result" views (Fig. 5).
func WriteTopK(w io.Writer, g *graph.Graph, rg *match.ResultGraph, top []rank.Ranked, opts Options) error {
	for _, r := range top {
		opts.Highlight = append(opts.Highlight, r.Node)
	}
	return WriteResultGraph(w, g, rg, opts)
}
