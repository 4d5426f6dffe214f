package storage

import (
	"bytes"
	"strings"
	"testing"

	"expfinder/internal/graph"
)

func TestReadEdgeListSNAP(t *testing.T) {
	input := `
# Directed graph: example
# Nodes: 4 Edges: 4
10 20
20 30
10 30
30 999
`
	g, idMap, err := ReadEdgeList(strings.NewReader(input), EdgeListOptions{})
	if err != nil {
		t.Fatalf("ReadEdgeList: %v", err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 {
		t.Fatalf("(n,m) = (%d,%d), want (4,4)", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(idMap[10], idMap[20]) || !g.HasEdge(idMap[30], idMap[999]) {
		t.Error("edges missing after import")
	}
	// External ids preserved as attributes.
	if v, ok := g.Attr(idMap[999], "id"); !ok || v.IntVal() != 999 {
		t.Errorf("external id attribute = %v", v)
	}
	if g.Label(idMap[10]) != "person" {
		t.Errorf("default label = %q", g.Label(idMap[10]))
	}
}

func TestReadEdgeListCommaAndOptions(t *testing.T) {
	input := "1,2\n2,2\n1,2\n"
	// Without tolerance options: fails on the duplicate (self-loop is legal
	// in the graph, so the duplicate is the error).
	if _, _, err := ReadEdgeList(strings.NewReader(input), EdgeListOptions{Comma: true}); err == nil {
		t.Error("duplicate edge accepted without SkipDuplicates")
	}
	g, _, err := ReadEdgeList(strings.NewReader(input), EdgeListOptions{
		Comma: true, SkipDuplicates: true, SkipSelfLoops: true,
	})
	if err != nil {
		t.Fatalf("tolerant import: %v", err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("edges = %d, want 1 (self-loop and duplicate skipped)", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"1\n",   // too few fields
		"a b\n", // bad source
		"1 b\n", // bad target
	}
	for _, c := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(c), EdgeListOptions{}); err == nil {
			t.Errorf("ReadEdgeList(%q) succeeded", c)
		}
	}
}

func TestApplyNodeTable(t *testing.T) {
	edges := "1 2\n2 3\n"
	g, idMap, err := ReadEdgeList(strings.NewReader(edges), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table := `id,label,name,experience,remote
1,SA,"Bob, the Architect",7,true
2,SD,Dan,3,false
3,ST,Eva,2,true
4,BA,Isolated,5,false
`
	if err := ApplyNodeTable(strings.NewReader(table), g, idMap); err != nil {
		t.Fatalf("ApplyNodeTable: %v", err)
	}
	bob := g.MustNode(idMap[1])
	if bob.Label != "SA" {
		t.Errorf("label = %q, want SA", bob.Label)
	}
	if name := bob.Attrs["name"]; name.Str() != "Bob, the Architect" {
		t.Errorf("quoted CSV name = %q", name.Str())
	}
	if exp := bob.Attrs["experience"]; exp.Kind() != graph.KindInt || exp.IntVal() != 7 {
		t.Errorf("experience = %v (%v)", exp, exp.Kind())
	}
	if rem := bob.Attrs["remote"]; rem.Kind() != graph.KindBool || !rem.BoolVal() {
		t.Errorf("remote = %v (%v)", rem, rem.Kind())
	}
	// The external id attribute survives relabeling.
	if v, ok := bob.Attrs["id"]; !ok || v.IntVal() != 1 {
		t.Errorf("id attribute lost: %v", v)
	}
	// Row 4 created a fresh isolated node.
	if g.NumNodes() != 4 {
		t.Errorf("nodes = %d, want 4", g.NumNodes())
	}
	if g.Label(idMap[4]) != "BA" {
		t.Errorf("fresh node label = %q", g.Label(idMap[4]))
	}
}

func TestApplyNodeTableErrors(t *testing.T) {
	g, idMap, err := ReadEdgeList(strings.NewReader("1 2\n"), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	cases := []string{
		"",                       // empty
		"wrong,header\n1,SA\n",   // bad header
		"id,label\nnotanum,SA\n", // bad id
		"id,label,x\n1,SA\n",     // field count mismatch
	}
	for _, c := range cases {
		if err := ApplyNodeTable(strings.NewReader(c), g, idMap); err == nil {
			t.Errorf("ApplyNodeTable(%q) succeeded", c)
		}
	}
}

func TestImportedGraphIsQueryable(t *testing.T) {
	edges := "1 2\n1 3\n2 4\n3 4\n"
	g, idMap, err := ReadEdgeList(strings.NewReader(edges), EdgeListOptions{})
	if err != nil {
		t.Fatal(err)
	}
	table := `id,label,experience
1,SA,7
2,SD,3
3,SD,4
4,ST,2
`
	if err := ApplyNodeTable(strings.NewReader(table), g, idMap); err != nil {
		t.Fatal(err)
	}
	// Round-trip through the binary image codec too.
	var buf bytes.Buffer
	if err := WriteGraphImage(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) || back.Version() != g.Version() {
		t.Error("imported graph image round-trip failed")
	}
}
