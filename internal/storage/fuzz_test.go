package storage

// Fuzz targets for the graph image decoder, the Store's binary graph
// files (which hold images) and the edge-list importer.
// Recovery feeds these torn and corrupt files, so the contract is
// strict: arbitrary input must produce (graph, nil) or (nil, error) —
// never a panic, and never an unbounded allocation driven by a corrupt
// count prefix. `go test` runs the seed corpus on every CI pass;
// `go test -fuzz FuzzReadGraphImage ./internal/storage` explores.

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"expfinder/internal/graph"
)

// seedGraph builds a small graph exercising every value kind, attrs,
// tombstones, and a self-loop.
func seedGraph() *graph.Graph {
	g := graph.New(0)
	a := g.AddNode("SA", graph.Attrs{
		"name":       graph.String("Ann"),
		"experience": graph.Int(9),
		"rating":     graph.Float(4.5),
		"active":     graph.Bool(true),
	})
	b := g.AddNode("SD", graph.Attrs{"experience": graph.Int(-3)})
	c := g.AddNode("BA", nil)
	dead := g.AddNode("ST", nil)
	_ = g.AddEdge(a, b)
	_ = g.AddEdge(b, c)
	_ = g.AddEdge(c, c) // self-loop (quotient graphs use them)
	_ = g.RemoveNode(dead)
	return g
}

// imageSeeds are the image decoder's corpus: a valid image, a file from
// the retired compacting codec ("EXPF" magic, which must fail cleanly),
// degenerate prefixes, an absurd count, a truncation, and one-byte
// corruptions.
func imageSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	var img bytes.Buffer
	if err := WriteGraphImage(&img, seedGraph()); err != nil {
		tb.Fatal(err)
	}
	valid := img.Bytes()
	seeds := [][]byte{
		valid,
		[]byte("EXPF\x01\x01\x02SA\x00\x00\x00\x12\x34\x56\x78"), // retired codec
		{},
		[]byte("EXPI"),
		[]byte("EXPI\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\x01"), // absurd max id
		valid[:len(valid)/2], // truncation
	}
	// One-byte corruption at a few positions.
	for _, pos := range []int{4, len(valid) / 3, len(valid) - 2} {
		mut := append([]byte(nil), valid...)
		mut[pos] ^= 0x5A
		seeds = append(seeds, mut)
	}
	return seeds
}

// FuzzReadGraphBinary feeds arbitrary bytes to the Store as a binary
// (.efb) graph file. LoadGraph must yield exactly one of graph/error, a
// failure must name the graph, and a success must decode exactly what
// the image codec decodes from the same bytes.
func FuzzReadGraphBinary(f *testing.F) {
	for _, s := range imageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		s, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "graphs", "g"+FormatBinary.ext()), data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := s.LoadGraph("g")
		if (g == nil) == (err == nil) {
			t.Fatalf("exactly one of graph/error must be set: g=%v err=%v", g, err)
		}
		if err != nil {
			if !strings.Contains(err.Error(), `"g"`) {
				t.Fatalf("LoadGraph error does not name the graph: %v", err)
			}
			return
		}
		want, werr := ReadGraphImage(bytes.NewReader(data))
		if werr != nil {
			t.Fatalf("LoadGraph accepted bytes the image codec rejects: %v", werr)
		}
		var got, exp bytes.Buffer
		if err := WriteGraphImage(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := WriteGraphImage(&exp, want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatal("LoadGraph and ReadGraphImage decoded different graphs")
		}
	})
}

func FuzzReadGraphImage(f *testing.F) {
	for _, s := range imageSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadGraphImage(bytes.NewReader(data))
		if (g == nil) == (err == nil) {
			t.Fatalf("exactly one of graph/error must be set: g=%v err=%v", g, err)
		}
		if err == nil {
			// A decoded image must re-encode (the recovery path writes a
			// fresh checkpoint of whatever it read).
			var buf bytes.Buffer
			if werr := WriteGraphImage(&buf, g); werr != nil {
				t.Fatalf("decoded image failed to re-encode: %v", werr)
			}
		}
	})
}

func FuzzReadEdgeList(f *testing.F) {
	for _, s := range []string{
		"",
		"# comment\n1 2\n2 3\n3 1\n",
		"1,2\n2,3\n",
		"1 2 extra fields ok\n",
		"1\n",
		"a b\n",
		"-5 7\n9223372036854775807 0\n",
		"1 1\n1 1\n",
		"% konect-style comment\n4 5\n",
		strings.Repeat("7 8\n", 50),
	} {
		f.Add([]byte(s), true, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, comma, skip bool) {
		g, _, err := ReadEdgeList(bytes.NewReader(data), EdgeListOptions{
			Comma:          comma,
			SkipDuplicates: skip,
			SkipSelfLoops:  skip,
		})
		if (g == nil) == (err == nil) {
			t.Fatalf("exactly one of graph/error must be set: g=%v err=%v", g, err)
		}
	})
}
