package storage

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"expfinder/internal/dataset"
	"expfinder/internal/graph"
	"expfinder/internal/testutil"
)

func TestBinaryRoundTrip(t *testing.T) {
	g, _ := dataset.PaperGraph()
	var buf bytes.Buffer
	if err := WriteGraphImage(&buf, g); err != nil {
		t.Fatalf("WriteGraphImage: %v", err)
	}
	back, err := ReadGraphImage(&buf)
	if err != nil {
		t.Fatalf("ReadGraphImage: %v", err)
	}
	if !g.Equal(back) || back.Version() != g.Version() {
		t.Error("image round-trip changed the graph")
	}
}

func TestBinaryIsDeterministic(t *testing.T) {
	g, _ := dataset.PaperGraph()
	var a, b bytes.Buffer
	if err := WriteGraphImage(&a, g); err != nil {
		t.Fatal(err)
	}
	if err := WriteGraphImage(&b, g); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("image encoding not byte-stable")
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	g, _ := dataset.PaperGraph()
	var buf bytes.Buffer
	if err := WriteGraphImage(&buf, g); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Flip one byte somewhere in the middle.
	data[len(data)/2] ^= 0xFF
	if _, err := ReadGraphImage(bytes.NewReader(data)); err == nil {
		t.Error("corrupted file accepted")
	}
	// Truncation must error too.
	if _, err := ReadGraphImage(bytes.NewReader(data[:len(data)/2])); err == nil {
		t.Error("truncated file accepted")
	}
	// Wrong magic.
	if _, err := ReadGraphImage(bytes.NewReader([]byte("NOPE1234"))); !errors.Is(err, ErrBadImage) {
		t.Errorf("bad magic err = %v", err)
	}
}

func TestBinaryAllValueKinds(t *testing.T) {
	g := graph.New(2)
	a := g.AddNode("X", graph.Attrs{
		"s":   graph.String("hello \x00 world"),
		"i":   graph.Int(-123456789),
		"f":   graph.Float(3.14159),
		"b":   graph.Bool(true),
		"b2":  graph.Bool(false),
		"neg": graph.Int(-1),
	})
	b := g.AddNode("Y", nil)
	if err := g.AddEdge(a, b); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteGraphImage(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraphImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(back) {
		t.Error("all-kinds round-trip changed the graph")
	}
}

func TestQuickBinaryRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 25}
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := testutil.RandomGraph(r, 20, 60)
		var buf bytes.Buffer
		if err := WriteGraphImage(&buf, g); err != nil {
			return false
		}
		back, err := ReadGraphImage(&buf)
		if err != nil {
			return false
		}
		return g.Equal(back)
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

func TestStoreGraphLifecycle(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g, _ := dataset.PaperGraph()
	for _, format := range []Format{FormatJSON, FormatBinary} {
		name := "paper-" + format.ext()[1:]
		if err := s.SaveGraph(name, g, format); err != nil {
			t.Fatalf("SaveGraph(%v): %v", format, err)
		}
		back, err := s.LoadGraph(name)
		if err != nil {
			t.Fatalf("LoadGraph(%v): %v", format, err)
		}
		if !g.Equal(back) {
			t.Errorf("%v round-trip changed graph", format)
		}
	}
	names, err := s.ListGraphs()
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Errorf("ListGraphs = %v", names)
	}
	if err := s.DeleteGraph("paper-json"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadGraph("paper-json"); !errors.Is(err, ErrNotFound) {
		t.Errorf("LoadGraph after delete err = %v", err)
	}
	if err := s.DeleteGraph("paper-json"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete err = %v", err)
	}
}

// TestStoreRejectsRetiredBinaryFiles pins the one-codec rule: a .efb
// file from the retired compacting codec ("EXPF" magic) is not read; the
// load fails with ErrBadImage, naming the graph, so an operator knows
// which file to re-export through JSON.
func TestStoreRejectsRetiredBinaryFiles(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	old := []byte("EXPF\x01\x00\x00\x00\x00\x00\x00")
	if err := os.WriteFile(filepath.Join(s.Root(), "graphs", "old.efb"), old, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = s.LoadGraph("old")
	if !errors.Is(err, ErrBadImage) || !strings.Contains(err.Error(), `"old"`) {
		t.Fatalf("LoadGraph(retired .efb) err = %v, want ErrBadImage naming the graph", err)
	}
}

func TestStoreRejectsBadNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(0)
	for _, name := range []string{"", "a/b", `a\b`, "..", "x..y"} {
		if err := s.SaveGraph(name, g, FormatJSON); !errors.Is(err, ErrBadName) {
			t.Errorf("SaveGraph(%q) err = %v, want ErrBadName", name, err)
		}
	}
}

func TestBinaryCompactness(t *testing.T) {
	// The binary image should beat JSON by a wide margin on large graphs.
	r := rand.New(rand.NewSource(1))
	g := testutil.RandomGraph(r, 2000, 10000)
	var bin, js bytes.Buffer
	if err := WriteGraphImage(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Errorf("image (%d bytes) not smaller than JSON (%d bytes)", bin.Len(), js.Len())
	}
}
