package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"testing"

	"expfinder/internal/graph"
	"expfinder/internal/pattern"
)

// None of these tests starts a server: they cover the generators and a
// small replay-only pass, so they run under `go test -short` too.

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestNoDrift: every workload and metric name in BENCHMARK.json is
// emitted by a replay-only pass at a fiftieth of the scale, with the same
// unit, and nothing else is.
func TestNoDrift(t *testing.T) {
	b := loadBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

	var declared []string
	for _, w := range b.Workloads {
		declared = append(declared, w.Name)
	}
	if !reflect.DeepEqual(declared, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json %v, bench %v", declared, workloadNames)
	}
	wantE2E, wantLayer := map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		wantE2E[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		wantLayer[m.Name] = m.Unit
	}
	check := func(kind string, defs []metricDef, want map[string]string, emitted []string) {
		var listed []string
		for _, d := range defs {
			listed = append(listed, d.Name)
			if !name.MatchString(d.Name) {
				t.Errorf("%s metric %q: bad name", kind, d.Name)
			}
			if unit, ok := want[d.Name]; !ok || unit != d.Unit {
				t.Errorf("%s metric %q (%s): BENCHMARK.json has unit %q (declared=%v)", kind, d.Name, d.Unit, unit, ok)
			}
		}
		if len(want) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, bench lists %d", kind, len(want), len(defs))
		}
		sort.Strings(listed)
		if !reflect.DeepEqual(listed, emitted) {
			t.Errorf("%s: listed %v\nemitted %v", kind, listed, emitted)
		}
	}

	for _, w := range workloadNames {
		in, err := generate(w, 1, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		rp, err := newReplica(in, filepath.Join(dir, "wal-replica"))
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		walDir := ""
		if len(in.Writes) > 0 { // stands in for the data dir a killed server leaves
			crashed, err := newReplica(in, filepath.Join(dir, "crashed"))
			if err != nil {
				t.Fatal(err)
			}
			crashed.close()
			walDir = filepath.Join(dir, "crashed")
		}
		p := &phase{setups: []float64{1}, elapsed: 1}
		out, err := tracedReplay(in, p, rp, dir, walDir, 1)
		rp.close()
		if err != nil {
			t.Fatalf("%s: replay: %v", w, err)
		}
		if out.disagree != 0 {
			t.Errorf("%s: %d accelerated relations differ from the reference", w, out.disagree)
		}
		check(w+" per-layer", perLayer, wantLayer, keys(layerMetrics(in, p, out, nil)))
		for _, s := range out.tr.spans {
			if s.Name == "" || s.End < s.Start || s.Parent >= s.ID {
				t.Fatalf("%s: malformed span %+v", w, s)
			}
		}
		// A phase with one answered request of each class exercises
		// every end-to-end formula.
		p.reads = []outcome{{req: &in.Warm[0], ok: true, status: 200, ms: 1}}
		p.writes, p.serverCPU = p.reads, 1
		check(w+" end-to-end", endToEnd, wantE2E, keys(endToEndMetrics(in, p)))
	}
}

// TestUpdateStreamValid: the generator never produces an op its replica
// (or a fresh copy of the dataset) rejects.
func TestUpdateStreamValid(t *testing.T) {
	for _, w := range []string{"ingest", "mixed-rw"} {
		in, err := generate(w, 7, 1)
		if err != nil {
			t.Fatal(err)
		}
		g := dataset()
		for _, list := range [][]request{in.Warm, in.Writes} {
			for i := range list {
				if len(list[i].Ops) != batchOps {
					t.Fatalf("%s: batch of %d ops", w, len(list[i].Ops))
				}
				for _, o := range list[i].Ops {
					var err error
					if o.Op == "insert" {
						err = g.AddEdge(graph.NodeID(o.From), graph.NodeID(o.To))
					} else {
						err = g.RemoveEdge(graph.NodeID(o.From), graph.NodeID(o.To))
					}
					if err != nil {
						t.Fatalf("%s: op %+v rejected: %v", w, o, err)
					}
				}
			}
		}
		if !g.Equal(in.Final) || g.Version() != in.Final.Version() {
			t.Errorf("%s: replaying the stream does not reproduce the final replica", w)
		}
	}
}

// TestSameSeedSameRequests: the same seed yields byte-identical request
// lists, another seed different ones.
func TestSameSeedSameRequests(t *testing.T) {
	dump := func(w string, seed int64) []byte {
		in, err := generate(w, seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		var all []byte
		for _, list := range [][]request{in.Warm, in.Reads, in.Writes} {
			for i := range list {
				all = append(all, list[i].path()...)
				all = append(all, list[i].body...)
			}
		}
		return all
	}
	for _, w := range workloadNames {
		a, b, c := dump(w, 3), dump(w, 3), dump(w, 4)
		if string(a) != string(b) {
			t.Errorf("%s: same seed, different requests", w)
		}
		if string(a) == string(c) {
			t.Errorf("%s: different seeds, same requests", w)
		}
	}
}

// TestUniverse: patterns are distinct, prefix-stable, and every family
// parses to the plan it is named for.
func TestUniverse(t *testing.T) {
	for _, f := range []family{famBroad, famDeep, famPlain, famShallow} {
		long, short := universe(f, 60), universe(f, 20)
		if !reflect.DeepEqual(long[:20], short) {
			t.Errorf("family %d: universe is not prefix-stable", f)
		}
		seen := map[string]bool{}
		for _, dsl := range long {
			if seen[dsl] {
				t.Errorf("family %d: duplicate pattern", f)
			}
			seen[dsl] = true
			q, err := pattern.Parse(dsl)
			if err != nil {
				t.Fatalf("family %d: %v\n%s", f, err, dsl)
			}
			if q.IsPlainSimulation() != (f == famPlain) {
				t.Errorf("family %d: wrong plan class for\n%s", f, dsl)
			}
		}
	}
}
