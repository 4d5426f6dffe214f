package server

import (
	"fmt"
	"net/http"
	"os"
	"regexp"
	"strings"
	"testing"

	"expfinder/internal/dataset"
)

// The golden file pins the query wire surface: one line per request,
// "name<TAB>status<TAB>body", bodies exactly as the server at commit 704b341
// wrote them — the last commit whose handler evaluated dual simulation
// itself — with elapsed_us zeroed, and with "source":"direct" on the three
// compressed/* misses that said "compressed": the paper graph's quotient
// merges nothing, so it never pays and is never read. Requests run in the
// order below on one fresh server per graph kind, so which of them hit the
// cache is part of what is pinned. The file holds the plain and compressed
// kinds only: no query reads a distance index or a partitioning, so every
// indexed/* and partitioned/* response must equal its plain/* one.
const goldenFile = "testdata/query_golden.txt"

var elapsedRE = regexp.MustCompile(`"elapsed_us":\d+`)

const (
	goldenSimDSL  = "node SA [label = \"SA\"] output\nnode SD [label = \"SD\"]\nedge SA -> SD bound 1"
	goldenStarDSL = "node SD [label = \"SD\"] output\nnode BA [label = \"BA\"]\nnode ST [label = \"ST\"]\nedge SD -> BA bound *\nedge ST -> SD bound 2"
)

// goldenRun drives every golden request against fresh servers and returns
// "name<TAB>status<TAB>body" lines in request order.
func goldenRun(t *testing.T) []string {
	t.Helper()
	kinds := []struct {
		name, path, body string
	}{
		{"plain", "", ""},
		{"indexed", "/index", ""},
		{"partitioned", "/partitions", `{"parts": 3, "strategy": "greedy"}`},
		{"compressed", "/compress", `{"scheme": "bisimulation", "view": ["experience"]}`},
	}
	patterns := []struct{ name, dsl string }{
		{"fig1", dataset.PaperQueryDSL},
		{"sim", goldenSimDSL},
		{"star", goldenStarDSL},
	}
	var lines []string
	for _, kind := range kinds {
		ts, _ := newTestServer(t)
		uploadPaperGraph(t, ts)
		if kind.path != "" {
			if resp, body := do(t, "POST", ts.URL+"/api/v1/graphs/paper"+kind.path, kind.body); resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: %d %s", kind.name, resp.StatusCode, body)
			}
		}
		post := func(name, path string, payload any) {
			t.Helper()
			resp, body := do(t, "POST", ts.URL+path, payload)
			body = elapsedRE.ReplaceAll(body, []byte(`"elapsed_us":0`))
			lines = append(lines, fmt.Sprintf("%s/%s\t%d\t%s", kind.name, name, resp.StatusCode, strings.TrimSpace(string(body))))
		}
		for _, p := range patterns {
			for _, sem := range []string{"", "dual"} {
				for _, metric := range []string{"", "avg-distance", "closeness", "degree", "pagerank"} {
					for _, k := range []int{0, 2} {
						req := map[string]any{"dsl": p.dsl, "k": k}
						if sem != "" {
							req["semantics"] = sem
						}
						if metric != "" {
							req["metric"] = metric
						}
						post(fmt.Sprintf("%s/sem=%s/metric=%s/k=%d", p.name, sem, metric, k), "/api/v1/graphs/paper/query", req)
					}
				}
			}
		}
		post("fig1/sem=bounded", "/api/v1/graphs/paper/query", map[string]any{"dsl": dataset.PaperQueryDSL, "k": 1, "semantics": "bounded"})
		post("fig1/sem=psychic", "/api/v1/graphs/paper/query", map[string]any{"dsl": dataset.PaperQueryDSL, "semantics": "psychic"})
		post("fig1/metric=bogus", "/api/v1/graphs/paper/query", map[string]any{"dsl": dataset.PaperQueryDSL, "metric": "bogus"})
		post("fig1/sem=dual/metric=bogus", "/api/v1/graphs/paper/query", map[string]any{"dsl": dataset.PaperQueryDSL, "semantics": "dual", "metric": "bogus"})
		post("fig1/dot", "/api/v1/graphs/paper/query?dot=1", map[string]any{"dsl": dataset.PaperQueryDSL, "k": 1})
		post("fig1/sem=dual/dot", "/api/v1/graphs/paper/query?dot=1", map[string]any{"dsl": dataset.PaperQueryDSL, "k": 1, "semantics": "dual"})
		post("nograph/sem=dual", "/api/v1/graphs/nope/query", map[string]any{"dsl": dataset.PaperQueryDSL, "semantics": "dual"})
		post("batch", "/api/v1/query/batch", map[string]any{"queries": []map[string]any{
			{"graph": "paper", "dsl": dataset.PaperQueryDSL, "k": 2},
			{"graph": "paper", "dsl": goldenStarDSL, "k": 1, "metric": "pagerank"},
			{"graph": "nope", "dsl": goldenSimDSL},
			{"graph": "paper", "dsl": goldenSimDSL, "metric": "bogus"},
		}})
	}
	return lines
}

func TestQueryGolden(t *testing.T) {
	data, err := os.ReadFile(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	plain := map[string]string{} // request -> "status<TAB>body" on the plain kind
	var got []string
	for _, line := range goldenRun(t) {
		name, resp, _ := strings.Cut(line, "\t")
		kind, req, _ := strings.Cut(name, "/")
		switch kind {
		case "plain":
			plain[req] = resp
		case "indexed", "partitioned":
			if resp != plain[req] {
				t.Errorf("%s differs from plain/%s:\n got %s\nwant %s", name, req, resp, plain[req])
			}
			continue
		}
		got = append(got, line)
	}
	if len(got) != len(want) {
		t.Fatalf("%d responses, golden file has %d", len(got), len(want))
	}
	// The one difference from the parent, in a dual answer's "source": the
	// engine caches dual answers like any other, so every dual request
	// after the first for the same pattern on a server is a hit.
	seenDual := map[string]bool{}
	for i, w := range want {
		if name, _, _ := strings.Cut(w, "\t"); strings.Contains(name, "/sem=dual") && strings.Contains(w, "\t200\t") {
			kindPattern := strings.Join(strings.SplitN(name, "/", 3)[:2], "/")
			if seenDual[kindPattern] {
				w = strings.Replace(w, `"source":"direct"`, `"source":"cache"`, 1)
			}
			seenDual[kindPattern] = true
		}
		if got[i] != w {
			t.Errorf("response differs from the parent's:\n got %s\nwant %s", got[i], w)
		}
	}
}
