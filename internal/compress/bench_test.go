package compress

import (
	"context"
	"fmt"
	"testing"

	"expfinder/internal/bsim"
	"expfinder/internal/dataset"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/testutil"
)

var benchRelation *match.Relation

// BenchmarkQuotientAfterWrites measures where a maintained quotient stops
// paying, which is how payingRatio was chosen. The graph is the repository
// benchmark's (testutil.CollabGraph), compressed over the experience view
// as the benchmark compresses it, then fed the benchmark's ingest stream:
// 16-op batches of uniformly random edge ops, half of them deletes. After
// 0, 100, 200, 300, 500 and 1,000 batches, every shape of the engine's
// plan-by-shape benchmark that the view covers is evaluated two ways, one
// worker each: "direct" is the bounded kernel on the graph, "quotient" the
// kernel on the maintained quotient plus decompression. Each cell reports
// Ratio() as the "ratio" metric, and the two relations are compared before
// the clock starts. Run it as
//
//	go test -run '^$' -bench QuotientAfterWrites -cpu 1 ./internal/compress
func BenchmarkQuotientAfterWrites(b *testing.B) {
	shapes := []struct{ name, dsl string }{
		{"broad", testutil.BroadDSL},
		{"star", testutil.StarDSL},
		{"shallow", testutil.ShallowDSL},
		{"fig1", dataset.PaperQueryDSL},
	}
	g := testutil.CollabGraph().Clone()
	view := View{"experience"}
	c := CompressWithView(g, Bisimulation, view)
	writes := testutil.NewEdgeStream(g, 1)
	ctx := context.Background()
	direct := func(q *pattern.Pattern) *match.Relation {
		return bsim.Evaluate(ctx, g, q, match.Bounded, 1, nil)
	}
	onQuotient := func(q *pattern.Pattern) *match.Relation {
		return c.Decompress(bsim.Evaluate(ctx, c.Graph(), q, match.Bounded, 1, nil))
	}
	done := 0
	for _, at := range []int{0, 100, 200, 300, 500, 1000} {
		for ; done < at; done++ {
			if err := c.Sync(writes.Batch(16)); err != nil {
				b.Fatal(err)
			}
		}
		ratio := c.Ratio()
		b.Logf("%4d batches: Ratio %.3f, node ratio %.3f", at, ratio,
			float64(c.Graph().NumNodes())/float64(g.NumNodes()))
		for _, sh := range shapes {
			q := testutil.MustParse(sh.dsl)
			if !view.Compatible(q) {
				b.Fatalf("the view does not cover shape %s", sh.name)
			}
			if !onQuotient(q).Equal(direct(q)) {
				b.Fatalf("%d batches, %s: the quotient's relation differs from the kernel's", at, sh.name)
			}
			for _, side := range []struct {
				name string
				eval func(*pattern.Pattern) *match.Relation
			}{{"direct", direct}, {"quotient", onQuotient}} {
				b.Run(fmt.Sprintf("batches=%d/%s/%s", at, sh.name, side.name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						benchRelation = side.eval(q)
					}
					b.ReportMetric(ratio, "ratio")
				})
			}
		}
	}
}
