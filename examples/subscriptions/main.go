// Subscriptions demonstrates continuous queries: two clients subscribe
// to hiring patterns on a generated collaboration network, a stream of
// edge updates is pushed through the engine, and each client follows its
// standing query through snapshot + delta events alone — folding them
// through a mirror and checking the result against a fresh evaluation at
// the end. One client re-ranks its top experts on every change.
//
//	go run ./examples/subscriptions [-nodes 3000] [-batches 15] [-batchsize 30]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"time"

	"expfinder"
)

func main() {
	nodes := flag.Int("nodes", 3000, "network size")
	batches := flag.Int("batches", 15, "number of update batches")
	batchSize := flag.Int("batchsize", 30, "edge updates per batch")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	g, err := expfinder.Generate(expfinder.GenCollaboration, expfinder.GeneratorConfig{
		Nodes: *nodes, AvgDegree: 8, Seed: *seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("network: %d people, %d collaborations\n", g.NumNodes(), g.NumEdges())

	teamQuery, err := expfinder.ParseQuery(`
node SA [label = "SA", experience >= 5] output
node SD [label = "SD", experience >= 2]
node BA [label = "BA", experience >= 3]
edge SA -> SD bound 2
edge SA -> BA bound 3
`)
	if err != nil {
		log.Fatal(err)
	}
	expertQuery, err := expfinder.ParseQuery(`
node SA [label = "SA", experience >= 8] output
node SD [label = "SD", experience >= 4]
edge SA -> SD bound 2
`)
	if err != nil {
		log.Fatal(err)
	}

	eng := expfinder.NewEngine(expfinder.EngineOptions{})
	if err := eng.AddGraph("net", g); err != nil {
		log.Fatal(err)
	}

	// Client 1 follows the team pattern's relation; client 2 watches a
	// stricter pattern and re-ranks its top-3 experts on every change.
	team, err := eng.Subscribe("net", teamQuery, expfinder.SubscriptionOptions{})
	if err != nil {
		log.Fatal(err)
	}
	experts, err := eng.Subscribe("net", expertQuery, expfinder.SubscriptionOptions{K: 3})
	if err != nil {
		log.Fatal(err)
	}
	teamMirror := expfinder.NewSubscriptionMirror(teamQuery.NumNodes())
	expertMirror := expfinder.NewSubscriptionMirror(expertQuery.NumNodes())

	drain := func(s *expfinder.Subscription, mi *expfinder.SubscriptionMirror, name string) {
		for {
			ev, ok := s.Poll()
			if !ok {
				return
			}
			if err := mi.Apply(ev); err != nil {
				log.Fatalf("%s: %v", name, err)
			}
			switch ev.Kind {
			case expfinder.EventSnapshot:
				fmt.Printf("  %-7s rev %-3d snapshot: %d pairs\n", name, ev.Seq, len(ev.Pairs))
			case expfinder.EventDelta:
				fmt.Printf("  %-7s rev %-3d delta: +%d -%d", name, ev.Seq, len(ev.Added), len(ev.Removed))
				if len(ev.TopK) > 0 {
					fmt.Printf("  top expert: node %d (rank %.2f)", ev.TopK[0].Node, ev.TopK[0].Rank)
				}
				fmt.Println()
			}
		}
	}
	drain(team, teamMirror, "team")
	drain(experts, expertMirror, "experts")

	// Stream random edge churn through the engine; every batch fans match
	// deltas out to both standing queries.
	r := rand.New(rand.NewSource(*seed + 99))
	var pushed time.Duration
	for b := 0; b < *batches; b++ {
		var ops []expfinder.Update
		if err := eng.WithGraph("net", func(gg *expfinder.Graph) error {
			scratch := gg.Clone()
			nodeIDs := scratch.Nodes()
			for len(ops) < *batchSize {
				u := nodeIDs[r.Intn(len(nodeIDs))]
				v := nodeIDs[r.Intn(len(nodeIDs))]
				if u == v {
					continue
				}
				if scratch.HasEdge(u, v) {
					if scratch.RemoveEdge(u, v) == nil {
						ops = append(ops, expfinder.DeleteEdge(u, v))
					}
				} else if scratch.AddEdge(u, v) == nil {
					ops = append(ops, expfinder.InsertEdge(u, v))
				}
			}
			return nil
		}); err != nil {
			log.Fatal(err)
		}
		start := time.Now()
		if _, _, err := eng.PushUpdates(context.Background(), "net", ops); err != nil {
			log.Fatal(err)
		}
		pushed += time.Since(start)
		fmt.Printf("batch %2d (%d updates):\n", b+1, len(ops))
		drain(team, teamMirror, "team")
		drain(experts, expertMirror, "experts")
	}

	// Both mirrors must now agree byte-for-byte with fresh evaluations.
	if err := eng.WithGraph("net", func(gg *expfinder.Graph) error {
		for _, c := range []struct {
			name string
			q    *expfinder.Query
			mi   *expfinder.SubscriptionMirror
		}{{"team", teamQuery, teamMirror}, {"experts", expertQuery, expertMirror}} {
			want := expfinder.Match(gg, c.q)
			if c.mi.Relation().String() != want.String() {
				return fmt.Errorf("%s mirror diverged from fresh Match", c.name)
			}
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	st := eng.SubscriptionStats()
	fmt.Printf("\n%d batches streamed in %s total push time\n", *batches, pushed)
	fmt.Printf("hub: %d subscriptions, %d deltas published, %d coalesced\n",
		st.Subscriptions, st.Published, st.Coalesced)
	fmt.Println("mirrors verified byte-identical to fresh evaluation — deltas alone were enough")
}
