package server

// Continuous-query endpoints: create/list/delete subscriptions and an
// SSE event stream delivering snapshot + match deltas. The stream speaks
// plain text/event-stream so any EventSource client (or curl) can follow
// a standing query live; graph mutation endpoints fan deltas out as a
// side effect of the engine's update paths.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"expfinder/internal/api"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/subscribe"
)

func (s *Server) createSubscription(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.SubscribeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := parsePattern(api.QueryRequest{Pattern: req.Pattern, DSL: req.DSL})
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidPattern, err)
		return
	}
	sub, err := s.eng.Subscribe(name, q, subscribe.Options{
		K: req.K, Buffer: req.Buffer, NoCoalesce: req.NoCoalesce,
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, api.SubscribeResponse{
		ID:          sub.ID(),
		PatternHash: sub.PatternHash(),
		EventsURL: fmt.Sprintf("%s/graphs/%s/subscriptions/%s/events",
			api.Prefix, name, sub.ID()),
	})
}

func (s *Server) listSubscriptions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	// 404 for unknown graphs, like every other per-graph endpoint.
	if _, err := s.eng.Graph(name); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	infos := s.eng.Subscriptions(name)
	if infos == nil {
		infos = []subscribe.Info{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"subscriptions": infos,
		"stats":         s.eng.SubscriptionStats(),
	})
}

// lookupSub resolves {id} and pins it to the {name} graph so ids cannot
// be read through another graph's URL.
func (s *Server) lookupSub(r *http.Request) (*subscribe.Subscription, error) {
	sub, err := s.eng.Subscription(r.PathValue("id"))
	if err != nil {
		return nil, err
	}
	if sub.GraphName() != r.PathValue("name") {
		return nil, fmt.Errorf("%w: %q on graph %q", subscribe.ErrNoSubscription,
			sub.ID(), r.PathValue("name"))
	}
	return sub, nil
}

func (s *Server) deleteSubscription(w http.ResponseWriter, r *http.Request) {
	sub, err := s.lookupSub(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	if err := s.eng.Unsubscribe(sub.ID()); err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// sseEvent is the wire form of one subscription event. Matches are keyed
// by pattern node name, mirroring the query endpoint's response.
type sseEvent struct {
	Seq     uint64              `json:"seq"`
	Kind    string              `json:"kind"`
	Resync  bool                `json:"resync,omitempty"`
	Pairs   map[string][]int64  `json:"pairs,omitempty"`
	Added   map[string][]int64  `json:"added,omitempty"`
	Removed map[string][]int64  `json:"removed,omitempty"`
	TopK    []subscribeTopEntry `json:"top_k,omitempty"`
}

type subscribeTopEntry struct {
	Node      int64   `json:"node"`
	Rank      float64 `json:"rank"`
	Connected int     `json:"connected"`
}

// groupPairs keys match pairs by pattern node name, mirroring the query
// endpoint's matches map. Ids within a name stay in the event's sorted
// order.
func groupPairs(q *pattern.Pattern, pairs []match.Pair) map[string][]int64 {
	if len(pairs) == 0 {
		return nil
	}
	out := map[string][]int64{}
	for _, p := range pairs {
		name := q.Node(p.PNode).Name
		out[name] = append(out[name], int64(p.Node))
	}
	return out
}

func renderTopK(topk []rank.Ranked) []subscribeTopEntry {
	out := make([]subscribeTopEntry, len(topk))
	for i, t := range topk {
		out[i] = subscribeTopEntry{Node: int64(t.Node), Rank: t.Rank, Connected: t.Connected}
	}
	return out
}

// streamEvents serves GET .../subscriptions/{id}/events as Server-Sent
// Events: one "snapshot" or "delta" event per subscription event, a
// terminal "closed" event when the subscription or its graph goes away.
func (s *Server) streamEvents(w http.ResponseWriter, r *http.Request) {
	sub, err := s.lookupSub(r)
	if err != nil {
		writeErr(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeErr(w, http.StatusInternalServerError, errors.New("response writer cannot stream"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	flusher.Flush()

	q := sub.Pattern()
	for {
		ev, err := sub.Next(r.Context().Done())
		if err != nil {
			if closed, cerr := sub.Closed(); closed {
				reason := "closed"
				if errors.Is(cerr, subscribe.ErrGraphRemoved) {
					reason = "graph-removed"
				}
				fmt.Fprintf(w, "event: closed\ndata: {\"reason\":%q}\n\n", reason)
				flusher.Flush()
			}
			return // client went away or subscription closed
		}
		wire := sseEvent{
			Seq: ev.Seq, Kind: string(ev.Kind), Resync: ev.Resync,
			Pairs:   groupPairs(q, ev.Pairs),
			Added:   groupPairs(q, ev.Added),
			Removed: groupPairs(q, ev.Removed),
			TopK:    renderTopK(ev.TopK),
		}
		data, err := json.Marshal(wire)
		if err != nil {
			return
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Kind, data); err != nil {
			return
		}
		flusher.Flush()
	}
}

// subscriptionStats exposes the hub's counters.
func (s *Server) subscriptionStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.SubscriptionStats())
}
