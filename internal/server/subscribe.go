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
	"strconv"

	"expfinder/internal/api"
	"expfinder/internal/jsonenc"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/subscribe"
)

func (s *Server) createSubscription(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.SubscribeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := s.parsePattern(r.Context(), req.DSL, req.Pattern)
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

// streamEvents serves GET .../subscriptions/{id}/events as Server-Sent
// Events: one "snapshot" or "delta" event per subscription event, a
// terminal "closed" event when the subscription or its graph goes away.
// Frames are written by hand into one buffer the connection reuses.
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
	var buf []byte
	for {
		ev, err := sub.Next(r.Context().Done())
		if err != nil {
			if closed, cerr := sub.Closed(); closed {
				reason := "closed"
				if errors.Is(cerr, subscribe.ErrGraphRemoved) {
					reason = "graph-removed"
				}
				buf = jsonenc.AppendString(append(buf[:0], "event: closed\ndata: {\"reason\":"...), reason)
				w.Write(append(buf, "}\n\n"...))
				flusher.Flush()
			}
			return // client went away or subscription closed
		}
		buf = appendEvent(buf[:0], q, ev)
		if _, err := w.Write(buf); err != nil {
			return
		}
		flusher.Flush()
	}
}

// appendEvent appends ev as one SSE frame: its kind on the event line and
// on the data line the object {"seq","kind","resync","pairs","added",
// "removed","top_k"}, each of the last five left out when false or empty.
// Pairs are keyed by pattern node name as in a query's matches, and top_k
// entries are the query's less the display name.
func appendEvent(dst []byte, q *pattern.Pattern, ev subscribe.Event) []byte {
	dst = append(append(append(dst, "event: "...), ev.Kind...), "\ndata: "...)
	dst = strconv.AppendUint(append(dst, `{"seq":`...), ev.Seq, 10)
	dst = jsonenc.AppendString(append(dst, `,"kind":`...), string(ev.Kind))
	if ev.Resync {
		dst = append(dst, `,"resync":true`...)
	}
	if len(ev.Pairs) > 0 {
		dst = match.AppendPairsJSON(append(dst, `,"pairs":`...), q, ev.Pairs)
	}
	if len(ev.Added) > 0 {
		dst = match.AppendPairsJSON(append(dst, `,"added":`...), q, ev.Added)
	}
	if len(ev.Removed) > 0 {
		dst = match.AppendPairsJSON(append(dst, `,"removed":`...), q, ev.Removed)
	}
	if len(ev.TopK) > 0 {
		dst = appendTopK(append(dst, `,"top_k":`...), ev.TopK, nil)
	}
	return append(dst, "}\n\n"...)
}

// subscriptionStats exposes the hub's counters.
func (s *Server) subscriptionStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.eng.SubscriptionStats())
}
