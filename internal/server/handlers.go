package server

// Handlers for the API route table (routes.go). Wire shapes live in
// internal/api; every handler here decodes into and encodes from those
// DTOs, shared verbatim by the /api/v1 surface and the legacy /api
// aliases. Handlers run innermost in the middleware chain, so
// r.Context() already carries the request deadline when one is
// configured — engine calls taking a context stop computing when the
// client's budget runs out.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"expfinder/internal/api"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/engine"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/viz"
)

// queryResponse is kept as an alias so pre-v1 in-package call sites
// (and the server tests) keep compiling against the api type.
type queryResponse = api.QueryResponse

func (s *Server) listGraphs(w http.ResponseWriter, r *http.Request) {
	var out []api.GraphSummary
	for _, name := range s.eng.ListGraphs() {
		var en api.GraphSummary
		if err := s.eng.WithGraph(name, func(g *graph.Graph) error {
			en = api.GraphSummary{Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges()}
			return nil
		}); err != nil {
			continue
		}
		out = append(out, en)
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) createGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 256<<20))
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var req api.CreateGraphRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	var g *graph.Graph
	switch {
	case req.Generator != nil:
		g, err = generator.Generate(generator.Kind(req.Generator.Kind), generator.Config{
			Nodes: req.Generator.Nodes, AvgDegree: req.Generator.AvgDegree, Seed: req.Generator.Seed,
		})
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	case req.Graph != nil:
		g = graph.New(0)
		if err := g.UnmarshalJSON(req.Graph); err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
	default:
		writeErr(w, http.StatusBadRequest, errors.New("request needs either graph or generator"))
		return
	}
	if err := s.eng.AddGraph(name, g); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, api.CreateGraphResponse{
		Name: name, Nodes: g.NumNodes(), Edges: g.NumEdges(),
	})
}

// Read endpoints serialize into a buffer inside the graph's read scope
// and write to the client after releasing it: streaming to a slow client
// under the lock would let that client stall the graph's writers (and,
// via RWMutex writer preference, every other reader).

func (s *Server) getGraph(w http.ResponseWriter, r *http.Request) {
	var buf jsonBuilder
	err := s.eng.WithGraph(r.PathValue("name"), func(g *graph.Graph) error {
		return g.WriteJSON(&buf)
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(buf.buf)
}

func (s *Server) deleteGraph(w http.ResponseWriter, r *http.Request) {
	if err := s.eng.RemoveGraph(r.PathValue("name")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// graphStats renders one read of the graph and everything attached to
// it, so every part of the body describes the same version.
func (s *Server) graphStats(w http.ResponseWriter, r *http.Request) {
	var body map[string]any
	err := s.eng.WithAttached(r.PathValue("name"), func(g *graph.Graph, a engine.Attached) error {
		st := g.ComputeStats()
		body = map[string]any{
			"nodes": st.Nodes, "edges": st.Edges,
			"max_out_degree": st.MaxOutDeg, "max_in_degree": st.MaxInDeg,
			"labels": st.Labels, "version": g.Version(),
			// The statistics: log-bucketed degree histograms, label
			// frequencies, and label-pair selectivities. Works on followers
			// too — a pure read.
			"statistics": a.Statistics,
		}
		if a.Index != nil {
			body["index"] = a.Index
		}
		if a.Partitions != nil {
			body["partitions"] = a.Partitions
		}
		// A quotient is listed while attached; the write that takes it
		// past compress's cut drops it.
		if a.Compressed != nil {
			body["compressed"] = compressResponse(a.Compressed)
		}
		return nil
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) graphDOT(w http.ResponseWriter, r *http.Request) {
	var buf jsonBuilder
	err := s.eng.WithGraph(r.PathValue("name"), func(g *graph.Graph) error {
		return viz.WriteGraph(&buf, g, viz.Options{MaxNodes: 500, DrillDown: r.URL.Query().Get("drilldown") == "1"})
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "text/vnd.graphviz")
	_, _ = w.Write(buf.buf)
}

// metricByName resolves a ranking metric. "" and the paper's default by
// name are nil: the ranking every cached answer already carries.
func metricByName(name string) (rank.Metric, error) {
	switch name {
	case "", rank.AvgDistance{}.Name():
		return nil, nil
	case rank.Closeness{}.Name():
		return rank.Closeness{}, nil
	case rank.Degree{}.Name():
		return rank.Degree{}, nil
	case (rank.PageRank{}).Name():
		return rank.PageRank{}, nil
	default:
		return nil, fmt.Errorf("unknown metric %q", name)
	}
}

func parsePattern(req api.QueryRequest) (*pattern.Pattern, error) {
	switch {
	case req.DSL != "":
		return pattern.Parse(req.DSL)
	case req.Pattern != nil:
		q := pattern.New()
		if err := q.UnmarshalJSON(req.Pattern); err != nil {
			return nil, err
		}
		return q, nil
	default:
		return nil, errors.New("request needs pattern or dsl")
	}
}

// engineQuery resolves a wire query's metric and semantics names into the
// engine's request.
func engineQuery(graphName string, q *pattern.Pattern, k int, metricName, semanticsName string) (engine.QueryRequest, error) {
	metric, err := metricByName(metricName)
	if err != nil {
		return engine.QueryRequest{}, err
	}
	sem, err := match.ParseSemantics(semanticsName)
	if err != nil {
		return engine.QueryRequest{}, err
	}
	return engine.QueryRequest{Graph: graphName, Pattern: q, K: k, Semantics: sem, Metric: metric}, nil
}

func (s *Server) query(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := parsePattern(req)
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidPattern, err)
		return
	}
	ereq, err := engineQuery(name, q, req.K, req.Metric, req.Semantics)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var resp queryResponse
	withDot := r.URL.Query().Get("dot") == "1"
	ereq.Render = func(g *graph.Graph, res *engine.Result) { resp = responseFor(g, q, res, withDot) }
	if _, err := s.eng.Execute(r.Context(), ereq); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	resp.Trace = inlineTrace(r)
	writeJSON(w, http.StatusOK, resp)
}

// responseFor renders an engine result into the wire form shared by the
// single-query and batch endpoints. It runs as the query's Render, inside
// the read scope the answer was computed in, so display names and DOT
// come from the same graph version as the matches.
func responseFor(g *graph.Graph, q *pattern.Pattern, res *engine.Result, withDot bool) queryResponse {
	resp := queryResponse{
		Plan:      string(res.Plan),
		Source:    string(res.Source),
		ElapsedUS: res.Elapsed.Microseconds(),
		Matches:   map[string][]int64{},
	}
	for i := 0; i < q.NumNodes(); i++ {
		idx := pattern.NodeIdx(i)
		ids := res.Relation.MatchesOf(idx)
		out := make([]int64, len(ids))
		for j, id := range ids {
			out[j] = int64(id)
		}
		resp.Matches[q.Node(idx).Name] = out
	}
	for _, t := range res.TopK {
		entry := api.TopEntry{Node: int64(t.Node), Rank: t.Rank, Connected: t.Connected}
		if v, ok := g.Attr(t.Node, "name"); ok {
			entry.Name = v.Str()
		}
		resp.TopK = append(resp.TopK, entry)
	}
	if withDot {
		var dot jsonBuilder
		if err := viz.WriteTopK(&dot, g, res.ResultGraph, res.TopK, viz.Options{}); err == nil {
			resp.ResultDOT = dot.String()
		}
	}
	return resp
}

// queryBatch evaluates many queries in one request through the engine's
// bounded parallel executor. Outcomes come back in request order, and a
// failed query — one shed by a full execution pool included — never
// fails the batch.
func (s *Server) queryBatch(w http.ResponseWriter, r *http.Request) {
	var req api.BatchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if len(req.Queries) == 0 {
		writeErr(w, http.StatusBadRequest, errors.New("request needs a non-empty queries list"))
		return
	}
	entries := make([]api.BatchEntry, len(req.Queries))
	var reqs []engine.QueryRequest
	var at []int // reqs index -> entries index
	for i, bq := range req.Queries {
		q, err := parsePattern(api.QueryRequest{Pattern: bq.Pattern, DSL: bq.DSL})
		var ereq engine.QueryRequest
		if err == nil {
			ereq, err = engineQuery(bq.Graph, q, bq.K, bq.Metric, bq.Semantics)
		}
		if err != nil {
			entries[i].Error = err.Error()
			continue
		}
		ereq.Render = func(g *graph.Graph, res *engine.Result) { entries[i].QueryResponse = responseFor(g, q, res, false) }
		reqs = append(reqs, ereq)
		at = append(at, i)
	}
	for j, oc := range s.eng.QueryBatch(r.Context(), reqs) {
		if oc.Err != nil {
			if errors.As(oc.Err, new(*engine.ErrOverloaded)) {
				s.mShed.Inc()
			}
			entries[at[j]].Error = oc.Err.Error()
		}
	}
	writeJSON(w, http.StatusOK, api.BatchResponse{Results: entries, Trace: inlineTrace(r)})
}

func (s *Server) applyUpdates(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.UpdateRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 64<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	ops := make([]incremental.Update, 0, len(req.Ops))
	for _, o := range req.Ops {
		switch o.Op {
		case "insert":
			ops = append(ops, incremental.Insert(graph.NodeID(o.From), graph.NodeID(o.To)))
		case "delete":
			ops = append(ops, incremental.Delete(graph.NodeID(o.From), graph.NodeID(o.To)))
		default:
			writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown op %q", o.Op))
			return
		}
	}
	deltas, notified, err := s.eng.PushUpdates(r.Context(), name, ops)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	out := make([]api.DeltaSummary, 0, len(deltas))
	for _, d := range deltas {
		out = append(out, api.DeltaSummary{PatternHash: d.PatternHash, Added: len(d.Added), Removed: len(d.Removed)})
	}
	writeJSON(w, http.StatusOK, api.UpdateResponse{
		Applied: len(ops), Deltas: out, Notified: notified,
	})
}

func (s *Server) addNode(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.AddNodeRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	attrs := graph.Attrs(req.Attrs)
	id, err := s.eng.AddNode(name, req.Label, attrs)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusCreated, api.AddNodeResponse{ID: int64(id)})
}

func parseNodeID(r *http.Request) (graph.NodeID, error) {
	raw := r.PathValue("id")
	id, err := json.Number(raw).Int64()
	if err != nil || id < 0 {
		return graph.Invalid, fmt.Errorf("bad node id %q", raw)
	}
	return graph.NodeID(id), nil
}

func (s *Server) removeNode(w http.ResponseWriter, r *http.Request) {
	id, err := parseNodeID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	if err := s.eng.RemoveNode(name, id); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) setNodeAttrs(w http.ResponseWriter, r *http.Request) {
	id, err := parseNodeID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	var attrs map[string]graph.Value
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&attrs); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	name := r.PathValue("name")
	for key, v := range attrs {
		if err := s.eng.SetNodeAttr(name, id, key, v); err != nil {
			writeErr(w, statusFor(err), err)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) compressGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.CompressRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	scheme := compress.Bisimulation
	if req.Scheme == compress.SimulationEquivalence.String() {
		scheme = compress.SimulationEquivalence
	} else if req.Scheme != "" && req.Scheme != compress.Bisimulation.String() {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("unknown scheme %q", req.Scheme))
		return
	}
	var view compress.View
	if !req.FullView {
		view = compress.View(req.View)
		if req.View == nil {
			view = compress.View{}
		}
	}
	c, err := s.eng.CompressGraph(name, scheme, view)
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, compressResponse(c))
}

func compressResponse(c *compress.Compressed) api.CompressResponse {
	return api.CompressResponse{
		Scheme: c.Scheme().String(),
		Nodes:  c.Graph().NumNodes(),
		Edges:  c.Graph().NumEdges(),
		Ratio:  c.Ratio(),
	}
}

func (s *Server) dropCompression(w http.ResponseWriter, r *http.Request) {
	if err := s.eng.DropCompression(r.PathValue("name")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) buildIndex(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.IndexRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.eng.BuildIndex(name, distindex.Options{Landmarks: req.Landmarks})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) indexStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.eng.IndexStats(r.PathValue("name"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) dropIndex(w http.ResponseWriter, r *http.Request) {
	if err := s.eng.DropIndex(r.PathValue("name")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) registerQuery(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.QueryRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8<<20)).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	q, err := parsePattern(req)
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidPattern, err)
		return
	}
	if err := s.eng.RegisterQuery(name, q); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, api.RegisterResponse{Registered: q.Hash()})
}

func (s *Server) cacheStats(w http.ResponseWriter, r *http.Request) {
	st := s.eng.CacheStats()
	writeJSON(w, http.StatusOK, api.CacheStatsResponse{
		Hits: st.Hits, Misses: st.Misses, Evictions: st.Evictions,
		Entries: st.Entries, Bytes: st.Bytes, BudgetBytes: st.BudgetBytes,
	})
}
