package server

// Handlers for the API route table (routes.go). Wire shapes live in
// internal/api; every handler here decodes into and encodes from those
// DTOs, except that query and batch responses are written by hand
// (appendQueryResponse) to the bytes encoding/json would write for
// them. Handlers run innermost in the middleware chain, so
// r.Context() already carries the request deadline when one is
// configured — engine calls taking a context stop computing when the
// client's budget runs out.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"expfinder/internal/api"
	"expfinder/internal/compress"
	"expfinder/internal/distindex"
	"expfinder/internal/engine"
	"expfinder/internal/generator"
	"expfinder/internal/graph"
	"expfinder/internal/incremental"
	"expfinder/internal/jsonenc"
	"expfinder/internal/match"
	"expfinder/internal/pattern"
	"expfinder/internal/rank"
	"expfinder/internal/trace"
	"expfinder/internal/viz"
)

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
	q, err := s.parsePattern(r.Context(), req.DSL, req.Pattern)
	if err != nil {
		writeCode(w, http.StatusBadRequest, api.CodeInvalidPattern, err)
		return
	}
	ereq, err := engineQuery(name, q, req.K, req.Metric, req.Semantics)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	bp := getResponseBuf()
	defer putResponseBuf(bp)
	withDot := r.URL.Query().Get("dot") == "1"
	ereq.Render = func(g *graph.Graph, res *engine.Result) { *bp = appendQueryResponse(*bp, g, q, res, withDot) }
	if _, err := s.eng.Execute(r.Context(), ereq); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	buf, err := closeResponse(*bp, inlineTrace(r))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	*bp = buf
	writeBody(w, http.StatusOK, buf)
}

// responseBufs holds the buffers query and batch responses are written
// into (as *[]byte, so a Put allocates nothing). A buffer goes back once
// the response is written: writeBody's one Write copies it out, and
// nothing else keeps it. One grown past maxPooledResponse (a DOT
// response, a large batch) is dropped instead.
var responseBufs = sync.Pool{New: func() any { return new([]byte) }}

const maxPooledResponse = 64 << 10

func getResponseBuf() *[]byte { return responseBufs.Get().(*[]byte) }

func putResponseBuf(bp *[]byte) {
	if cap(*bp) > maxPooledResponse {
		return
	}
	*bp = (*bp)[:0]
	responseBufs.Put(bp)
}

// appendQueryResponse appends res to dst as an api.QueryResponse object
// less its trace and closing brace, which the caller appends (see
// closeResponse): byte for byte what encoding/json writes for the same
// response, with the cache entry's encoded matches copied in as they are.
// It runs as the query's Render, inside the read scope the answer was
// computed in, so display names and DOT come from the same graph version
// as the matches.
func appendQueryResponse(dst []byte, g *graph.Graph, q *pattern.Pattern, res *engine.Result, withDot bool) []byte {
	dst = slices.Grow(dst, len(res.Matches)+96*len(res.TopK)+128)
	dst = jsonenc.AppendString(append(dst, `{"plan":`...), string(res.Plan))
	dst = jsonenc.AppendString(append(dst, `,"source":`...), string(res.Source))
	dst = strconv.AppendInt(append(dst, `,"elapsed_us":`...), res.Elapsed.Microseconds(), 10)
	dst = append(append(dst, `,"matches":`...), res.Matches...)
	dst = appendTopK(append(dst, `,"top_k":`...), res.TopK, g)
	if withDot {
		var dot jsonBuilder
		rg := match.BuildResultGraph(g, q, res.Relation)
		if err := viz.WriteTopK(&dot, g, rg, res.TopK, viz.Options{}); err == nil && len(dot.buf) > 0 {
			dst = jsonenc.AppendString(append(dst, `,"result_dot":`...), dot.String())
		}
	}
	return dst
}

// appendTopK writes every ranking on the wire: topK as a top_k array of
// {"node","name","rank","connected"} entries, or null when empty. Query
// responses pass the graph, whose display name an entry carries when it
// has one; subscription events pass nil and carry none. A match connected
// to nothing ranks +Inf, which JSON cannot spell: its rank is written as
// null (and its connected is 0).
func appendTopK(dst []byte, topK []rank.Ranked, g *graph.Graph) []byte {
	if len(topK) == 0 {
		return append(dst, "null"...)
	}
	dst = append(dst, '[')
	for i, t := range topK {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(append(dst, `{"node":`...), int64(t.Node), 10)
		if g != nil {
			if v, ok := g.Attr(t.Node, "name"); ok && v.Str() != "" {
				dst = jsonenc.AppendString(append(dst, `,"name":`...), v.Str())
			}
		}
		dst = append(dst, `,"rank":`...)
		if math.IsInf(t.Rank, 0) || math.IsNaN(t.Rank) {
			dst = append(dst, "null"...)
		} else {
			dst = jsonenc.AppendFloat(dst, t.Rank)
		}
		dst = strconv.AppendInt(append(dst, `,"connected":`...), int64(t.Connected), 10)
		dst = append(dst, '}')
	}
	return append(dst, ']')
}

// closeResponse appends the optional "trace" member and closes the
// object appendQueryResponse (or batchResponse) opened, with the newline
// json.Encoder ends a value with.
func closeResponse(dst []byte, tr *trace.TraceJSON) ([]byte, error) {
	if tr != nil {
		b, err := json.Marshal(tr)
		if err != nil {
			return nil, fmt.Errorf("encode trace: %w", err)
		}
		dst = append(append(dst, `,"trace":`...), b...)
	}
	return append(dst, '}', '\n'), nil
}

// zeroResponse is the zero api.QueryResponse a failed batch entry embeds,
// open for the entry's error.
const zeroResponse = `{"plan":"","source":"","elapsed_us":0,"matches":null,"top_k":null`

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
	rendered := make([][]byte, len(req.Queries)) // appendQueryResponse, per entry
	pooled := make([]*[]byte, len(req.Queries))  // the buffers rendered points into
	defer func() {
		for _, bp := range pooled {
			if bp != nil {
				putResponseBuf(bp)
			}
		}
	}()
	errs := make([]string, len(req.Queries))
	var reqs []engine.QueryRequest
	var at []int // reqs index -> request index
	for i, bq := range req.Queries {
		q, err := s.parsePattern(r.Context(), bq.DSL, bq.Pattern)
		var ereq engine.QueryRequest
		if err == nil {
			ereq, err = engineQuery(bq.Graph, q, bq.K, bq.Metric, bq.Semantics)
		}
		if err != nil {
			errs[i] = err.Error()
			continue
		}
		ereq.Render = func(g *graph.Graph, res *engine.Result) {
			bp := getResponseBuf()
			*bp = appendQueryResponse(*bp, g, q, res, false)
			pooled[i], rendered[i] = bp, *bp
		}
		reqs = append(reqs, ereq)
		at = append(at, i)
	}
	for j, oc := range s.eng.QueryBatch(r.Context(), reqs) {
		if oc.Err != nil {
			if errors.As(oc.Err, new(*engine.ErrOverloaded)) {
				s.mShed.Inc()
			}
			errs[at[j]] = oc.Err.Error()
		}
	}
	buf, err := batchResponse(rendered, errs, inlineTrace(r))
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeBody(w, http.StatusOK, buf)
}

// batchResponse encodes an api.BatchResponse: entry i is rendered[i], the
// open object appendQueryResponse wrote, or for a query that failed the
// zero response with its error, errs[i].
func batchResponse(rendered [][]byte, errs []string, tr *trace.TraceJSON) ([]byte, error) {
	size := 64 // the wrapper; a failed entry's error may grow the buffer once
	for _, rb := range rendered {
		size += len(rb) + 1
	}
	buf := append(make([]byte, 0, size), `{"results":[`...)
	for i, rb := range rendered {
		if i > 0 {
			buf = append(buf, ',')
		}
		if rb != nil {
			buf = append(buf, rb...)
		} else {
			buf = jsonenc.AppendString(append(buf, zeroResponse+`,"error":`...), errs[i])
		}
		buf = append(buf, '}')
	}
	return closeResponse(append(buf, ']'), tr)
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
	id, err := s.eng.AddNode(r.Context(), name, req.Label, attrs)
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
	if err := s.eng.RemoveNode(r.Context(), name, id); err != nil {
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
		if err := s.eng.SetNodeAttr(r.Context(), name, id, key, v); err != nil {
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
	q, err := s.parsePattern(r.Context(), req.DSL, req.Pattern)
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
