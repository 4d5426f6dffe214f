package server

// Partition endpoints: build, inspect, and drop the edge-cut
// partitioning of a managed graph. No query reads it, and the next write
// detaches it; the stats expose fragment balance, cut edges, ghost
// counts, and the cumulative boundary-exchange volume.

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"expfinder/internal/api"
	"expfinder/internal/partition"
)

func (s *Server) buildPartitions(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var req api.PartitionRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20)).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	st, err := s.eng.PartitionGraph(name, partition.Options{
		Parts:    req.Parts,
		Strategy: partition.Strategy(req.Strategy),
	})
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) partitionStats(w http.ResponseWriter, r *http.Request) {
	st, err := s.eng.PartitionStats(r.PathValue("name"))
	if err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) dropPartitions(w http.ResponseWriter, r *http.Request) {
	if err := s.eng.DropPartitions(r.PathValue("name")); err != nil {
		writeErr(w, statusFor(err), err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
