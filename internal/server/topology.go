package server

// GET /topology/sample exposes the constrained random topology
// generator over HTTP: a seeded, reproducible draw from the 2–4 stage
// design space, returned with its elaborated netlist. perfbench's
// circuit_sim workload draws from the same generator in-process; this
// endpoint lets external harnesses (and curious humans) pull
// cache-hostile workloads from a running node.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"artisan/internal/topology"
)

// TopologySampleResponse is the GET /topology/sample reply.
type TopologySampleResponse struct {
	Seed     int64           `json:"seed"`
	Name     string          `json:"name"`
	Stages   int             `json:"stages"`
	Families []string        `json:"families"`
	Topology json.RawMessage `json:"topology"`
	Netlist  string          `json:"netlist"`
}

// handleTopologySample serves GET /topology/sample?seed=N.
func (s *Server) handleTopologySample(w http.ResponseWriter, r *http.Request) {
	seed := int64(1)
	if q := r.URL.Query().Get("seed"); q != "" {
		v, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, fmt.Errorf("bad seed %q", q))
			return
		}
		seed = v
	}
	topo, nl, err := topology.NewGenerator(seed).Netlist()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	blob, err := topo.ToJSON()
	if err != nil {
		writeErr(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, TopologySampleResponse{
		Seed:     seed,
		Name:     topo.Name,
		Stages:   topo.NumStages(),
		Families: topo.CompFamilies(),
		Topology: blob,
		Netlist:  nl.String(),
	})
}
