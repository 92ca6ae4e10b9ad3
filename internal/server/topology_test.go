package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"artisan/internal/topology"
)

// TestTopologySample: the generator endpoint returns a seeded,
// reproducible draw whose embedded topology JSON re-validates.
func TestTopologySample(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "GET", "/topology/sample?seed=7", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sample: %d %s", rec.Code, body)
	}
	var resp TopologySampleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Seed != 7 || resp.Stages < topology.MinStageCount || resp.Stages > topology.MaxStageCount {
		t.Errorf("resp seed=%d stages=%d", resp.Seed, resp.Stages)
	}
	if len(resp.Families) == 0 {
		t.Error("no compensation families reported")
	}
	if !strings.Contains(resp.Netlist, "Gm1") || !strings.Contains(resp.Netlist, "CL") {
		t.Errorf("netlist missing skeleton devices:\n%s", resp.Netlist)
	}
	topo, err := topology.FromJSON(resp.Topology)
	if err != nil {
		t.Fatalf("embedded topology invalid: %v", err)
	}
	if topo.NumStages() != resp.Stages {
		t.Errorf("stages %d != reported %d", topo.NumStages(), resp.Stages)
	}

	// Same seed, same bytes; bad seed is a client error.
	_, again := doJSON(t, srv, "GET", "/topology/sample?seed=7", nil)
	if string(body) != string(again) {
		t.Error("repeated seed produced different draws")
	}
	rec, _ = doJSON(t, srv, "GET", "/topology/sample?seed=banana", nil)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad seed: %d", rec.Code)
	}
}

// TestDesignVerify: the Verify flag attaches a groundedness report to
// the design response; the domain designer's transcript is grounded, so
// the verdict metric increments on the pass side.
func TestDesignVerify(t *testing.T) {
	srv := newServer(t, Options{})
	rec, body := doJSON(t, srv, "POST", "/design",
		DesignRequest{Group: "G-1", Seed: 1, Verify: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Grounded == nil {
		t.Fatal("Verify did not attach a grounded report")
	}
	if resp.Grounded.Citations == 0 {
		t.Error("verifier extracted no citations from the design transcript")
	}

	// Without the flag the report is omitted.
	_, body = doJSON(t, srv, "POST", "/design", DesignRequest{Group: "G-1", Seed: 1})
	var plain DesignResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatal(err)
	}
	if plain.Grounded != nil {
		t.Error("grounded report attached without Verify")
	}

	// The verdict counter shows up on /metrics.
	_, metrics := doJSON(t, srv, "GET", "/metrics", nil)
	if !strings.Contains(string(metrics), "artisan_ground_checks_total") {
		t.Error("ground-check metric not exported")
	}
}
