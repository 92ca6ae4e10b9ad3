package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// newServer builds a node with NewServer and fails the test when it
// cannot.
func newServer(t testing.TB, o Options) *Server {
	t.Helper()
	s, err := NewServer(o)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func doJSON(t *testing.T, srv http.Handler, method, path string, body any) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req := httptest.NewRequest(method, path, &buf)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	return rec, rec.Body.Bytes()
}

func TestHealthz(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "GET", "/healthz", nil)
	if rec.Code != http.StatusOK || !strings.Contains(string(body), "ok") {
		t.Fatalf("healthz: %d %s", rec.Code, body)
	}
}

func TestGroups(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "GET", "/groups", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("groups: %d", rec.Code)
	}
	var groups []groupJSON
	if err := json.Unmarshal(body, &groups); err != nil {
		t.Fatal(err)
	}
	if len(groups) != 5 || groups[0].Name != "G-1" || groups[4].CLF != 1e-9 {
		t.Errorf("groups payload wrong: %+v", groups)
	}
	if !strings.Contains(groups[0].Prompt, "design an opamp") {
		t.Error("prompt missing")
	}
}

func TestArchitectures(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "GET", "/architectures", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("architectures: %d", rec.Code)
	}
	if !strings.Contains(string(body), "DFCFC") || !strings.Contains(string(body), "damping") {
		t.Errorf("architectures payload: %s", body)
	}
}

func TestDesignByGroup(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "POST", "/design",
		DesignRequest{Group: "G-1", Seed: 1, Transcript: true})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Success || resp.Arch != "NMC" {
		t.Errorf("resp = %+v", resp)
	}
	if resp.Metrics == nil || resp.Metrics.GainDB < 85 {
		t.Errorf("metrics = %+v", resp.Metrics)
	}
	if !strings.Contains(resp.Netlist, "Gm1") {
		t.Error("netlist missing")
	}
	if !strings.Contains(resp.Transistor, "M1a") {
		t.Error("transistor netlist missing")
	}
	if !strings.Contains(resp.Transcript, "Q0:") {
		t.Error("transcript missing")
	}
	if resp.Session["qaSteps"] < 5 {
		t.Errorf("session counters: %v", resp.Session)
	}
	if resp.ModeledRun == nil || resp.ModeledRun.Artisan == "" {
		t.Error("modeled runtime missing")
	}
}

func TestDesignByPrompt(t *testing.T) {
	rec, body := doJSON(t, newServer(t, Options{}), "POST", "/design",
		DesignRequest{Prompt: "gain >85dB, PM >55°, GBW >0.7MHz, Power <250uW, CL = 1nF"})
	if rec.Code != http.StatusOK {
		t.Fatalf("design: %d %s", rec.Code, body)
	}
	var resp DesignResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatal(err)
	}
	if !resp.Success || resp.Arch != "DFCFC" {
		t.Errorf("1 nF prompt should yield DFCFC: %+v", resp.Arch)
	}
}

func TestDesignValidation(t *testing.T) {
	cases := []struct {
		name string
		req  any
		code int
	}{
		{"empty", DesignRequest{}, http.StatusBadRequest},
		{"bad group", DesignRequest{Group: "G-9"}, http.StatusBadRequest},
		{"bad prompt", DesignRequest{Prompt: "hello"}, http.StatusBadRequest},
		{"width too big", DesignRequest{Group: "G-1", TreeWidth: 99}, http.StatusBadRequest},
		{"bad temperature", DesignRequest{Group: "G-1", Temperature: 5}, http.StatusBadRequest},
	}
	for _, c := range cases {
		rec, _ := doJSON(t, newServer(t, Options{}), "POST", "/design", c.req)
		if rec.Code != c.code {
			t.Errorf("%s: code %d, want %d", c.name, rec.Code, c.code)
		}
	}
	// Malformed JSON body.
	req := httptest.NewRequest("POST", "/design", strings.NewReader("{nope"))
	rec := httptest.NewRecorder()
	newServer(t, Options{}).ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("malformed JSON: %d", rec.Code)
	}
}

func TestSimulate(t *testing.T) {
	src := `* one pole
V1 in 0 AC 1
G1 0 out in 0 1m
Ro out 0 1MEG
CL out 0 10p
.end`
	rec, body := doJSON(t, newServer(t, Options{}), "POST", "/simulate", SimulateRequest{Netlist: src})
	if rec.Code != http.StatusOK {
		t.Fatalf("simulate: %d %s", rec.Code, body)
	}
	var m metricsJSON
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatal(err)
	}
	if m.GainDB < 59.9 || m.GainDB > 60.1 {
		t.Errorf("gain = %g", m.GainDB)
	}
	if m.NumPole != 1 || !m.Stable {
		t.Errorf("metrics = %+v", m)
	}
}

func TestSimulateErrors(t *testing.T) {
	rec, _ := doJSON(t, newServer(t, Options{}), "POST", "/simulate", SimulateRequest{Netlist: "garbage"})
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad netlist: %d", rec.Code)
	}
	rec, _ = doJSON(t, newServer(t, Options{}), "POST", "/simulate",
		SimulateRequest{Netlist: "V1 in 0 1\nR1 in 0 1k\n.end", Out: "missing"})
	if rec.Code != http.StatusUnprocessableEntity {
		t.Errorf("missing node: %d", rec.Code)
	}
}

func TestMethodRouting(t *testing.T) {
	rec, _ := doJSON(t, newServer(t, Options{}), "GET", "/design", nil)
	if rec.Code != http.StatusMethodNotAllowed && rec.Code != http.StatusNotFound {
		t.Errorf("GET /design: %d", rec.Code)
	}
}
