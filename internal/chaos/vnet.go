package chaos

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"
)

// FaultRule is the live fault state of one virtual host. The zero value
// is a healthy link.
type FaultRule struct {
	// Partitioned drops every request to the host with a transport error
	// — the caller sees the same failure a severed TCP link produces.
	Partitioned bool
	// Latency delays every request by a fixed amount before dispatch
	// (a slow-node brownout). The sleep respects request-context
	// cancellation, so deadline budgets cut through it.
	Latency time.Duration
	// TruncateNext cuts the next N response bodies to half length —
	// modelling a connection dropped mid-response, after the server did
	// the work but before the client read the answer.
	TruncateNext int
}

// VNet is an in-process virtual network: an http.RoundTripper that
// dispatches synthetic hostnames ("http://node0") straight into
// registered http.Handlers. Because no real sockets are involved, node
// "addresses" are stable across kill/restart cycles, there is no port
// churn, and fault injection is exact — a partition drops precisely the
// requests the script says it drops.
type VNet struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
	rules map[string]*FaultRule
}

// NewVNet builds an empty virtual network.
func NewVNet() *VNet {
	return &VNet{
		hosts: make(map[string]http.Handler),
		rules: make(map[string]*FaultRule),
	}
}

// Register connects host to a handler (replacing any previous one —
// that is how a restarted node rejoins under its old address).
func (v *VNet) Register(host string, h http.Handler) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.hosts[host] = h
}

// Unregister disconnects host: subsequent requests fail like
// connection-refused. A killed node's first disappearance.
func (v *VNet) Unregister(host string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.hosts, host)
}

// UpdateRule mutates host's fault rule in place under the lock,
// creating it if absent — so a script can partition a host without
// clobbering an active latency rule.
func (v *VNet) UpdateRule(host string, mut func(*FaultRule)) {
	v.mu.Lock()
	defer v.mu.Unlock()
	r, ok := v.rules[host]
	if !ok {
		r = &FaultRule{}
		v.rules[host] = r
	}
	mut(r)
}

// Heal clears host's fault rule.
func (v *VNet) Heal(host string) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.rules, host)
}

// RoundTrip implements http.RoundTripper: apply the host's fault rule,
// then serve the request in-process through the registered handler.
func (v *VNet) RoundTrip(req *http.Request) (*http.Response, error) {
	host := req.URL.Host
	v.mu.Lock()
	h := v.hosts[host]
	var rule FaultRule
	if r, ok := v.rules[host]; ok {
		rule = *r
		if r.TruncateNext > 0 {
			r.TruncateNext--
		}
	}
	v.mu.Unlock()

	if rule.Latency > 0 {
		t := time.NewTimer(rule.Latency)
		select {
		case <-t.C:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	if rule.Partitioned {
		return nil, fmt.Errorf("chaos: %s: partitioned", host)
	}
	if h == nil {
		return nil, fmt.Errorf("chaos: %s: connection refused", host)
	}

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.Clone(req.Context()))
	resp := rec.Result()
	resp.Request = req
	if rule.TruncateNext > 0 {
		truncateBody(resp)
	}
	return resp, nil
}

// truncateBody halves the response body in place, dropping the declared
// length so the caller reads a well-formed stream that carries garbage
// — the client-visible shape of a connection cut mid-response.
func truncateBody(resp *http.Response) {
	body, err := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if err != nil || len(body) == 0 {
		return
	}
	cut := body[:len(body)/2]
	resp.Body = io.NopCloser(bytes.NewReader(cut))
	resp.ContentLength = -1
	resp.Header.Del("Content-Length")
}
