package server

// Batch serving: POST /design/batch and POST /simulate/batch accept up
// to Options.MaxBatch items, deduplicate identical work items via the
// jobs manager's singleflight coalescing (keyed on the same canonical
// hashes the LRU result cache uses, so in-flight and cached results are
// both reused), fan the unique items out over the shared worker pool,
// and stream results back as NDJSON in completion order. Each line
// carries the item's original index and its own status, so one bad item
// never fails the batch; a trailing summary line closes the stream.

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"artisan/internal/core"
	"artisan/internal/jobs"
	"artisan/internal/measure"
	"artisan/internal/netlist"
	"artisan/internal/telemetry"
)

// BatchItemResult is one NDJSON line of a batch response.
type BatchItemResult struct {
	Index int  `json:"index"`
	OK    bool `json:"ok"`
	// Coalesced: the item attached to an identical in-flight run.
	// Cached: the item was served from the result cache.
	Coalesced bool   `json:"coalesced,omitempty"`
	Cached    bool   `json:"cached,omitempty"`
	Error     string `json:"error,omitempty"`
	// Design is set for /design/batch items, Metrics for /simulate/batch.
	Design  *DesignResponse `json:"design,omitempty"`
	Metrics *metricsJSON    `json:"metrics,omitempty"`
}

// BatchSummary is the final NDJSON line of a batch response.
type BatchSummary struct {
	Summary   bool `json:"summary"`
	Items     int  `json:"items"`
	OK        int  `json:"okCount"`
	Failed    int  `json:"failed"`
	Coalesced int  `json:"coalesced"`
	Cached    int  `json:"cached"`
}

// checkBatchSize enforces the empty-batch and MaxBatch guards; on
// failure the error response is already written.
func (s *Server) checkBatchSize(w http.ResponseWriter, n int) bool {
	if n == 0 {
		writeErr(w, http.StatusBadRequest, fmt.Errorf("batch has no items"))
		return false
	}
	if n > s.opts.MaxBatch {
		writeErr(w, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d items exceeds limit %d", n, s.opts.MaxBatch))
		return false
	}
	return true
}

// handleDesignBatch serves POST /design/batch: {"items":[core.Request…]}.
func (s *Server) handleDesignBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Items []core.Request `json:"items"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if !s.checkBatchSize(w, len(req.Items)) {
		return
	}
	// Admission charges the whole batch as its item count and one
	// priority-queue lease, released when the stream finishes.
	release, ok := s.admit(w, r, len(req.Items))
	if !ok {
		return
	}
	defer release()
	requestID := telemetry.RequestIDOf(r.Context())
	var (
		invalid []BatchItemResult
		entries []batchEntry
	)
	for i := range req.Items {
		sp, err := req.Items[i].Resolve(s.opts.SizingBackend)
		if err != nil {
			invalid = append(invalid, BatchItemResult{Index: i, Error: err.Error()})
			continue
		}
		// Coalescing on; routing through submitDesignJob keeps batch items
		// journaled when the persistent store is enabled. The whole batch
		// shares the request's X-Deadline-Ms budget.
		e := batchEntry{idx: i}
		e.job, e.coalesced, e.err = s.submitDesignJob(sp, req.Items[i], requestID, true, deadlineOf(r))
		entries = append(entries, e)
	}
	s.streamBatch(w, r, "design", len(req.Items), invalid, entries,
		func(line *BatchItemResult, v any) {
			line.Design = v.(*DesignResponse)
		})
}

// handleSimulateBatch serves POST /simulate/batch: {"items":[{"netlist":…}…]}.
// Simulations route through the same pool and cache as designs; items
// with byte-identical netlists (and output node) coalesce to one solve.
func (s *Server) handleSimulateBatch(w http.ResponseWriter, r *http.Request) {
	var req struct {
		Items []SimulateRequest `json:"items"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	if !s.checkBatchSize(w, len(req.Items)) {
		return
	}
	requestID := telemetry.RequestIDOf(r.Context())
	entries := make([]batchEntry, len(req.Items))
	for i := range req.Items {
		if req.Items[i].Out == "" {
			req.Items[i].Out = "out"
		}
		item := req.Items[i]
		fn := func(ctx context.Context) (any, error) {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			nl, err := netlist.Parse(item.Netlist)
			if err != nil {
				return nil, err
			}
			rep, err := measure.Analyze(nl, item.Out)
			if err != nil {
				return nil, err
			}
			return toMetricsJSON(rep), nil
		}
		e := &entries[i]
		e.idx = i
		e.job, e.coalesced, e.err = s.jobs.Submit(fn, jobs.SubmitOpts{
			Key: simulateKey(item), RequestID: requestID, Coalesce: true,
		})
	}
	s.streamBatch(w, r, "simulate", len(req.Items), nil, entries,
		func(line *BatchItemResult, v any) {
			line.Metrics = v.(*metricsJSON)
		})
}

// simulateKey canonicalizes a simulation work item for the result cache
// and the coalescing map: the netlist content hash plus the probed node.
func simulateKey(req SimulateRequest) string {
	sum := sha256.Sum256([]byte(req.Netlist))
	return fmt.Sprintf("sim|%x|out=%s", sum[:16], req.Out)
}

// batchEntry is one submitted batch item. Exactly one of job and err is
// set: a rejected item (queue full, shutdown) fails alone without
// affecting its neighbours.
type batchEntry struct {
	idx int // the item's index in the request
	job *jobs.Job
	// coalesced reports that the item attached to an identical in-flight
	// job submitted earlier (possibly by this same batch).
	coalesced bool
	err       error
}

// streamBatch drives the NDJSON response: invalid items are emitted
// first, then submitted entries stream back in completion order, then
// the summary line. fill stores a completed job's payload on its line.
// The client context cancels the stream: per-item waiter goroutines
// detach via Job.Wait(ctx) (the underlying jobs keep running for other
// waiters and the cache), and the buffered channel lets any stragglers
// finish their sends, so a mid-batch disconnect leaks nothing.
func (s *Server) streamBatch(w http.ResponseWriter, r *http.Request, endpoint string,
	total int, invalid []BatchItemResult, entries []batchEntry,
	fill func(line *BatchItemResult, v any)) {

	ctx := r.Context()
	s.batchSize.Observe(float64(total))
	itemSeconds := s.batchItemSeconds.With(endpoint)

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)
	flusher, canFlush := w.(http.Flusher)
	emit := func(v any) {
		// Encode errors mean the client is gone; the ctx.Done branch below
		// ends the stream.
		_ = enc.Encode(v)
		if canFlush {
			flusher.Flush()
		}
	}

	sum := BatchSummary{Summary: true, Items: total}
	count := func(line BatchItemResult) {
		if line.OK {
			sum.OK++
			s.batchItems.With(endpoint, "ok").Inc()
		} else {
			sum.Failed++
			s.batchItems.With(endpoint, "error").Inc()
		}
		if line.Coalesced {
			sum.Coalesced++
		}
		if line.Cached {
			sum.Cached++
		}
	}
	for _, line := range invalid {
		count(line)
		emit(line)
	}

	start := time.Now()
	ch := make(chan BatchItemResult, len(entries))
	waiting := 0
	for _, e := range entries {
		if e.err != nil { // rejected at submit (queue full, shutdown)
			line := BatchItemResult{Index: e.idx, Error: e.err.Error()}
			count(line)
			emit(line)
			continue
		}
		waiting++
		go func(e batchEntry) {
			v, err := e.job.Wait(ctx)
			itemSeconds.ObserveSince(start)
			line := BatchItemResult{Index: e.idx, Coalesced: e.coalesced}
			if err != nil {
				line.Error = err.Error()
			} else {
				line.OK = true
				line.Cached = e.job.Snapshot().Cached
				fill(&line, v)
			}
			ch <- line
		}(e)
	}
	for received := 0; received < waiting; received++ {
		select {
		case line := <-ch:
			count(line)
			emit(line)
		case <-ctx.Done():
			return // client gone; waiters drain into the buffered channel
		}
	}
	emit(sum)
}
