// Command loadgen drives the Artisan design service with a deterministic,
// duplicate-heavy request mix and reports throughput and latency
// quantiles — the benchmark behind the batch-serving layer's acceptance
// bar. In compare mode it replays the same workload twice, item-by-item
// through POST /design and batched through POST /design/batch, each
// against a fresh in-process server (equal cache warmth), and reports the
// batch path's speedup plus the coalesce hits it scored on /metrics.
//
// Usage:
//
//	loadgen                        # compare mode, built-in server
//	loadgen -mode batch -n 500 -dup 0.8 -batch 64
//	loadgen -backend hybrid        # tuned designs through a sizing backend
//	loadgen -url http://host:8080  # drive a running server instead
//	loadgen -out loadgen.json      # write BENCH-style JSON entries
//
// The router path is measured by perfbench's design_serve workload;
// POST /design/batch is sent by no perfbench workload, so compare mode
// is the batch layer's load measurement.
//
// The workload is fully seeded: the same -seed, -n, -dup, and -groups
// produce the same request sequence, so runs are comparable across PRs.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"artisan/internal/backend"
	"artisan/internal/server"
	"artisan/internal/spec"
)

type config struct {
	mode        string
	n           int
	batch       int
	dup         float64
	concurrency int
	seed        int64
	groups      []string
	url         string
	out         string
	workers     int
	repeat      int
	// backend, when set, turns the mix into tuned design requests routed
	// through the named sizing backend — the load profile of a service
	// serving optimization-heavy traffic.
	backend string
}

// workItem is one design request of the generated mix.
type workItem struct {
	Group   string `json:"group"`
	Seed    int64  `json:"seed"`
	Tune    bool   `json:"tune,omitempty"`
	Backend string `json:"backend,omitempty"`
}

// phaseResult is one BENCH-style JSON entry.
type phaseResult struct {
	Name         string  `json:"name"`
	Mode         string  `json:"mode"`
	Items        int     `json:"items"`
	UniqueItems  int     `json:"unique_items"`
	DupRatio     float64 `json:"dup_ratio"`
	Concurrency  int     `json:"concurrency"`
	BatchSize    int     `json:"batch_size,omitempty"`
	Errors       int     `json:"errors"`
	ElapsedMS    float64 `json:"elapsed_ms"`
	ItemsPerSec  float64 `json:"items_per_sec"`
	P50MS        float64 `json:"p50_ms"`
	P90MS        float64 `json:"p90_ms"`
	P99MS        float64 `json:"p99_ms"`
	CoalesceHits float64 `json:"coalesce_hits"`
	CacheHits    float64 `json:"cache_hits"`
	// SpeedupVsSingle is set on the batch entry of a compare run.
	SpeedupVsSingle float64 `json:"speedup_vs_single,omitempty"`
}

func main() {
	var (
		mode        = flag.String("mode", "compare", "single | batch | compare")
		n           = flag.Int("n", 200, "total design requests in the mix")
		batch       = flag.Int("batch", 32, "items per /design/batch request")
		dup         = flag.Float64("dup", 0.5, "duplicate ratio of the mix, 0..1")
		concurrency = flag.Int("concurrency", 8, "client goroutines (single) / batches in flight (batch)")
		seed        = flag.Int64("seed", 1, "workload seed")
		groupsFlag  = flag.String("groups", "", "comma-separated spec groups (default: all)")
		url         = flag.String("url", "", "base URL of a running server (default: in-process)")
		out         = flag.String("out", "", "write results as a JSON array to this file")
		workers     = flag.Int("workers", 0, "in-process server pool size (default GOMAXPROCS)")
		repeat      = flag.Int("repeat", 3, "repetitions per phase; the best-throughput one is reported")
		backendFlag = flag.String("backend", "",
			"route the mix as tuned designs through this sizing backend, one of "+strings.Join(backend.Names(), "|")+" (empty = untuned mix)")
	)
	flag.Parse()
	cfg := config{
		mode: *mode, n: *n, batch: *batch, dup: *dup, concurrency: *concurrency,
		seed: *seed, url: *url, out: *out, workers: *workers, repeat: *repeat,
		backend: *backendFlag,
	}
	if *groupsFlag != "" {
		cfg.groups = strings.Split(*groupsFlag, ",")
	}
	results, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
	if cfg.out != "" {
		blob, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(cfg.out, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "loadgen:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stdout, "loadgen: wrote %s\n", cfg.out)
	}
}

// run executes the configured phases and returns their BENCH entries.
func run(cfg config, w io.Writer) ([]phaseResult, error) {
	if cfg.n < 1 {
		return nil, fmt.Errorf("-n must be >= 1")
	}
	if cfg.batch < 1 {
		return nil, fmt.Errorf("-batch must be >= 1")
	}
	if cfg.concurrency < 1 {
		cfg.concurrency = 1
	}
	if cfg.dup < 0 || cfg.dup > 1 {
		return nil, fmt.Errorf("-dup must be in [0,1]")
	}
	if cfg.backend != "" {
		if _, err := backend.Get(cfg.backend); err != nil {
			return nil, err
		}
	}
	if len(cfg.groups) == 0 {
		for _, g := range spec.Groups() {
			cfg.groups = append(cfg.groups, g.Name)
		}
	} else {
		for _, name := range cfg.groups {
			if _, err := spec.Group(name); err != nil {
				return nil, err
			}
		}
	}
	items, unique := makeWorkload(cfg)
	fmt.Fprintf(w, "loadgen: %d items (%d unique, dup ratio %.2f) over groups %s, seed %d\n",
		len(items), unique, cfg.dup, strings.Join(cfg.groups, ","), cfg.seed)

	if cfg.repeat < 1 {
		cfg.repeat = 1
	}

	var results []phaseResult
	// onePhase measures a single repetition against a fresh target (equal,
	// cold cache state every time).
	onePhase := func(mode string) (phaseResult, error) {
		base, shutdown := cfg.target()
		defer shutdown()
		var (
			res phaseResult
			err error
		)
		switch mode {
		case "single":
			res, err = runSingle(base, items, cfg)
		case "batch":
			res, err = runBatch(base, items, cfg)
		default:
			return phaseResult{}, fmt.Errorf("unknown mode %q (want single, batch, or compare)", mode)
		}
		if err != nil {
			return phaseResult{}, err
		}
		res.UniqueItems = unique
		res.DupRatio = cfg.dup
		res.CoalesceHits = scrapeCounter(base, "artisan_jobs_coalesce_hits_total")
		res.CacheHits = scrapeCounter(base, "artisan_jobs_cache_hits_total")
		return res, nil
	}
	// runPhase repeats the phase and keeps the best-throughput repetition —
	// standard benchmark practice to cut scheduler/GC noise, which on small
	// hosts easily exceeds the effect under measurement.
	runPhase := func(mode string) (phaseResult, error) {
		var best phaseResult
		for rep := 0; rep < cfg.repeat; rep++ {
			res, err := onePhase(mode)
			if err != nil {
				return phaseResult{}, err
			}
			if rep == 0 || res.ItemsPerSec > best.ItemsPerSec {
				best = res
			}
		}
		fmt.Fprintln(w, best.String())
		return best, nil
	}

	switch cfg.mode {
	case "single", "batch":
		res, err := runPhase(cfg.mode)
		if err != nil {
			return nil, err
		}
		results = append(results, res)
	case "compare":
		single, err := runPhase("single")
		if err != nil {
			return nil, err
		}
		batch, err := runPhase("batch")
		if err != nil {
			return nil, err
		}
		if batch.ItemsPerSec > 0 && single.ItemsPerSec > 0 {
			batch.SpeedupVsSingle = batch.ItemsPerSec / single.ItemsPerSec
		}
		fmt.Fprintf(w, "loadgen: batch throughput %.2fx single (%0.f vs %0.f items/s), coalesce hits %g\n",
			batch.SpeedupVsSingle, batch.ItemsPerSec, single.ItemsPerSec, batch.CoalesceHits)
		results = append(results, single, batch)
	default:
		return nil, fmt.Errorf("unknown -mode %q (want single, batch, or compare)", cfg.mode)
	}
	return results, nil
}

// target returns the base URL to drive and its teardown. With no -url an
// in-process server is started — one per phase, so compare runs measure
// both paths against identical (cold) cache state.
func (c config) target() (string, func()) {
	if c.url != "" {
		return strings.TrimRight(c.url, "/"), func() {}
	}
	svc := server.NewWithOptions(server.Options{
		Workers:  c.workers,
		Queue:    c.n + c.batch,
		MaxBatch: c.batch,
	})
	ts := httptest.NewServer(svc)
	return ts.URL, ts.Close
}

// makeWorkload builds the deterministic request mix: round(n*(1-dup))
// unique (group, seed) pairs, the rest duplicates sampled from them, the
// whole sequence shuffled — all driven by cfg.seed alone.
func makeWorkload(cfg config) ([]workItem, int) {
	rng := rand.New(rand.NewSource(cfg.seed))
	unique := cfg.n - int(float64(cfg.n)*cfg.dup)
	if unique < 1 {
		unique = 1
	}
	items := make([]workItem, 0, cfg.n)
	for i := 0; i < unique; i++ {
		items = append(items, workItem{
			Group:   cfg.groups[i%len(cfg.groups)],
			Seed:    cfg.seed*1_000_000 + int64(i),
			Tune:    cfg.backend != "",
			Backend: cfg.backend,
		})
	}
	for len(items) < cfg.n {
		items = append(items, items[rng.Intn(unique)])
	}
	rng.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items, unique
}

// runSingle replays the mix item by item through POST /design from
// cfg.concurrency client goroutines.
func runSingle(base string, items []workItem, cfg config) (phaseResult, error) {
	var (
		mu        sync.Mutex
		latencies = make([]time.Duration, 0, len(items))
		errs      int
	)
	next := make(chan workItem)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range next {
				t0 := time.Now()
				ok := postDesign(base, it)
				d := time.Since(t0)
				mu.Lock()
				latencies = append(latencies, d)
				if !ok {
					errs++
				}
				mu.Unlock()
			}
		}()
	}
	for _, it := range items {
		next <- it
	}
	close(next)
	wg.Wait()
	return summarize("LoadgenDesignSingle", "single", cfg, items, latencies, errs, time.Since(start)), nil
}

func postDesign(base string, it workItem) bool {
	blob, _ := json.Marshal(it)
	resp, err := http.Post(base+"/design", "application/json", bytes.NewReader(blob))
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode == http.StatusOK
}

// runBatch replays the same mix chunked into /design/batch requests,
// cfg.concurrency batches in flight. Per-item latency is the time from
// batch POST to that item's NDJSON line arriving on the stream.
func runBatch(base string, items []workItem, cfg config) (phaseResult, error) {
	var chunks [][]workItem
	for len(items) > 0 {
		k := cfg.batch
		if k > len(items) {
			k = len(items)
		}
		chunks = append(chunks, items[:k])
		items = items[k:]
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		errs      int
	)
	next := make(chan []workItem)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < cfg.concurrency; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for chunk := range next {
				lats, bad := postBatch(base, chunk)
				mu.Lock()
				latencies = append(latencies, lats...)
				errs += bad
				mu.Unlock()
			}
		}()
	}
	total := 0
	for _, chunk := range chunks {
		total += len(chunk)
		next <- chunk
	}
	close(next)
	wg.Wait()
	res := summarize("LoadgenDesignBatch", "batch", cfg, make([]workItem, total), latencies, errs, time.Since(start))
	res.BatchSize = cfg.batch
	return res, nil
}

// postBatch posts one design batch and reads its NDJSON stream, timing
// each item line against the batch start. Items whose line reports an
// error — and items missing entirely when the stream fails — count as
// errors.
func postBatch(base string, chunk []workItem) ([]time.Duration, int) {
	t0 := time.Now()
	n := len(chunk)
	blob, _ := json.Marshal(map[string]any{"items": chunk})
	resp, err := http.Post(base+"/design/batch", "application/json", bytes.NewReader(blob))
	if err != nil {
		return nil, n
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, _ = io.Copy(io.Discard, resp.Body)
		return nil, n
	}
	var (
		lats []time.Duration
		errs int
		seen int
	)
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for sc.Scan() {
		var line struct {
			Summary bool   `json:"summary"`
			OK      bool   `json:"ok"`
			Error   string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil || line.Summary {
			continue
		}
		seen++
		lats = append(lats, time.Since(t0))
		if !line.OK {
			errs++
		}
	}
	errs += n - seen
	return lats, errs
}

func summarize(name, mode string, cfg config, items []workItem,
	latencies []time.Duration, errs int, elapsed time.Duration) phaseResult {
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	q := func(p float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(p * float64(len(latencies)-1))
		return float64(latencies[i]) / float64(time.Millisecond)
	}
	return phaseResult{
		Name:        name,
		Mode:        mode,
		Items:       len(items),
		Concurrency: cfg.concurrency,
		Errors:      errs,
		ElapsedMS:   float64(elapsed) / float64(time.Millisecond),
		ItemsPerSec: float64(len(items)) / elapsed.Seconds(),
		P50MS:       q(0.50),
		P90MS:       q(0.90),
		P99MS:       q(0.99),
	}
}

func (r phaseResult) String() string {
	return fmt.Sprintf("loadgen: %-7s %5d items in %8.1fms  %8.1f items/s  p50 %6.2fms  p90 %6.2fms  p99 %6.2fms  errors %d  coalesce %g  cache %g",
		r.Mode, r.Items, r.ElapsedMS, r.ItemsPerSec, r.P50MS, r.P90MS, r.P99MS, r.Errors, r.CoalesceHits, r.CacheHits)
}

// scrapeCounter reads one counter's current value off GET /metrics.
func scrapeCounter(base, name string) float64 {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return 0
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}
