package main

import (
	"bytes"
	"strings"
	"testing"
)

// The workload is a pure function of the config.
func TestMakeWorkloadDeterministic(t *testing.T) {
	cfg := config{n: 40, dup: 0.5, seed: 3, groups: []string{"G-1", "G-2"}}
	a, ua := makeWorkload(cfg)
	b, ub := makeWorkload(cfg)
	if ua != ub || len(a) != len(b) {
		t.Fatalf("sizes differ: %d/%d vs %d/%d", len(a), ua, len(b), ub)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("item %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	if ua != 20 {
		t.Errorf("unique = %d, want 20", ua)
	}
	uniq := map[workItem]bool{}
	for _, it := range a {
		uniq[it] = true
	}
	if len(uniq) != ua {
		t.Errorf("distinct items = %d, want %d", len(uniq), ua)
	}
}

// Compare mode end to end against the in-process server: the
// duplicate-heavy batch phase must score coalesce or cache hits and both
// phases must finish error-free.
func TestCompareSmoke(t *testing.T) {
	cfg := config{
		mode: "compare", n: 24, batch: 8, dup: 0.5,
		concurrency: 4, seed: 7, groups: []string{"G-1"},
	}
	var out bytes.Buffer
	results, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	single, batch := results[0], results[1]
	if single.Mode != "single" || batch.Mode != "batch" {
		t.Fatalf("modes: %q, %q", single.Mode, batch.Mode)
	}
	for _, r := range results {
		if r.Errors != 0 {
			t.Errorf("%s: %d errors\n%s", r.Name, r.Errors, out.String())
		}
		if r.Items != cfg.n {
			t.Errorf("%s: %d items, want %d", r.Name, r.Items, cfg.n)
		}
		if r.ItemsPerSec <= 0 || r.P50MS < 0 {
			t.Errorf("%s: bad stats %+v", r.Name, r)
		}
	}
	if batch.CoalesceHits+batch.CacheHits == 0 {
		t.Errorf("duplicate-heavy batch phase scored no coalesce/cache hits: %+v", batch)
	}
	if !strings.Contains(out.String(), "batch throughput") {
		t.Errorf("missing compare summary line:\n%s", out.String())
	}
}
