package main

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"artisan/internal/experiment"
)

// Regenerate the goldens after an intentional output change with
//
//	go test ./cmd/evaltable -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files")

// goldenCfg is a small but representative slice of Table 3: a black-box
// optimizer, an off-the-shelf LLM baseline (all-fail row), and Artisan,
// on the paper's first and last spec groups. Everything it renders —
// metrics, modeled times, speedups — is a deterministic function of the
// seed, so the exact bytes are a regression surface.
func goldenCfg() experiment.Config {
	cfg := experiment.DefaultConfig(42)
	cfg.Trials = 2
	cfg.Budget = 60
	cfg.Groups = []string{"G-1", "G-5"}
	cfg.Methods = []experiment.Method{
		experiment.MethodBOBO, experiment.MethodGPT4, experiment.MethodArtisan,
	}
	return cfg
}

func TestEvaltableGolden(t *testing.T) {
	t3, err := experiment.Run(context.Background(), goldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "table3.golden", renderReport(t3, false, []string{"G-1", "G-5"}))
	compareGolden(t, "phases.golden", normalizePhases(t3.PhaseBreakdown()))
}

// The parallel harness must render the identical report (its own package
// asserts cell equality; this pins the full command output too).
func TestEvaltableGoldenParallel(t *testing.T) {
	cfg := goldenCfg()
	cfg.Workers = 4
	t3, err := experiment.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "table3.golden", renderReport(t3, false, []string{"G-1", "G-5"}))
}

// backendGoldenCfg pins the -backends mode on the first and last spec
// groups: every number in the table is a deterministic function of the
// seed, so the exact bytes are a regression surface for all four
// registered backends at once.
func backendGoldenCfg() experiment.BackendConfig {
	cfg := experiment.DefaultBackendConfig(42)
	cfg.Trials = 2
	cfg.Budget = 60
	cfg.Groups = []string{"G-1", "G-5"}
	return cfg
}

func TestBackendsGolden(t *testing.T) {
	table, err := experiment.RunBackends(context.Background(), backendGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "backends.golden", renderBackendReport(table))
}

// The parallel backend sweep must render the identical report, and a
// repeated run must reproduce it byte for byte.
func TestBackendsGoldenDeterministic(t *testing.T) {
	cfg := backendGoldenCfg()
	cfg.Workers = 4
	table, err := experiment.RunBackends(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "backends.golden", renderBackendReport(table))
	again, err := experiment.RunBackends(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if renderBackendReport(table) != renderBackendReport(again) {
		t.Error("repeated -backends run is nondeterministic")
	}
}

// genBenchGoldenCfg pins the -genbench mode: eight generated tasks over
// the full reference-designer roster. Topologies, specs, transcripts,
// and scores are all pure functions of the seed, so the exact bytes are
// a regression surface for the generator, the rubric, and the
// groundedness verifier at once.
func genBenchGoldenCfg() experiment.GenBenchConfig {
	cfg := experiment.DefaultGenBenchConfig(42)
	cfg.Trials = 8
	return cfg
}

func TestGenBenchGolden(t *testing.T) {
	table, err := experiment.RunGenBench(context.Background(), genBenchGoldenCfg())
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "genbench.golden", renderGenBenchReport(table))
}

// The parallel genbench sweep must render the identical report, and a
// repeated run must reproduce it byte for byte.
func TestGenBenchGoldenDeterministic(t *testing.T) {
	cfg := genBenchGoldenCfg()
	cfg.Workers = 4
	table, err := experiment.RunGenBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "genbench.golden", renderGenBenchReport(table))
	again, err := experiment.RunGenBench(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if renderGenBenchReport(table) != renderGenBenchReport(again) {
		t.Error("repeated -genbench run is nondeterministic")
	}
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update to create it): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

// normalizePhases strips the nondeterminism out of the measured phase
// breakdown: durations are wall-clock observations and rows order their
// phases by share of it, so durations become "X" and phase tokens are
// re-sorted by name. What remains — which cells were traced and which
// phases each recorded — is stable and worth pinning.
func normalizePhases(s string) string {
	var out []string
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		if !strings.Contains(line, "=") {
			out = append(out, line)
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			out = append(out, line)
			continue
		}
		toks := fields[2:]
		for i, tok := range toks {
			if name, _, ok := strings.Cut(tok, "="); ok {
				toks[i] = name + "=X"
			}
		}
		sort.Strings(toks)
		out = append(out, fields[0]+" "+fields[1]+" "+strings.Join(toks, " "))
	}
	return strings.Join(out, "\n") + "\n"
}
