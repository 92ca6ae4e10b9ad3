package experiment

// Generative benchmark sweep: every roster designer analyzes the same
// sequence of freshly generated, seed-randomized tasks, and the harness
// reports grounded-pass-rate, mean rubric score, and credited FoM per
// designer. Because each trial's topology is drawn from the constrained
// random generator, no designer can succeed by memorizing the fixed
// architecture library — claims must be grounded in the trial's own
// netlist to survive verification.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"artisan/internal/bench"
	"artisan/internal/jobs"
)

// GenBenchConfig controls the generative benchmark sweep.
type GenBenchConfig struct {
	Trials int // generated tasks; every designer sees the same set
	Seed   int64
	// Designers is a subset of the bench roster; empty = all.
	Designers []string
	// Workers bounds how many (designer, trial) cells run at once
	// (values below 1 mean one); tasks and transcripts depend only on
	// (Seed, trial), so every worker count yields a byte-identical table.
	Workers int
}

// DefaultGenBenchConfig is the standard protocol: a dozen generated
// tasks across the full roster.
func DefaultGenBenchConfig(seed int64) GenBenchConfig {
	return GenBenchConfig{Trials: 12, Seed: seed}
}

// GenBenchRow aggregates one designer over all trials.
type GenBenchRow struct {
	Designer string
	Trials   int
	// GroundPass counts trials whose transcript survived the groundedness
	// verifier with zero findings.
	GroundPass int
	// Citations / Grounded sum the verifier's citation accounting.
	Citations int
	Grounded  int
	Findings  int
	// Rubric is the mean rubric score in [0,1].
	Rubric float64
	// Credited counts trials that were grounded AND scored >= 2/3 on the
	// rubric; FoM is the mean figure of merit over credited trials only.
	Credited int
	FoM      float64
}

// PassRate renders "k/n".
func (r GenBenchRow) PassRate() string { return fmt.Sprintf("%d/%d", r.GroundPass, r.Trials) }

// GroundedFrac is the fraction of citations that checked out.
func (r GenBenchRow) GroundedFrac() float64 {
	if r.Citations == 0 {
		return 0
	}
	return float64(r.Grounded) / float64(r.Citations)
}

// GenBenchTable is the full sweep result.
type GenBenchTable struct {
	Rows []GenBenchRow
	// Stages and Families summarize the generated task set itself:
	// distinct stage counts and compensation families covered.
	Stages   []int
	Families []string
	Cfg      GenBenchConfig
}

// Row looks up one designer's aggregate.
func (t *GenBenchTable) Row(name string) (GenBenchRow, bool) {
	for _, r := range t.Rows {
		if r.Designer == name {
			return r, true
		}
	}
	return GenBenchRow{}, false
}

// String renders the table deterministically (roster order, no map
// iteration), so the same config always yields the same bytes.
func (t *GenBenchTable) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Generative benchmark (%d generated tasks, seed %d)\n", t.Cfg.Trials, t.Cfg.Seed)
	fmt.Fprintf(&b, "Task set: stages %v, families %s\n", t.Stages, strings.Join(t.Families, ", "))
	fmt.Fprintf(&b, "%-11s %9s %10s %9s %7s %9s %10s\n",
		"Designer", "Grounded", "Citations", "Findings", "Rubric", "Credited", "FoM")
	for _, r := range t.Rows {
		fom := "-"
		if r.Credited > 0 {
			fom = fmt.Sprintf("%.1f", r.FoM)
		}
		fmt.Fprintf(&b, "%-11s %9s %6d/%-4d %9d %7.2f %6d/%-4d %10s\n",
			r.Designer, r.PassRate(), r.Grounded, r.Citations, r.Findings,
			r.Rubric, r.Credited, r.Trials, fom)
	}
	return b.String()
}

// RunGenBench executes the sweep under a context. Each trial's task is
// generated once and shared read-only by every designer; the (designer,
// trial) cells fan out over max(cfg.Workers, 1) workers. Rows are
// emitted in roster (or configured) order.
func RunGenBench(ctx context.Context, cfg GenBenchConfig) (*GenBenchTable, error) {
	if cfg.Trials < 1 {
		return nil, fmt.Errorf("experiment: genbench trials must be >= 1")
	}
	var designers []bench.Designer
	if len(cfg.Designers) == 0 {
		designers = bench.Designers()
	} else {
		for _, name := range cfg.Designers {
			d := bench.DesignerByName(name)
			if d == nil {
				return nil, fmt.Errorf("experiment: unknown designer %q", name)
			}
			designers = append(designers, d)
		}
	}

	// The task set is generated once per trial index, seeded from
	// (Seed, trial) alone.
	tasks := make([]*bench.Task, cfg.Trials)
	for i := range tasks {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t, err := bench.NewTask(i, genBenchSeed(cfg.Seed, i))
		if err != nil {
			return nil, fmt.Errorf("experiment: %w", err)
		}
		tasks[i] = t
	}

	// Cell i is designer i/Trials on trial i%Trials.
	cells := make([]int, len(designers)*cfg.Trials)
	for i := range cells {
		cells[i] = i
	}
	results, err := jobs.Map(ctx, max(cfg.Workers, 1), cells,
		func(ctx context.Context, i int) (bench.TrialResult, error) {
			d, task := designers[i/cfg.Trials], tasks[i%cfg.Trials]
			res, err := bench.RunTrial(ctx, d, task)
			if err != nil {
				return bench.TrialResult{}, fmt.Errorf("experiment: genbench %s trial %d: %w", d.Name(), task.Trial, err)
			}
			return res, nil
		})
	if err != nil {
		return nil, err
	}

	table := &GenBenchTable{Cfg: cfg}
	table.Stages, table.Families = summarizeTasks(tasks)
	for di, d := range designers {
		table.Rows = append(table.Rows,
			aggregateGenBenchRow(d.Name(), cfg, results[di*cfg.Trials:(di+1)*cfg.Trials]))
	}
	return table, nil
}

// genBenchSeed derives the trial's task seed from config alone, so every
// worker count (and every re-run) agrees.
func genBenchSeed(base int64, trial int) int64 {
	return base + int64(trial)*7919
}

// summarizeTasks reports the distinct stage counts (ascending) and
// compensation families (sorted) the generated task set covers.
func summarizeTasks(tasks []*bench.Task) ([]int, []string) {
	stageSet := map[int]bool{}
	famSet := map[string]bool{}
	for _, t := range tasks {
		stageSet[t.Topo.NumStages()] = true
		for _, f := range t.Topo.CompFamilies() {
			famSet[f] = true
		}
	}
	var stages []int
	for n := 0; n <= 8; n++ {
		if stageSet[n] {
			stages = append(stages, n)
		}
	}
	fams := make([]string, 0, len(famSet))
	for f := range famSet {
		fams = append(fams, f)
	}
	sort.Strings(fams)
	return stages, fams
}

// aggregateGenBenchRow folds one designer's trial results.
func aggregateGenBenchRow(name string, cfg GenBenchConfig, results []bench.TrialResult) GenBenchRow {
	row := GenBenchRow{Designer: name, Trials: cfg.Trials}
	for _, r := range results {
		if r.GroundPass {
			row.GroundPass++
		}
		row.Citations += r.Citations
		row.Grounded += r.Grounded
		row.Findings += r.Findings
		row.Rubric += r.Rubric.Score()
		if r.Credited {
			row.Credited++
			row.FoM += r.FoM
		}
	}
	if row.Trials > 0 {
		row.Rubric /= float64(row.Trials)
	}
	if row.Credited > 0 {
		row.FoM /= float64(row.Credited)
	}
	return row
}
