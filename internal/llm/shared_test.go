package llm

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"artisan/internal/spec"
)

// proposals records everything a model's structured and free-text
// interfaces answer for one group, for comparing two models.
type proposals struct {
	Archs []ArchChoice
	Knobs map[string]float64
	Mod   Modification
	Text  string
}

func propose(t testing.TB, m *DomainModel, group string) proposals {
	t.Helper()
	ctx := context.Background()
	g, err := spec.Group(group)
	if err != nil {
		t.Fatal(err)
	}
	var p proposals
	if p.Archs, err = m.ProposeArchitectures(ctx, g, 3); err != nil {
		t.Fatalf("%s: ProposeArchitectures: %v", group, err)
	}
	k, err := m.ProposeKnobs(ctx, p.Archs[0].Arch, g)
	if err != nil {
		t.Fatalf("%s: ProposeKnobs: %v", group, err)
	}
	p.Knobs = k
	if p.Mod, err = m.ProposeModification(ctx, g, "fails to drive the large 1nF capacitive load"); err != nil {
		t.Fatalf("%s: ProposeModification: %v", group, err)
	}
	if p.Text, err = m.Generate("Based on the process, please analyze zero-pole distributions."); err != nil {
		t.Fatalf("%s: Generate: %v", group, err)
	}
	return p
}

// TestNewDomainModelAllocs guards the shared knowledge base: building a
// model allocates only its per-instance state, never a fresh index.
func TestNewDomainModelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are unreliable under -race")
	}
	NewDomainModel(1, 0) // build the shared index outside the count
	allocs := testing.AllocsPerRun(100, func() { NewDomainModel(1, 0.22) })
	if allocs > 8 {
		t.Errorf("NewDomainModel: %.0f allocs/op, want <= 8 (is the index rebuilt per model?)", allocs)
	}
}

// TestSharedIndexConcurrent drives many models over the one shared
// index at once; run under -race it is the sharing's safety gate. Every
// goroutine must see exactly what a model built alone sees.
func TestSharedIndexConcurrent(t *testing.T) {
	groups := []string{"G-1", "G-3", "G-5"}
	const seeds = 4
	want := make(map[string]proposals)
	for _, g := range groups {
		for seed := int64(0); seed < seeds; seed++ {
			want[fmt.Sprint(g, seed)] = propose(t, NewDomainModel(seed, 0.3), g)
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g, seed := groups[w%len(groups)], int64(w%seeds)
			got := propose(t, NewDomainModel(seed, 0.3), g)
			if !reflect.DeepEqual(got, want[fmt.Sprint(g, seed)]) {
				t.Errorf("worker %d (%s seed %d): concurrent proposals differ from serial", w, g, seed)
			}
			if _, err := NewGPT4Model().Generate("please analyze the zero-pole distributions"); err != nil {
				t.Errorf("worker %d: GPT-4: %v", w, err)
			}
			if _, err := NewLlama2Model().Generate("recommend an architecture"); err != nil {
				t.Errorf("worker %d: Llama2: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
}

// TestTrainLeavesSharedIndex checks that a trained model's extended
// index is its own: models built afterwards still see exactly the
// expert knowledge base and answer as before.
func TestTrainLeavesSharedIndex(t *testing.T) {
	before := propose(t, NewDomainModel(5, 0.22), "G-1")
	docs := []Document{
		{Text: "the nested miller compensation opamp sets the dominant pole with cm1"},
		{Text: "a damping factor control block drives large capacitive loads"},
		{Text: "butterworth pole allocation gives sixty degrees of phase margin"},
	}
	qas := []QA{{"What sets GBW?", "GBW = gm1/(2*pi*Cm1)."}}
	trained, _, err := Train(Dataset{Pretrain: docs, Finetune: qas}, DefaultTrainConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := trained.ix.Len(), len(DomainCards())+len(qas); got != want {
		t.Errorf("trained index holds %d cards, want %d", got, want)
	}
	fresh := NewDomainModel(5, 0.22)
	if got, want := fresh.ix.Len(), len(DomainCards()); got != want {
		t.Errorf("shared index holds %d cards after Train, want %d", got, want)
	}
	if after := propose(t, fresh, "G-1"); !reflect.DeepEqual(after, before) {
		t.Errorf("proposals changed after Train:\nbefore %+v\nafter  %+v", before, after)
	}
}

var sinkModel *DomainModel

func BenchmarkNewDomainModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkModel = NewDomainModel(int64(i), 0.22)
	}
}
