package backend

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"artisan/internal/design"
	"artisan/internal/gmid"
	"artisan/internal/spec"
	"artisan/internal/topology"
)

// seedPinnedSHA is the digest of every Seed output (or error text) over
// the grid TestSeedPinned walks. Any change to the white-box formulas,
// their placement into the topology, the cascode rule, the gm/Id
// back-solve or the power backoff moves it.
const seedPinnedSHA = "67cf9402af2a30ec5d48df6a03f8f25ce575995f502c36165accdb7a29a00498"

// TestSeedPinned pins Seed bit for bit: for every spec, every library
// architecture designed under every group, a few seeded detunes of that
// start and every process corner, it hashes the float64 bits of each
// stage and connection value of the seed, or the error text when the
// seed fails.
func TestSeedPinned(t *testing.T) {
	h := sha256.New()
	word := func(v float64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	plan := gmid.DefaultStagePlan()
	n, failed := 0, 0
	for _, sp := range spec.Groups() {
		for _, g := range spec.Groups() {
			for _, arch := range design.Architectures() {
				des, err := design.Design(arch, g, nil)
				if err != nil {
					h.Write([]byte(err.Error()))
					continue
				}
				for _, ds := range []int64{0, 1, 2} {
					start := des.Topo
					if ds > 0 {
						start = detune(des.Topo, ds, 0.8)
					}
					for _, tech := range gmid.Corners() {
						n++
						out, err := Seed(sp, start, tech, plan)
						if err != nil {
							failed++
							h.Write([]byte(err.Error()))
							continue
						}
						for _, s := range out.Stages {
							word(s.Gm)
							word(s.A0)
						}
						for _, c := range out.Conns {
							word(c.Gm)
							word(c.C)
							word(c.R)
						}
					}
				}
			}
		}
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != seedPinnedSHA {
		t.Errorf("Seed digest over %d seeds (%d failed) = %s, want %s", n, failed, got, seedPinnedSHA)
	}
}

// unflaggedSMC is topology.SMC(20e-6, 190e-6, 1e-12) on the wire without
// its "TwoStage" flag. FromJSON accepts it: the field is omitempty, and
// Validate only checks that the flag implies two stages.
const unflaggedSMC = `{"Name":"SMC",` +
	`"Stages":[{"Gm":2e-05,"A0":160},{"Gm":0.00019,"A0":45}],` +
	`"Conns":[{"Pos":{"From":"n1","To":"out"},"Type":"C","C":1e-12}]}`

// seedOutcome renders a Seed result without the TwoStage flag, which
// Seed copies from its input unchanged.
func seedOutcome(tp *topology.Topology, err error) string {
	if err != nil {
		return err.Error()
	}
	return fmt.Sprint(tp.Stages, tp.Conns)
}

func TestSeedUnflaggedTwoStage(t *testing.T) {
	unflagged, err := topology.FromJSON([]byte(unflaggedSMC))
	if err != nil {
		t.Fatal(err)
	}
	smc := topology.SMC(20e-6, 190e-6, 1e-12)
	tech, plan := gmid.Default180nm(), gmid.DefaultStagePlan()
	for _, g := range spec.Groups() {
		got := seedOutcome(Seed(g, unflagged, tech, plan))
		want := seedOutcome(Seed(g, smc, tech, plan))
		if got != want {
			t.Errorf("%s: unflagged two-stage seeds to %s, want %s", g.Name, got, want)
		}
	}
}

func TestSizeLadderUnknownBackend(t *testing.T) {
	p, _ := problemFor(t, "G-1", 1, 40)
	_, want := Get("annealing")
	_, err := SizeLadder(context.Background(), "annealing", p, 1, func(from, to string, err error) {
		t.Errorf("unknown backend degraded %s>%s", from, to)
	})
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Errorf("SizeLadder(annealing) error = %v, want %v", err, want)
	}
}

// FuzzSeed: any topology FromJSON accepts must seed under every spec
// group, and map to transistor level, with a value or an error — never a
// panic — and Seed must leave its input untouched.
func FuzzSeed(f *testing.F) {
	g1, _ := spec.Group("G-1")
	for _, arch := range design.Architectures() {
		des, err := design.Design(arch, g1, nil)
		if err != nil {
			f.Fatal(err)
		}
		blob, err := des.Topo.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	for seed := int64(0); seed < 6; seed++ {
		topo, err := topology.NewGenerator(seed).Topology()
		if err != nil {
			f.Fatal(err)
		}
		blob, err := topo.ToJSON()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	f.Add([]byte(unflaggedSMC))
	tech, plan := gmid.Default180nm(), gmid.DefaultStagePlan()
	f.Fuzz(func(t *testing.T, data []byte) {
		tp, err := topology.FromJSON(data)
		if err != nil {
			return
		}
		before := fmt.Sprintf("%+v", *tp)
		for _, g := range spec.Groups() {
			out, err := Seed(g, tp, tech, plan)
			if (out == nil) == (err == nil) {
				t.Fatalf("%s: Seed returned %v and %v", g.Name, out, err)
			}
		}
		if after := fmt.Sprintf("%+v", *tp); after != before {
			t.Fatalf("Seed changed its input:\n%s\nwas\n%s", after, before)
		}
		if nl, err := gmid.Map(tech, plan, tp, 1.8); (nl == nil) == (err == nil) {
			t.Fatalf("Map returned %v and %v", nl, err)
		}
	})
}
