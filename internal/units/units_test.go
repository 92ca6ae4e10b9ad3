package units

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
)

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want float64
	}{
		{"42", 42},
		{"4p", 4e-12},
		{"4pF", 4e-12},
		{"4PF", 4e-12},
		{"251.2u", 251.2e-6},
		{"251.2uA", 251.2e-6},
		{"1MEG", 1e6},
		{"1MEGOhm", 1e6},
		{"1m", 1e-3},
		{"0.7MHz", 0.7e6},
		{"5kHz", 5e3},
		{"2GHz", 2e9},
		{"100Hz", 100},
		{"-3.5m", -3.5e-3},
		{"1e-12", 1e-12},
		{"2.5E6", 2.5e6},
		{"1.5nF", 1.5e-9},
		{"10fF", 10e-15},
		{"3kOhm", 3e3},
		{"1.8V", 1.8},
		{"250uW", 250e-6},
		{"55°", 55},
		{"85dB", 85},
		{"1T", 1e12},
		{"1a", 1e-18},
		{"1µ", 1e-6},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q) error: %v", c.in, err)
			continue
		}
		if !ApproxEqual(got, c.want, 1e-12) {
			t.Errorf("Parse(%q) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestParseErrors(t *testing.T) {
	for _, in := range []string{"", "  ", "abc", "1x", "1.2.3", "zF", "--3", "1e"} {
		if v, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) = %g, want error", in, v)
		}
	}
}

func TestFormat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{42, "42"},
		{4e-12, "4p"},
		{2.512e-4, "251.2u"},
		{1e6, "1MEG"},
		{-1e-3, "-1m"},
		{1.5e3, "1.5k"},
		{2e9, "2G"},
		{3e12, "3T"},
		{7e-15, "7f"},
		{1e-18, "1a"},
	}
	for _, c := range cases {
		if got := Format(c.in); got != c.want {
			t.Errorf("Format(%g) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestFormatUnit(t *testing.T) {
	if got := FormatUnit(4e-12, "F"); got != "4pF" {
		t.Errorf("FormatUnit = %q, want 4pF", got)
	}
	if got := FormatUnit(1e6, "Ohm"); got != "1MOhm" {
		t.Errorf("FormatUnit = %q, want 1MOhm", got)
	}
}

func TestFormatSpecials(t *testing.T) {
	if got := Format(math.NaN()); got != "NaN" {
		t.Errorf("Format(NaN) = %q", got)
	}
	if got := Format(math.Inf(1)); got != "+Inf" {
		t.Errorf("Format(+Inf) = %q", got)
	}
	if got := Format(math.Inf(-1)); got != "-Inf" {
		t.Errorf("Format(-Inf) = %q", got)
	}
}

// Round trip: Format then Parse recovers the value to 4 significant digits.
func TestFormatParseRoundTrip(t *testing.T) {
	f := func(mant float64, exp int8) bool {
		m := math.Abs(mant)
		if m < 1e-3 || m > 1e3 || math.IsNaN(m) || math.IsInf(m, 0) {
			return true // restrict to a sane mantissa range
		}
		e := int(exp)%25 - 12 // exponent in [-12, 12]
		v := m * math.Pow(10, float64(e))
		s := Format(v)
		got, err := Parse(s)
		if err != nil {
			t.Logf("Parse(Format(%g)=%q) error: %v", v, s, err)
			return false
		}
		return ApproxEqual(got, v, 1e-3)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestDBRoundTrip(t *testing.T) {
	f := func(db float64) bool {
		d := math.Mod(math.Abs(db), 200)
		return ApproxEqual(DB(FromDB(d)), d, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if !ApproxEqual(DB(10), 20, 1e-12) {
		t.Errorf("DB(10) = %g, want 20", DB(10))
	}
}

func TestDegRad(t *testing.T) {
	if !ApproxEqual(Deg(math.Pi), 180, 1e-12) {
		t.Errorf("Deg(pi) = %g", Deg(math.Pi))
	}
	if !ApproxEqual(Rad(90), math.Pi/2, 1e-12) {
		t.Errorf("Rad(90) = %g", Rad(90))
	}
}

func TestClamp(t *testing.T) {
	if Clamp(5, 0, 1) != 1 || Clamp(-5, 0, 1) != 0 || Clamp(0.5, 0, 1) != 0.5 {
		t.Error("Clamp misbehaves")
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse did not panic on bad input")
		}
	}()
	MustParse("not-a-number")
}

// trimFloatBig is trimFloat on strconv's 'f' format alone: its oracle.
func trimFloatBig(v float64) string {
	s := strconv.FormatFloat(v, 'f', 4, 64)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// TestTrimFloatMatchesBigDecimal: trimFloat renders what the 'f' format
// renders on random values across and beyond [1, 1e14), on exact
// half-way cases at the fourth decimal (odd multiples of 1/32), on
// decimal x.xxxx5 inputs, which sit just off the tie, and on values that
// round up into a new integer digit (10^k − 0.00005 and its neighbours).
func TestTrimFloatMatchesBigDecimal(t *testing.T) {
	check := func(v float64) {
		if got, want := trimFloat(v), trimFloatBig(v); got != want {
			t.Fatalf("trimFloat(%v) [%016x] = %q, 'f' format %q", v, math.Float64bits(v), got, want)
		}
	}
	near := func(v float64) {
		check(v)
		for _, dir := range []float64{0, math.Inf(1)} {
			w := v
			for i := 0; i < 3; i++ {
				w = math.Nextafter(w, dir)
				check(w)
			}
		}
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 200_000; i++ {
		check(math.Pow(10, -3+20*rng.Float64())) // log-uniform over 1e-3…1e17
		check(math.Abs(math.Float64frombits(rng.Uint64())))
	}
	for k := 0; k <= 14; k++ {
		p := math.Pow(10, float64(k))
		near(p)
		near(p - 0.00005)
		near(p - 0.0001)
	}
	for i := 0; i < 50_000; i++ {
		n := math.Floor(math.Pow(10, 14*rng.Float64()))
		check(n + float64(2*rng.Intn(16)+1)/32) // exact ties
		s := strconv.FormatFloat(n, 'f', 0, 64) + "." + strconv.Itoa(1000+rng.Intn(9000)) + "5"
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			t.Fatal(err)
		}
		near(v)
	}
}

func BenchmarkTrimFloat(b *testing.B) {
	vs := []float64{251.2, 4.7, 1.8, 33.333333, 999.99996, 12.5e3}
	for i := 0; i < b.N; i++ {
		trimFloat(vs[i%len(vs)])
	}
}
