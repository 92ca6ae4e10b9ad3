// Package units provides engineering-notation parsing and formatting for
// circuit quantities, plus decibel helpers. It understands the SPICE scale
// suffixes (f, p, n, u, m, k, MEG/M, G, T) with optional unit tails such as
// "F", "Hz", "Ohm", so inputs like "4pF", "251.2u", "1MEG" and "0.7MHz" all
// parse to SI floats.
package units

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// Scale factors keyed by lower-case suffix. "meg" must be matched before "m".
var scales = []struct {
	suffix string
	factor float64
}{
	{"meg", 1e6},
	{"t", 1e12},
	{"g", 1e9},
	{"k", 1e3},
	{"m", 1e-3},
	{"u", 1e-6},
	{"µ", 1e-6},
	{"n", 1e-9},
	{"p", 1e-12},
	{"f", 1e-15},
	{"a", 1e-18},
}

// unit tails that may follow a scale suffix and are ignored for value purposes.
var unitTails = []string{"ohms", "ohm", "hz", "f", "h", "v", "a", "w", "s", "db", "°"}

// Parse converts an engineering-notation string to a float64 in SI units.
// Examples: "4p" → 4e-12, "4pF" → 4e-12, "1MEG" → 1e6, "0.7MHz" → 7e5,
// "-3.5m" → -3.5e-3, "42" → 42. Case-insensitive. An unadorned "M" means
// milli (SPICE convention); use "MEG" for mega — except when a frequency
// unit tail follows ("MHz"), where M unambiguously means mega.
func Parse(s string) (float64, error) {
	t := strings.TrimSpace(s)
	if t == "" {
		return 0, fmt.Errorf("units: empty string")
	}
	lower := strings.ToLower(t)

	// Split numeric prefix from the alphabetic tail.
	i := 0
	for i < len(lower) {
		c := lower[i]
		if (c >= '0' && c <= '9') || c == '+' || c == '-' || c == '.' {
			i++
			continue
		}
		// Allow exponent notation 1e-12, 2.5E6.
		if (c == 'e') && i > 0 && i+1 < len(lower) {
			next := lower[i+1]
			if next == '+' || next == '-' || (next >= '0' && next <= '9') {
				i += 2
				for i < len(lower) && lower[i] >= '0' && lower[i] <= '9' {
					i++
				}
				continue
			}
		}
		break
	}
	numPart, tail := lower[:i], lower[i:]
	if numPart == "" {
		return 0, fmt.Errorf("units: no numeric part in %q", s)
	}
	val, err := strconv.ParseFloat(numPart, 64)
	if err != nil {
		return 0, fmt.Errorf("units: bad number %q in %q: %w", numPart, s, err)
	}
	if tail == "" {
		return val, nil
	}

	// "MHz", "GHz", "kHz": frequency tails where m/g/k are unambiguous.
	switch tail {
	case "mhz":
		return val * 1e6, nil
	case "ghz":
		return val * 1e9, nil
	case "khz":
		return val * 1e3, nil
	case "hz":
		return val, nil
	}

	for _, sc := range scales {
		if strings.HasPrefix(tail, sc.suffix) {
			rest := tail[len(sc.suffix):]
			if rest == "" || isUnitTail(rest) {
				return val * sc.factor, nil
			}
		}
	}
	if isUnitTail(tail) {
		return val, nil
	}
	return 0, fmt.Errorf("units: unrecognised suffix %q in %q", tail, s)
}

// MustParse is Parse for trusted literals; it panics on error.
func MustParse(s string) float64 {
	v, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return v
}

func isUnitTail(s string) bool {
	for _, u := range unitTails {
		if s == u {
			return true
		}
	}
	return false
}

// Format renders v with an engineering scale suffix and up to 4 significant
// digits: Format(2.512e-4) → "251.2u". Zero renders as "0".
func Format(v float64) string {
	if v == 0 {
		return "0"
	}
	if math.IsNaN(v) {
		return "NaN"
	}
	if math.IsInf(v, 0) {
		if v > 0 {
			return "+Inf"
		}
		return "-Inf"
	}
	sign := ""
	if v < 0 {
		sign = "-"
		v = -v
	}
	type step struct {
		factor float64
		suffix string
	}
	steps := []step{
		{1e12, "T"}, {1e9, "G"}, {1e6, "MEG"}, {1e3, "k"},
		{1, ""}, {1e-3, "m"}, {1e-6, "u"}, {1e-9, "n"},
		{1e-12, "p"}, {1e-15, "f"}, {1e-18, "a"},
	}
	for _, st := range steps {
		if v >= st.factor*0.9999999 {
			return sign + trimFloat(v/st.factor) + st.suffix
		}
	}
	return sign + trimFloat(v/1e-18) + "a"
}

// FormatUnit renders v with a scale suffix followed by a unit, e.g.
// FormatUnit(4e-12, "F") → "4pF". Mega is written "M" (not "MEG") since a
// unit tail disambiguates.
func FormatUnit(v float64, unit string) string {
	s := Format(v)
	s = strings.Replace(s, "MEG", "M", 1)
	return s + unit
}

// trimFloat renders v ≥ 0 with four decimals, then trims trailing zeros
// and a bare point. strconv serves the 'f' format from its big-decimal
// path; for 1 ≤ v < 1e14 the same digits come from the 'e' format at
// (integer digits + 4) significant digits, at most 18, which strconv
// serves from its fixed-digit Ryū path. Both round the exact binary
// value half to even, at the same decimal place.
func trimFloat(v float64) string {
	var s string
	if v >= 1 && v < 1e14 {
		k := 1 // integer digits: 10^(k-1) ≤ v < 10^k, powers held exactly
		for p := 10.0; v >= p; p *= 10 {
			k++
		}
		var buf [32]byte
		// d.ddd…e+XX, k+4 digits; XX is k-1, or k when rounding carried
		// into a new digit and v rounds to 10^k exactly.
		b := strconv.AppendFloat(buf[:0], v, 'e', k+3, 64)
		if int(b[k+7]-'0')*10+int(b[k+8]-'0') == k {
			return "100000000000000"[:k+1]
		}
		copy(b[1:k], b[2:k+1]) // the integer digits, then the point
		b[k] = '.'
		s = string(b[:k+5])
	} else {
		s = strconv.FormatFloat(v, 'f', 4, 64)
	}
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	return s
}

// DB converts a linear magnitude ratio to decibels (20·log10).
func DB(lin float64) float64 { return 20 * math.Log10(lin) }

// FromDB converts decibels to a linear magnitude ratio.
func FromDB(db float64) float64 { return math.Pow(10, db/20) }

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// ApproxEqual reports whether a and b agree to within rel relative tolerance
// (or 1e-300 absolute near zero).
func ApproxEqual(a, b, rel float64) bool {
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	if m < 1e-300 {
		return true
	}
	return d/m <= rel
}
