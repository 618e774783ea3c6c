package render

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// The fmt-based formatters the append-style writer replaced, kept verbatim
// as oracles: whatever they print for a value, the writer must append.

func refEsc(t string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(t)
}

func refNum(v float64) string {
	out := fmt.Sprintf("%.2f", v)
	out = strings.TrimRight(out, "0")
	out = strings.TrimRight(out, ".")
	if out == "" || out == "-" {
		return "0"
	}
	return out
}

func refAttrString(attrs []string) string {
	var b strings.Builder
	for i := 0; i < len(attrs); i += 2 {
		fmt.Fprintf(&b, ` %s="%s"`, attrs[i], refEsc(attrs[i+1]))
	}
	return b.String()
}

// checkAgainstReference compares every appender with its oracle on one
// value and one string, appending after a prefix that must survive.
func checkAgainstReference(t *testing.T, v float64, text string) {
	t.Helper()
	const prefix = "<kept>"
	check := func(what string, got []byte, want string) {
		t.Helper()
		if string(got) != prefix+want {
			t.Errorf("%s(%v / %q) = %q, reference %q", what, v, text, got, prefix+want)
		}
	}
	check("appendNum", appendNum([]byte(prefix), v), refNum(v))
	check("num", []byte(prefix+num(v)), refNum(v))
	check("appendEsc", appendEsc([]byte(prefix), text), refEsc(text))

	s := &SVG{buf: []byte(prefix)}
	s.attrs([]string{"k", text, "fill-opacity", num(v)})
	check("attrs", s.buf, refAttrString([]string{"k", text, "fill-opacity", refNum(v)}))

	s = &SVG{buf: []byte(prefix)}
	s.Comment(text)
	check("Comment", s.buf, "  <!-- "+strings.ReplaceAll(text, "--", "—")+" -->\n")
}

var referenceFloats = []float64{
	0, math.Copysign(0, -1), 0.005, -0.005, 0.004999, -0.004999, 0.015, 0.025, 0.995, -0.995,
	1, 1.5, 0.25, -2, 100, 1200, 1e15, -1e15, 1e21, 1e-9, 123456.789, 0.1 + 0.2,
	math.NaN(), math.Inf(1), math.Inf(-1), math.MaxFloat64, math.SmallestNonzeroFloat64,
}

var referenceStrings = []string{
	"", "&", "<", ">", `"`, "'", `&<>"`, "&amp;", `a < b && "c" > d`, "plain", "tromsø — æøå",
	"-", "--", "---", "----", "a--b---c", "\xff\xfe<\x80>", "\x00&\x00", "ends with &", "<starts",
}

func TestNumEscMatchReference(t *testing.T) {
	for _, v := range referenceFloats {
		for _, s := range referenceStrings {
			checkAgainstReference(t, v, s)
		}
	}
	// Half-cent steps around the rounding boundary, then random draws.
	for i := -2000; i <= 2000; i++ {
		checkAgainstReference(t, float64(i)*0.005, "")
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte(`&<>"-ab \xff`)
	for i := 0; i < 5000; i++ {
		v := (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(18)-4))
		text := make([]byte, rng.Intn(12))
		for j := range text {
			text[j] = alphabet[rng.Intn(len(alphabet))]
		}
		checkAgainstReference(t, v, string(text))
	}
}

func FuzzNumEscMatchReference(f *testing.F) {
	for i, v := range referenceFloats {
		f.Add(v, referenceStrings[i%len(referenceStrings)])
	}
	f.Fuzz(func(t *testing.T, v float64, text string) {
		checkAgainstReference(t, v, text)
	})
}
