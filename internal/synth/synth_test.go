package synth

import (
	"reflect"
	"testing"

	"pastas/internal/model"
	"pastas/internal/sources"
	"pastas/internal/terminology"
)

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig(200)
	a := Generate(cfg)
	b := Generate(cfg)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config must generate identical bundles")
	}
}

func TestGenerateParallelismInvariant(t *testing.T) {
	cfg := DefaultConfig(150)
	cfg.Workers = 1
	serial := Generate(cfg)
	cfg.Workers = 7
	parallel := Generate(cfg)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatal("worker count must not change output")
	}
}

// TestGenerateRangeChunksEqualWhole: stitching arbitrary chunk splits of
// GenerateRange must reproduce Generate exactly — the invariant datagen's
// -stream mode relies on for byte-identical output.
func TestGenerateRangeChunksEqualWhole(t *testing.T) {
	cfg := DefaultConfig(170)
	whole := Generate(cfg)
	for _, chunk := range []uint64{1, 7, 64, 170, 500} {
		got := &totalBundle{}
		for first := uint64(1); first <= uint64(cfg.Patients); first += chunk {
			last := first + chunk - 1
			if last > uint64(cfg.Patients) {
				last = uint64(cfg.Patients)
			}
			got.add(GenerateRange(cfg, first, last))
		}
		if !reflect.DeepEqual(whole.Persons, got.b.Persons) ||
			!reflect.DeepEqual(whole.GPClaims, got.b.GPClaims) ||
			!reflect.DeepEqual(whole.Prescriptions, got.b.Prescriptions) ||
			!reflect.DeepEqual(whole.Episodes, got.b.Episodes) ||
			!reflect.DeepEqual(whole.Municipal, got.b.Municipal) ||
			!reflect.DeepEqual(whole.Specialist, got.b.Specialist) ||
			!reflect.DeepEqual(whole.Physio, got.b.Physio) {
			t.Fatalf("chunk size %d: stitched output differs from Generate", chunk)
		}
	}
	if out := GenerateRange(cfg, 5, 4); out.TotalRecords() != 0 {
		t.Error("inverted range must be empty")
	}
	if out := GenerateRange(cfg, 0, 3); out.TotalRecords() != 0 {
		t.Error("id 0 is not a patient; range starting at 0 must be empty")
	}
}

type totalBundle struct{ b sources.Bundle }

func (t *totalBundle) add(p *sources.Bundle) {
	t.b.Persons = append(t.b.Persons, p.Persons...)
	t.b.GPClaims = append(t.b.GPClaims, p.GPClaims...)
	t.b.Prescriptions = append(t.b.Prescriptions, p.Prescriptions...)
	t.b.Episodes = append(t.b.Episodes, p.Episodes...)
	t.b.Municipal = append(t.b.Municipal, p.Municipal...)
	t.b.Specialist = append(t.b.Specialist, p.Specialist...)
	t.b.Physio = append(t.b.Physio, p.Physio...)
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := Generate(DefaultConfig(100))
	cfg := DefaultConfig(100)
	cfg.Seed = 43
	b := Generate(cfg)
	if reflect.DeepEqual(a, b) {
		t.Fatal("different seeds must differ")
	}
}

func TestGenerateShape(t *testing.T) {
	cfg := DefaultConfig(2000)
	b := Generate(cfg)
	if len(b.Persons) != 2000 {
		t.Fatalf("persons = %d", len(b.Persons))
	}
	// Rough utilization sanity: at least one GP claim per person on
	// average, and all registries populated.
	if len(b.GPClaims) < 2000 {
		t.Errorf("GP claims suspiciously few: %d", len(b.GPClaims))
	}
	if len(b.Prescriptions) == 0 || len(b.Episodes) == 0 ||
		len(b.Municipal) == 0 || len(b.Specialist) == 0 || len(b.Physio) == 0 {
		t.Errorf("registries not all populated: rx=%d ep=%d mun=%d spec=%d phy=%d",
			len(b.Prescriptions), len(b.Episodes), len(b.Municipal), len(b.Specialist), len(b.Physio))
	}
}

func TestGeneratedCodesAreKnown(t *testing.T) {
	b := Generate(DefaultConfig(500))
	icpc := terminology.ForICPC2()
	icd := terminology.ForICD10()
	atc := terminology.ForATC()
	for _, c := range b.GPClaims {
		if c.ICPC != "" && !icpc.Known(c.ICPC) {
			t.Fatalf("unknown ICPC code generated: %s", c.ICPC)
		}
	}
	for _, e := range b.Episodes {
		if !icd.Known(e.MainICD) {
			t.Fatalf("unknown ICD code generated: %s", e.MainICD)
		}
		for _, s := range e.SecondaryICD {
			if !icd.Known(s) {
				t.Fatalf("unknown secondary ICD generated: %s", s)
			}
		}
	}
	for _, rx := range b.Prescriptions {
		if !atc.Known(rx.ATC) {
			t.Fatalf("unknown ATC code generated: %s", rx.ATC)
		}
	}
	for _, s := range b.Specialist {
		if !icd.Known(s.ICD) {
			t.Fatalf("unknown specialist ICD generated: %s", s.ICD)
		}
	}
	for _, p := range b.Physio {
		if !icpc.Known(p.ICPC) {
			t.Fatalf("unknown physio ICPC generated: %s", p.ICPC)
		}
	}
}

func TestNoiseInjection(t *testing.T) {
	cfg := DefaultConfig(3000)
	b := Generate(cfg)

	// Pre-birth dates must occur at roughly InvalidDateRate.
	birth := make(map[uint64]string)
	for _, p := range b.Persons {
		birth[p.ID] = p.BirthDate
	}
	invalid := 0
	for _, c := range b.GPClaims {
		if c.Date < birth[c.Person] {
			invalid++
		}
	}
	if invalid == 0 {
		t.Error("no invalid (pre-birth) dates injected")
	}
	if frac := float64(invalid) / float64(len(b.GPClaims)); frac > 0.01 {
		t.Errorf("invalid-date fraction too high: %f", frac)
	}

	// Exact duplicates must exist.
	seen := make(map[string]int)
	dups := 0
	for _, c := range b.GPClaims {
		k := c.Date + "|" + c.Text + "|" + c.ICPC
		key := string(rune(c.Person)) + k
		seen[key]++
		if seen[key] == 2 {
			dups++
		}
	}
	if dups == 0 {
		t.Error("no duplicate claims injected")
	}

	// Some claims must be missing their structured code.
	missing := 0
	for _, c := range b.GPClaims {
		if c.ICPC == "" {
			missing++
		}
	}
	if missing == 0 {
		t.Error("no missing-code claims injected")
	}
}

func TestBloodPressureChannels(t *testing.T) {
	b := Generate(DefaultConfig(3000))
	structured, textOnly := 0, 0
	for _, c := range b.GPClaims {
		hasText := false
		for _, tok := range []string{"BT", "bp", "Blodtrykk", "trykk", "B T"} {
			if contains(c.Text, tok) {
				hasText = true
				break
			}
		}
		if c.Systolic > 0 {
			structured++
			if c.Diastolic <= 0 || c.Diastolic >= c.Systolic {
				t.Fatalf("implausible structured BP %d/%d", c.Systolic, c.Diastolic)
			}
		} else if hasText {
			textOnly++
		}
	}
	if structured == 0 || textOnly == 0 {
		t.Errorf("BP channels missing: structured=%d textOnly=%d", structured, textOnly)
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		(len(s) > 0 && indexOf(s, sub) >= 0))
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestEpisodeDatesOrdered(t *testing.T) {
	b := Generate(DefaultConfig(2000))
	for _, e := range b.Episodes {
		if e.Discharged != "" && e.Discharged < e.Admitted {
			t.Fatalf("episode discharged before admitted: %+v", e)
		}
	}
	for _, m := range b.Municipal {
		if m.To != "" && m.To < m.From {
			t.Fatalf("municipal interval inverted: %+v", m)
		}
	}
}

func TestOpenEndedServicesExist(t *testing.T) {
	b := Generate(DefaultConfig(5000))
	open := 0
	for _, m := range b.Municipal {
		if m.To == "" {
			open++
		}
	}
	if open == 0 {
		t.Error("expected some still-running municipal services")
	}
}

func TestRandHelpers(t *testing.T) {
	r := NewRand(1)
	// Poisson mean ≈ lambda.
	total := 0
	n := 5000
	for i := 0; i < n; i++ {
		total += r.Poisson(3.0)
	}
	mean := float64(total) / float64(n)
	if mean < 2.7 || mean > 3.3 {
		t.Errorf("Poisson(3) mean = %f", mean)
	}
	if r.Poisson(0) != 0 || r.Poisson(-1) != 0 {
		t.Error("Poisson of non-positive lambda must be 0")
	}

	// NormalInt respects clamps.
	for i := 0; i < 1000; i++ {
		v := r.NormalInt(100, 50, 90, 110)
		if v < 90 || v > 110 {
			t.Fatalf("NormalInt out of range: %d", v)
		}
	}

	// Bernoulli extremes.
	if r.Bernoulli(0) || !r.Bernoulli(1) {
		t.Error("Bernoulli extremes broken")
	}

	// DayIn stays in period and is day-aligned.
	p := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2010, 2, 1)}
	for i := 0; i < 100; i++ {
		d := r.DayIn(p)
		if !p.Contains(d) || d%model.Day != 0 {
			t.Fatalf("DayIn out of range or misaligned: %v", d)
		}
	}

	// Weighted respects zero weights.
	counts := [3]int{}
	for i := 0; i < 1000; i++ {
		counts[r.Weighted([]float64{1, 0, 1})]++
	}
	if counts[1] != 0 {
		t.Errorf("Weighted picked zero-weight element %d times", counts[1])
	}
	if counts[0] == 0 || counts[2] == 0 {
		t.Error("Weighted never picked positive-weight elements")
	}
}

func TestPersonSeedSpread(t *testing.T) {
	// Neighbouring patient IDs must get well-separated seeds.
	seen := make(map[int64]bool)
	for id := uint64(1); id <= 1000; id++ {
		s := personSeed(42, id)
		if seen[s] {
			t.Fatalf("seed collision at id %d", id)
		}
		seen[s] = true
	}
}

func TestConditionNames(t *testing.T) {
	want := map[string]bool{"hypertension": true, "diabetes2": true, "dementia": true}
	for _, c := range conditions {
		delete(want, c.name)
	}
	if len(want) != 0 {
		t.Errorf("missing condition modules: %v", want)
	}
}

func TestChronicPrevalenceShape(t *testing.T) {
	// Prevalence must be monotone in age for the age-banded conditions.
	for _, c := range conditions {
		if c.name == "asthma" || c.name == "depression" || c.name == "hypothyroid" {
			continue
		}
		p40 := c.prev(30, model.SexFemale)
		p70 := c.prev(70, model.SexFemale)
		if p70 < p40 {
			t.Errorf("%s: prevalence not increasing with age (%f < %f)", c.name, p70, p40)
		}
	}
}
