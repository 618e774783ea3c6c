package abstraction

import (
	"testing"
	"time"

	"pastas/internal/model"
)

func day(n int) model.Time { return model.Date(2010, time.January, 1).AddDays(n) }

func TestChapterOf(t *testing.T) {
	cases := []struct {
		code model.Code
		want string
	}{
		{model.Code{System: "ICPC2", Value: "T90"}, "T"},
		{model.Code{System: "ICD10", Value: "E11.9"}, "IV"},
		{model.Code{System: "ATC", Value: "C07AB02"}, "C"},
		{model.Code{System: "ICPC2", Value: "ZZZ"}, ""},
		{model.Code{System: "BOGUS", Value: "X"}, ""},
	}
	for _, c := range cases {
		if got := ChapterOf(c.code); got != c.want {
			t.Errorf("ChapterOf(%v) = %q, want %q", c.code, got, c.want)
		}
	}
}

func newHistory(t *testing.T) *model.History {
	t.Helper()
	h := model.NewHistory(model.Patient{ID: 1, Birth: model.Date(1950, time.June, 1)})
	add := func(id uint64, d int, typ model.Type, kind model.Kind, endDay int, code model.Code) {
		end := day(d)
		if kind == model.Interval {
			end = day(endDay)
		}
		h.Add(model.Entry{ID: id, Kind: kind, Start: day(d), End: end, Type: typ, Code: code, Source: model.SourceGP})
	}
	// Episode 1: days 0-2 (contact + two diagnoses, K86 dominant).
	add(1, 0, model.TypeContact, model.Point, 0, model.Code{})
	add(2, 0, model.TypeDiagnosis, model.Point, 0, model.Code{System: "ICPC2", Value: "K86"})
	add(3, 2, model.TypeDiagnosis, model.Point, 0, model.Code{System: "ICPC2", Value: "K86"})
	add(4, 2, model.TypeDiagnosis, model.Point, 0, model.Code{System: "ICPC2", Value: "A04"})
	// Quiet gap > 30 days.
	// Episode 2: hospital stay days 60-67 extends the episode end.
	add(5, 60, model.TypeStay, model.Interval, 67, model.Code{System: "ICD10", Value: "I21.9"})
	add(6, 60, model.TypeDiagnosis, model.Point, 0, model.Code{System: "ICD10", Value: "I21.9"})
	add(7, 65, model.TypeContact, model.Point, 0, model.Code{})
	h.Sort()
	return h
}

func TestEpisodes(t *testing.T) {
	h := newHistory(t)
	eps := Episodes(h, 30*model.Day)
	if len(eps) != 2 {
		t.Fatalf("episodes = %d", len(eps))
	}
	if eps[0].Dominant.Value != "K86" {
		t.Errorf("episode 1 dominant = %v", eps[0].Dominant)
	}
	if eps[0].Period.Start != day(0) {
		t.Errorf("episode 1 start = %v", eps[0].Period.Start)
	}
	if eps[1].Period.End != day(67) {
		t.Errorf("episode 2 end = %v (stay must extend episode)", eps[1].Period.End)
	}
	if eps[0].N != 4 || eps[1].N != 3 {
		t.Errorf("episode sizes = %d, %d", eps[0].N, eps[1].N)
	}
}

func TestEpisodesEmptyAndSingle(t *testing.T) {
	h := model.NewHistory(model.Patient{ID: 1, Birth: 0})
	if Episodes(h, model.Day) != nil {
		t.Error("empty history must have no episodes")
	}
	h.Add(model.Entry{ID: 1, Kind: model.Point, Start: day(0), End: day(0), Type: model.TypeContact})
	eps := Episodes(h, model.Day)
	if len(eps) != 1 {
		t.Fatalf("episodes = %d", len(eps))
	}
	if eps[0].Period.Duration() != model.Day {
		t.Errorf("point episode duration = %v", eps[0].Period.Duration())
	}
}

func medEntry(id uint64, d, days int, atc string) model.Entry {
	return model.Entry{
		ID: id, Kind: model.Interval, Start: day(d), End: day(d + days),
		Type: model.TypeMedication, Source: model.SourceGP,
		Code: model.Code{System: "ATC", Value: atc},
	}
}

func TestMedicationBands(t *testing.T) {
	h := model.NewHistory(model.Patient{ID: 1, Birth: 0})
	// Two C07 refills with a 5-day gap (bridged), one distant C07, one A10.
	h.Add(medEntry(1, 0, 90, "C07AB02"))
	h.Add(medEntry(2, 95, 90, "C07AB02"))
	h.Add(medEntry(3, 400, 90, "C07AB02"))
	h.Add(medEntry(4, 10, 90, "A10BA02"))
	h.Sort()

	bands := MedicationBands(h, ATCTherapeutic, 14*model.Day)
	if len(bands) != 3 {
		t.Fatalf("bands = %v", bands)
	}
	// Sorted by class: A10 first.
	if bands[0].Class != "A10" || bands[1].Class != "C07" || bands[2].Class != "C07" {
		t.Errorf("band classes = %v %v %v", bands[0].Class, bands[1].Class, bands[2].Class)
	}
	if bands[1].Period.Start != day(0) || bands[1].Period.End != day(185) {
		t.Errorf("bridged band = %v", bands[1].Period)
	}
	if bands[0].Title == "" {
		t.Error("band title missing from terminology")
	}

	// Anatomical level merges C07 with anything C.
	anat := MedicationBands(h, ATCAnatomical, 400*model.Day)
	classes := map[string]bool{}
	for _, b := range anat {
		classes[b.Class] = true
	}
	if !classes["C"] || !classes["A"] || len(classes) != 2 {
		t.Errorf("anatomical classes = %v", classes)
	}
}

func TestMedicationBandsNoMeds(t *testing.T) {
	h := model.NewHistory(model.Patient{ID: 1, Birth: 0})
	h.Add(model.Entry{ID: 1, Kind: model.Point, Start: day(0), End: day(0), Type: model.TypeContact})
	if got := MedicationBands(h, ATCTherapeutic, 0); len(got) != 0 {
		t.Errorf("bands = %v", got)
	}
}

func TestServiceBands(t *testing.T) {
	h := model.NewHistory(model.Patient{ID: 1, Birth: 0})
	h.Add(model.Entry{ID: 1, Kind: model.Interval, Start: day(0), End: day(10), Type: model.TypeStay, Source: model.SourceHospital})
	h.Add(model.Entry{ID: 2, Kind: model.Interval, Start: day(20), End: day(90), Type: model.TypeService, Source: model.SourceMunicipal})
	h.Add(model.Entry{ID: 3, Kind: model.Point, Start: day(5), End: day(5), Type: model.TypeContact, Source: model.SourceGP})
	h.Sort()
	bands := ServiceBands(h)
	if len(bands) != 2 {
		t.Fatalf("service bands = %v", bands)
	}
	if bands[0].Class != "hospital stay" || bands[1].Class != "municipal service" {
		t.Errorf("labels = %q, %q", bands[0].Class, bands[1].Class)
	}
}
