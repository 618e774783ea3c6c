package align

import (
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
)

func day(n int) model.Time { return model.Date(2010, time.January, 1).AddDays(n) }

func histWith(id model.PatientID, days []int, codes []string) *model.History {
	h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1950, time.June, 1)})
	for i, d := range days {
		h.Add(model.Entry{
			ID: uint64(id)*100 + uint64(i), Kind: model.Point,
			Start: day(d), End: day(d),
			Source: model.SourceGP, Type: model.TypeDiagnosis,
			Code: model.Code{System: "ICPC2", Value: codes[i]},
		})
	}
	h.Sort()
	return h
}

func TestAnchorOccurrences(t *testing.T) {
	h := histWith(1, []int{0, 10, 20, 30}, []string{"A04", "T90", "K86", "T90"})
	t90 := query.MustCode("", "T90")

	if at, ok := First(t90).Time(h); !ok || at != day(10) {
		t.Errorf("First = %v %v", at, ok)
	}
	if at, ok := (Anchor{Pred: t90, Occurrence: -1}).Time(h); !ok || at != day(30) {
		t.Errorf("last = %v %v", at, ok)
	}
	if at, ok := (Anchor{Pred: t90, Occurrence: 2}).Time(h); !ok || at != day(30) {
		t.Errorf("Nth(2) = %v %v", at, ok)
	}
	if _, ok := (Anchor{Pred: t90, Occurrence: 3}).Time(h); ok {
		t.Error("Nth(3) should miss")
	}
	if _, ok := First(query.MustCode("", "Z99")).Time(h); ok {
		t.Error("missing code should miss")
	}
}

func TestAlignPartition(t *testing.T) {
	col := model.MustCollection(
		histWith(1, []int{0, 100}, []string{"A04", "T90"}),
		histWith(2, []int{50}, []string{"T90"}),
		histWith(3, []int{10}, []string{"K86"}), // no anchor
	)
	r := Align(col, First(query.MustCode("", "T90")))
	if r.Col.Len() != 2 {
		t.Fatalf("aligned = %d", r.Col.Len())
	}
	if len(r.Missing) != 1 || r.Missing[0] != 3 {
		t.Errorf("missing = %v", r.Missing)
	}
	if r.Offsets[1] != day(100) || r.Offsets[2] != day(50) {
		t.Errorf("offsets = %v", r.Offsets)
	}
}

func TestRelativeTime(t *testing.T) {
	col := model.MustCollection(
		histWith(1, []int{0, 100}, []string{"A04", "T90"}),
	)
	r := Align(col, First(query.MustCode("", "T90")))
	if got := r.Rel(1, day(100)); got != 0 {
		t.Errorf("anchor rel = %v", got)
	}
	if got := r.Rel(1, day(0)); got != -100*model.Day {
		t.Errorf("rel = %v", got)
	}
}

func TestAlignedSpan(t *testing.T) {
	col := model.MustCollection(
		histWith(1, []int{0, 100}, []string{"A04", "T90"}), // rel span [-100d, 0]
		histWith(2, []int{50, 80}, []string{"T90", "K86"}), // rel span [0, 30d]
	)
	r := Align(col, First(query.MustCode("", "T90")))
	span := r.Span()
	if span.Start != -100*model.Day {
		t.Errorf("span start = %v", span.Start)
	}
	if span.End != 30*model.Day {
		t.Errorf("span end = %v", span.End)
	}
}

func TestOrderings(t *testing.T) {
	a := histWith(1, []int{10, 20, 30}, []string{"A04", "A04", "A04"}) // 3 entries, starts day 10
	b := histWith(2, []int{0, 90}, []string{"T90", "A04"})             // 2 entries, starts day 0, span 90
	col := model.MustCollection(a, b)

	col.SortBy(ByEntryCount())
	if col.At(0).Patient.ID != 1 {
		t.Error("ByEntryCount wrong")
	}
}

func TestSortByAnchor(t *testing.T) {
	col := model.MustCollection(
		histWith(1, []int{100}, []string{"T90"}),
		histWith(2, []int{50}, []string{"T90"}),
	)
	r := Align(col, First(query.MustCode("", "T90")))
	r.Sort(r.ByAnchor())
	if r.Col.At(0).Patient.ID != 2 {
		t.Error("ByAnchor ordering wrong")
	}
}

func TestAnchorStringer(t *testing.T) {
	p := query.MustCode("", "T90")
	if First(p).String() == "" || (Anchor{Pred: p, Occurrence: -1}).String() == "" || (Anchor{Pred: p, Occurrence: 2}).String() == "" {
		t.Error("stringers empty")
	}
}
