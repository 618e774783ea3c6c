package model

import (
	"strings"
	"testing"
	"time"
	"unsafe"
)

func newTestPatient(id PatientID) Patient {
	return Patient{ID: id, Birth: Date(1950, time.June, 1), Sex: SexFemale, Municipality: 5001}
}

func pointEntry(id uint64, t Time, typ Type, code Code) Entry {
	return Entry{ID: id, Kind: Point, Start: t, End: t, Source: SourceGP, Type: typ, Code: code}
}

func TestEntryValidate(t *testing.T) {
	base := Date(2010, time.January, 1)
	ok := pointEntry(1, base, TypeDiagnosis, Code{"ICPC2", "T90"})
	if err := ok.Validate(); err != nil {
		t.Errorf("valid point: %v", err)
	}

	bad := ok
	bad.End = base + Day
	if err := bad.Validate(); err == nil {
		t.Error("point with end != start must fail")
	}

	iv := Entry{ID: 2, Kind: Interval, Start: base, End: base + 3*Day, Type: TypeStay}
	if err := iv.Validate(); err != nil {
		t.Errorf("valid interval: %v", err)
	}
	iv.End = base - Day
	if err := iv.Validate(); err == nil {
		t.Error("inverted interval must fail")
	}
	iv.End = NoTime
	if err := iv.Validate(); err == nil {
		t.Error("interval without end must fail")
	}
}

// TestEntryLayout pins the resident entry at 96 bytes. Three word-sized
// fields, the two-string Code, two floats and Text come first; the four
// one-byte fields (Kind, Source, Type, OpenEnd) share the last word. A
// one-byte field placed between word-sized ones pads a whole word, and a
// 3.2M-entry store pays that 3.2M times.
func TestEntryLayout(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 96 {
		t.Errorf("model.Entry is %d bytes, want 96", got)
	}
}

func TestEntryPeriodAndDuration(t *testing.T) {
	base := Date(2010, time.January, 1)
	p := pointEntry(1, base, TypeContact, Code{})
	if p.Duration() != 0 || !p.Period().Empty() {
		t.Error("point event must have zero duration")
	}
	iv := Entry{ID: 2, Kind: Interval, Start: base, End: base + 5*Day, Type: TypeStay}
	if iv.Duration() != 5*Day {
		t.Errorf("Duration = %v", iv.Duration())
	}
}

func TestHistorySortDeterminism(t *testing.T) {
	h := NewHistory(newTestPatient(1))
	base := Date(2010, time.January, 1)
	// Insert out of order with ties.
	h.Add(pointEntry(3, base+2*Day, TypeDiagnosis, Code{"ICPC2", "K86"}))
	h.Add(pointEntry(1, base, TypeDiagnosis, Code{"ICPC2", "T90"}))
	h.Add(pointEntry(2, base, TypeContact, Code{}))
	h.Sort()
	if !h.Sorted() {
		t.Fatal("not sorted after Sort")
	}
	// Ties at same Start order by type: contact < diagnosis.
	if h.Entries[0].Type != TypeContact || h.Entries[1].Type != TypeDiagnosis {
		t.Errorf("tie-break order wrong: %v %v", h.Entries[0].Type, h.Entries[1].Type)
	}
	if h.Entries[2].ID != 3 {
		t.Errorf("chronological order wrong")
	}
}

func TestHistoryQueries(t *testing.T) {
	h := NewHistory(newTestPatient(1))
	base := Date(2010, time.January, 1)
	codes := []string{"A04", "T90", "K86", "T90", "R74"}
	for i, cv := range codes {
		h.Add(pointEntry(uint64(i+1), base.AddDays(i*30), TypeDiagnosis, Code{"ICPC2", cv}))
	}
	isT90 := func(e *Entry) bool { return e.Code.Value == "T90" }

	if got := h.First(isT90); got == nil || got.ID != 2 {
		t.Errorf("First = %v", got)
	}
	if got := h.Last(isT90); got == nil || got.ID != 4 {
		t.Errorf("Last = %v", got)
	}
	if got := h.Nth(2, isT90); got == nil || got.ID != 4 {
		t.Errorf("Nth(2) = %v", got)
	}
	if got := h.Nth(3, isT90); got != nil {
		t.Errorf("Nth(3) = %v, want nil", got)
	}
	if got := h.Nth(0, isT90); got != nil {
		t.Errorf("Nth(0) = %v, want nil", got)
	}
	if got := h.Count(isT90); got != 2 {
		t.Errorf("Count = %d", got)
	}

	// Entries sit at days 0, 30, 60, 90, 120; [25, 90) catches 30 and 60
	// only — the half-open end excludes day 90.
	within := h.Within(Period{Start: base.AddDays(25), End: base.AddDays(90)})
	if len(within) != 2 {
		t.Fatalf("Within = %d entries, want 2", len(within))
	}

	seq := h.CodeSequence(TypeDiagnosis)
	if len(seq) != 5 || seq[1].Value != "T90" {
		t.Errorf("CodeSequence = %v", seq)
	}
}

func TestHistorySpanIncludesIntervalEnds(t *testing.T) {
	h := NewHistory(newTestPatient(1))
	base := Date(2010, time.January, 1)
	h.Add(pointEntry(1, base.AddDays(10), TypeContact, Code{}))
	h.Add(Entry{ID: 2, Kind: Interval, Start: base, End: base.AddDays(40), Type: TypeStay})
	span := h.Span()
	if span.Start != base || span.End != base.AddDays(40) {
		t.Errorf("Span = %v", span)
	}
}

func TestHistoryValidatePreBirth(t *testing.T) {
	h := NewHistory(newTestPatient(1))
	h.Add(pointEntry(1, Date(1930, time.January, 1), TypeContact, Code{}))
	err := h.Validate()
	if err == nil || !strings.Contains(err.Error(), "predates birth") {
		t.Errorf("want pre-birth error, got %v", err)
	}
}

func TestHistoryClone(t *testing.T) {
	h := NewHistory(newTestPatient(1))
	h.Add(pointEntry(1, Date(2010, time.March, 1), TypeContact, Code{}))
	c := h.Clone()
	c.Entries[0].Text = "changed"
	if h.Entries[0].Text == "changed" {
		t.Error("clone shares entry storage")
	}
}

func TestCollectionBasics(t *testing.T) {
	h1 := NewHistory(newTestPatient(1))
	h2 := NewHistory(newTestPatient(2))
	c, err := NewCollection(h1, h2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 || c.Get(2) != h2 || c.At(0) != h1 {
		t.Error("collection accessors broken")
	}
	if err := c.Add(NewHistory(newTestPatient(1))); err == nil {
		t.Error("duplicate patient must be rejected")
	}
	ids := c.IDs()
	if len(ids) != 2 || ids[0] != 1 || ids[1] != 2 {
		t.Errorf("IDs = %v", ids)
	}
}

func TestCollectionFilterSubsetSort(t *testing.T) {
	var hs []*History
	base := Date(2010, time.January, 1)
	for i := 1; i <= 5; i++ {
		h := NewHistory(newTestPatient(PatientID(i)))
		for j := 0; j < i; j++ { // history i has i entries
			h.Add(pointEntry(uint64(i*10+j), base.AddDays(j), TypeContact, Code{}))
		}
		hs = append(hs, h)
	}
	c := MustCollection(hs...)

	big := c.Filter(func(h *History) bool { return h.Len() >= 3 })
	if big.Len() != 3 {
		t.Errorf("Filter = %d, want 3", big.Len())
	}

	sub := c.Subset([]PatientID{4, 2, 4, 99})
	if sub.Len() != 2 || sub.At(0).Patient.ID != 4 || sub.At(1).Patient.ID != 2 {
		t.Errorf("Subset order/dedup wrong: %v", sub.IDs())
	}

	c.SortBy(func(a, b *History) bool { return a.Len() > b.Len() })
	if c.At(0).Patient.ID != 5 || c.At(4).Patient.ID != 1 {
		t.Errorf("SortBy order wrong: %v", c.IDs())
	}

	if c.TotalEntries() != 1+2+3+4+5 {
		t.Errorf("TotalEntries = %d", c.TotalEntries())
	}
}

func TestCollectionSpan(t *testing.T) {
	h1 := NewHistory(newTestPatient(1))
	h1.Add(pointEntry(1, Date(2010, time.January, 5), TypeContact, Code{}))
	h2 := NewHistory(newTestPatient(2))
	h2.Add(Entry{ID: 2, Kind: Interval, Start: Date(2009, time.December, 1), End: Date(2010, time.February, 1), Type: TypeStay})
	c := MustCollection(h1, h2)
	span := c.Span()
	if span.Start != Date(2009, time.December, 1) || span.End != Date(2010, time.February, 1) {
		t.Errorf("Span = %v", span)
	}
}

func TestPatientAgeAt(t *testing.T) {
	p := newTestPatient(1)
	if got := p.AgeAt(p.Birth + 59*Year + 364*Day); got != 59 {
		t.Errorf("AgeAt = %d, want 59", got)
	}
	if got := p.AgeAt(p.Birth - Day); got >= 0 {
		t.Errorf("AgeAt before birth = %d, want negative", got)
	}
}

func TestStringers(t *testing.T) {
	if SourceHospital.String() != "hospital" || TypeDiagnosis.String() != "diagnosis" {
		t.Error("stringers broken")
	}
	if Point.String() != "point" || Interval.String() != "interval" {
		t.Error("kind stringer broken")
	}
	if (Code{"ICPC2", "T90"}).String() != "ICPC2:T90" {
		t.Error("code stringer broken")
	}
	if !(Code{}).IsZero() {
		t.Error("zero code not zero")
	}
	if PatientID(42).String() != "P0000042" {
		t.Errorf("patient id stringer: %s", PatientID(42))
	}
	if SexFemale.String() != "F" || SexMale.String() != "M" || SexUnknown.String() != "?" {
		t.Error("sex stringer broken")
	}
	if len(Sources()) != 5 || len(Types()) != 6 {
		t.Error("enum lists wrong")
	}
}
