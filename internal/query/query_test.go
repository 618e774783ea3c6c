package query

import (
	"reflect"
	"testing"
	"time"

	"pastas/internal/model"
)

func day(n int) model.Time { return model.Date(2010, time.January, 1).AddDays(n) }

func dx(id uint64, d int, system, code string) model.Entry {
	return model.Entry{
		ID: id, Kind: model.Point, Start: day(d), End: day(d),
		Source: model.SourceGP, Type: model.TypeDiagnosis,
		Code: model.Code{System: system, Value: code},
	}
}

func contact(id uint64, d int, src model.Source) model.Entry {
	return model.Entry{
		ID: id, Kind: model.Point, Start: day(d), End: day(d),
		Source: src, Type: model.TypeContact,
	}
}

func stay(id uint64, d, days int, code string) model.Entry {
	return model.Entry{
		ID: id, Kind: model.Interval, Start: day(d), End: day(d + days),
		Source: model.SourceHospital, Type: model.TypeStay,
		Code: model.Code{System: "ICD10", Value: code},
	}
}

func hist(id model.PatientID, sex model.Sex, entries ...model.Entry) *model.History {
	h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1950, time.June, 1), Sex: sex})
	for _, e := range entries {
		h.Add(e)
	}
	h.Sort()
	return h
}

func TestEventPreds(t *testing.T) {
	e := dx(1, 0, "ICPC2", "T90")
	if !MustCode("", "T9.").Match(&e) {
		t.Error("code wildcard should match")
	}
	if MustCode("ICD10", "T9.").Match(&e) {
		t.Error("system filter violated")
	}
	if MustCode("", "T9").Match(&e) {
		t.Error("anchoring violated")
	}
	c := contact(2, 0, model.SourceGP)
	if MustCode("", ".*").Match(&c) {
		t.Error("uncoded entry matched code predicate")
	}
	if !TypeIs(model.TypeDiagnosis).Match(&e) || TypeIs(model.TypeContact).Match(&e) {
		t.Error("TypeIs broken")
	}
	if !SourceIs(model.SourceGP).Match(&e) {
		t.Error("SourceIs broken")
	}
	if !KindIs(model.Point).Match(&e) || KindIs(model.Interval).Match(&e) {
		t.Error("KindIs broken")
	}

	bp := model.Entry{ID: 3, Kind: model.Point, Start: day(0), End: day(0), Type: model.TypeMeasurement, Value: 150}
	if !(ValueBetween{140, 200}).Match(&bp) || (ValueBetween{151, 200}).Match(&bp) {
		t.Error("ValueBetween broken")
	}

	iv := stay(4, 5, 3, "I21.9")
	p := InPeriod(model.Period{Start: day(6), End: day(7)})
	if !p.Match(&iv) {
		t.Error("interval overlap should match InPeriod")
	}
	pt := dxAt(0)
	if !(InPeriod(model.Period{Start: day(0), End: day(1)})).Match(&pt) {
		t.Error("point containment should match")
	}

	txt := model.Entry{ID: 5, Text: "kontroll, BT 140/90"}
	tm, err := NewTextMatch(`BT \d+/\d+`)
	if err != nil {
		t.Fatal(err)
	}
	if !tm.Match(&txt) {
		t.Error("TextMatch broken")
	}
	if _, err := NewTextMatch(`(`); err == nil {
		t.Error("bad text pattern accepted")
	}

	comb := AllOf{TypeIs(model.TypeDiagnosis), MustCode("", "T90")}
	if !comb.Match(&e) {
		t.Error("AllOf broken")
	}
	any := AnyOf{MustCode("", "X99"), TypeIs(model.TypeDiagnosis)}
	if !any.Match(&e) {
		t.Error("AnyOf broken")
	}
	if (NotEv{comb}).Match(&e) {
		t.Error("NotEv broken")
	}
}

func dxAt(d int) model.Entry { return dx(99, d, "ICPC2", "A04") }

func TestHasMinCount(t *testing.T) {
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "T90"),
		dx(2, 30, "ICPC2", "T90"),
		dx(3, 60, "ICPC2", "K86"),
	)
	t90 := MustCode("", "T90")
	if !(Has{Pred: t90}).Eval(h) {
		t.Error("Has default count broken")
	}
	if !(Has{Pred: t90, MinCount: 2}).Eval(h) {
		t.Error("Has MinCount 2 should hold")
	}
	if (Has{Pred: t90, MinCount: 3}).Eval(h) {
		t.Error("Has MinCount 3 should fail")
	}
	if !(Has{Pred: t90, MinCount: 0}).Eval(h) {
		t.Error("MinCount 0 treated as 1")
	}
}

func TestBooleanExprs(t *testing.T) {
	h := hist(1, model.SexFemale, dx(1, 0, "ICPC2", "T90"))
	hasT90 := Has{Pred: MustCode("", "T90")}
	hasK86 := Has{Pred: MustCode("", "K86")}

	if !(And{hasT90, TrueExpr{}}).Eval(h) {
		t.Error("And broken")
	}
	if (And{hasT90, hasK86}).Eval(h) {
		t.Error("And must fail on missing code")
	}
	if !(Or{hasK86, hasT90}).Eval(h) {
		t.Error("Or broken")
	}
	if (Not{hasT90}).Eval(h) {
		t.Error("Not broken")
	}
	if !(SexIs(model.SexFemale)).Eval(h) || (SexIs(model.SexMale)).Eval(h) {
		t.Error("SexIs broken")
	}
	// Born 1950-06-01: on 2010-01-01 the patient is 59.
	if !(AgeBetween{Lo: 59, Hi: 59, At: day(0)}).Eval(h) {
		t.Errorf("AgeBetween broken: age=%d", h.Patient.AgeAt(day(0)))
	}
}

func TestDuring(t *testing.T) {
	h := hist(1, model.SexFemale,
		stay(1, 10, 7, "I21.9"),
		dx(2, 12, "ICD10", "E11.9"), // during the stay
		dx(3, 40, "ICPC2", "T90"),   // outside
	)
	d := During{
		Interval: AllOf{TypeIs(model.TypeStay), MustCode("", "I21.*")},
		Event:    MustCode("", "E11.*"),
	}
	if !d.Eval(h) {
		t.Error("During should match diagnosis inside stay")
	}
	d2 := During{
		Interval: TypeIs(model.TypeStay),
		Event:    MustCode("", "T90"),
	}
	if d2.Eval(h) {
		t.Error("During must not match event outside interval")
	}
}

func TestSequenceBasics(t *testing.T) {
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "K86"),
		dx(2, 100, "ICPC2", "K74"),
		dx(3, 200, "ICPC2", "K75"),
	)
	seq := Sequence{Steps: []Step{
		{Pred: MustCode("", "K86")},
		{Pred: MustCode("", "K74")},
		{Pred: MustCode("", "K75")},
	}}
	m := seq.FirstMatch(h)
	if m == nil || len(m.Entries) != 3 {
		t.Fatal("sequence should match")
	}
	if m.Span().Start != day(0) || m.Span().End != day(200) {
		t.Errorf("span = %v", m.Span())
	}
	// Order matters.
	rev := Sequence{Steps: []Step{
		{Pred: MustCode("", "K75")},
		{Pred: MustCode("", "K86")},
	}}
	if rev.Eval(h) {
		t.Error("reversed sequence must not match")
	}
}

func TestSequenceGapConstraints(t *testing.T) {
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "K75"),
		contact(2, 10, model.SourceGP),
		contact(3, 400, model.SourceGP),
	)
	// Follow-up within 90 days: matches via the day-10 contact.
	within := Sequence{Steps: []Step{
		{Pred: MustCode("", "K75")},
		{Pred: TypeIs(model.TypeContact), MaxGap: Days(90)},
	}}
	if !within.Eval(h) {
		t.Error("gap-constrained sequence should match")
	}
	// Contact at least 180 days later: only the day-400 one qualifies.
	late := Sequence{Steps: []Step{
		{Pred: MustCode("", "K75")},
		{Pred: TypeIs(model.TypeContact), MinGap: Days(180)},
	}}
	m := late.FirstMatch(h)
	if m == nil || m.Entries[1].ID != 3 {
		t.Fatalf("MinGap witness wrong: %v", m)
	}
	// Infeasible window.
	never := Sequence{Steps: []Step{
		{Pred: MustCode("", "K75")},
		{Pred: TypeIs(model.TypeContact), MinGap: Days(20), MaxGap: Days(30)},
	}}
	if never.Eval(h) {
		t.Error("infeasible gap matched")
	}
}

func TestSequenceBacktracking(t *testing.T) {
	// Greedy earliest choice at step 1 (day 0) makes step 2 infeasible
	// (MaxGap 50 reaches only day 50); the day-60 candidate works with
	// the day-100 event. Correct search must find it.
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "K86"),
		dx(2, 60, "ICPC2", "K86"),
		dx(3, 100, "ICPC2", "K75"),
	)
	seq := Sequence{Steps: []Step{
		{Pred: MustCode("", "K86")},
		{Pred: MustCode("", "K75"), MaxGap: Days(50)},
	}}
	m := seq.FirstMatch(h)
	if m == nil {
		t.Fatal("backtracking failed to find feasible witness")
	}
	if m.Entries[0].ID != 2 || m.Entries[1].ID != 3 {
		t.Errorf("witness = %d,%d", m.Entries[0].ID, m.Entries[1].ID)
	}
}

func TestSequenceAllMatches(t *testing.T) {
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "R74"),
		dx(2, 50, "ICPC2", "R74"),
		dx(3, 100, "ICPC2", "R74"),
	)
	seq := Sequence{Steps: []Step{{Pred: MustCode("", "R74")}}}
	ms := seq.AllMatches(h)
	if len(ms) != 3 {
		t.Fatalf("AllMatches = %d, want 3", len(ms))
	}
	empty := Sequence{}
	if empty.AllMatches(h) != nil || empty.FirstMatch(h) != nil {
		t.Error("empty sequence must not match")
	}
}

func TestSelectAndFilter(t *testing.T) {
	col := model.MustCollection(
		hist(1, model.SexFemale, dx(1, 0, "ICPC2", "T90")),
		hist(2, model.SexMale, dx(2, 0, "ICPC2", "K86")),
		hist(3, model.SexFemale, dx(3, 0, "ICPC2", "T90"), dx(4, 10, "ICPC2", "K86")),
	)
	hasT90 := Has{Pred: MustCode("", "T90")}
	got := Select(col, hasT90)
	if !reflect.DeepEqual(got, []model.PatientID{1, 3}) {
		t.Errorf("Select = %v", got)
	}
	sub := Filter(col, hasT90)
	if sub.Len() != 2 {
		t.Errorf("Filter len = %d", sub.Len())
	}
}

func TestFilterEvents(t *testing.T) {
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "T90"),
		contact(2, 5, model.SourceGP),
		dx(3, 10, "ICPC2", "F92"),
	)
	// The paper's eye-or-ear filter.
	out := FilterEvents(h, AllOf{TypeIs(model.TypeDiagnosis), MustCode("", `F.*|H.*`)})
	if out.Len() != 1 || out.Entries[0].Code.Value != "F92" {
		t.Errorf("FilterEvents = %v", out.Entries)
	}
	if h.Len() != 3 {
		t.Error("FilterEvents mutated the original")
	}
}

func TestExprStringers(t *testing.T) {
	e := And{
		Has{Pred: MustCode("ICPC2", "T90"), MinCount: 2},
		Not{Or{SexIs(model.SexMale), TrueExpr{}}},
		During{Interval: TypeIs(model.TypeStay), Event: MustCode("", "E11.*")},
		Sequence{Steps: []Step{
			{Pred: MustCode("", "K75")},
			{Pred: TypeIs(model.TypeContact), MinGap: Days(1), MaxGap: Days(90)},
		}},
	}
	s := e.String()
	for _, want := range []string{"has>=2", "NOT", "during", "seq(", "gap 1d..90d", "AND"} {
		if !containsStr(s, want) {
			t.Errorf("stringer missing %q in %q", want, s)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
