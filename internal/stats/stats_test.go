package stats

import (
	"math"
	"strings"
	"testing"
	"time"

	"pastas/internal/model"
)

func TestDescriptives(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Median(xs) != 3 {
		t.Errorf("median = %f", Median(xs))
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %f", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %f", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %f", got)
	}
	if Median(nil) != 0 || Quantile(nil, 0.5) != 0 {
		t.Error("empty input must be 0")
	}
}

func TestQuantileInterpolation(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); got != 5 {
		t.Errorf("interpolated median = %f", got)
	}
}

func surveyCollection(t *testing.T, n int, contactsEach int) *model.Collection {
	t.Helper()
	col := &model.Collection{}
	base := model.Date(2010, time.January, 1)
	id := uint64(1)
	for i := 0; i < n; i++ {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, time.June, 1)})
		for c := 0; c < contactsEach; c++ {
			h.Add(model.Entry{
				ID: id, Kind: model.Point, Start: base.AddDays(c * 10), End: base.AddDays(c * 10),
				Source: model.SourceGP, Type: model.TypeContact,
			})
			id++
		}
		if err := col.Add(h); err != nil {
			t.Fatal(err)
		}
	}
	return col
}

func TestSurveyDeterministic(t *testing.T) {
	col := surveyCollection(t, 500, 15)
	p := DefaultSurveyParams()
	a := SimulateSurvey(col, p)
	b := SimulateSurvey(col, p)
	if a != b {
		t.Error("survey not deterministic")
	}
	if a.N != 500 || a.Recognized+a.NotRemember+a.AllWrong != a.N {
		t.Errorf("outcome accounting broken: %+v", a)
	}
}

func TestSurveyShape(t *testing.T) {
	p := DefaultSurveyParams()
	// Patients with many contacts recognize more than patients with few.
	dense := SimulateSurvey(surveyCollection(t, 3000, 30), p)
	sparse := SimulateSurvey(surveyCollection(t, 3000, 2), p)
	dr, dn, _ := dense.Proportions()
	sr, sn, _ := sparse.Proportions()
	if dn >= sn {
		t.Errorf("forgetting should decrease with contacts: dense %.3f vs sparse %.3f", dn, sn)
	}
	if dr <= sr {
		t.Error("recognition should increase with contacts")
	}
	// Wrong-linkage rate is contact-independent and ≈1%.
	_, _, dw := dense.Proportions()
	if dw < 0.003 || dw > 0.03 {
		t.Errorf("all-wrong fraction = %.3f, want ≈0.011", dw)
	}
}

func TestSurveyStringer(t *testing.T) {
	r := SurveyResult{N: 100, Recognized: 92, NotRemember: 7, AllWrong: 1}
	s := r.String()
	for _, want := range []string{"92.0%", "7.0%", "1.0%"} {
		if !strings.Contains(s, want) {
			t.Errorf("stringer missing %q: %s", want, s)
		}
	}
	rec, notRem, wrong := (SurveyResult{}).Proportions()
	if rec != 0 || notRem != 0 || wrong != 0 {
		t.Error("empty proportions broken")
	}
}

func TestComputeIndicators(t *testing.T) {
	window := model.Period{Start: model.Date(2010, time.January, 1), End: model.Date(2012, time.January, 1)}
	col := &model.Collection{}
	h := model.NewHistory(model.Patient{ID: 1, Birth: model.Date(1950, time.June, 1), Sex: model.SexFemale})
	base := window.Start
	// 4 GP contacts, one admission of 10 days, one 90-day homecare span,
	// one prescription — over 2 patient-years.
	for i := 0; i < 4; i++ {
		h.Add(model.Entry{ID: uint64(i + 1), Kind: model.Point, Start: base.AddDays(i * 100), End: base.AddDays(i * 100),
			Source: model.SourceGP, Type: model.TypeContact})
	}
	h.Add(model.Entry{ID: 10, Kind: model.Interval, Start: base.AddDays(30), End: base.AddDays(40),
		Source: model.SourceHospital, Type: model.TypeStay})
	h.Add(model.Entry{ID: 11, Kind: model.Interval, Start: base.AddDays(100), End: base.AddDays(190),
		Source: model.SourceMunicipal, Type: model.TypeService})
	h.Add(model.Entry{ID: 12, Kind: model.Interval, Start: base.AddDays(5), End: base.AddDays(95),
		Source: model.SourceGP, Type: model.TypeMedication, Code: model.Code{System: "ATC", Value: "C07AB02"}})
	if err := col.Add(h); err != nil {
		t.Fatal(err)
	}

	ind := ComputeIndicators(col, window)
	if ind.Patients != 1 {
		t.Fatalf("patients = %d", ind.Patients)
	}
	if math.Abs(ind.PatientYears-2) > 0.02 {
		t.Errorf("patient-years = %f", ind.PatientYears)
	}
	// 4 contacts / 2 py = 200 per 100 py.
	if math.Abs(ind.GPContacts-200) > 5 {
		t.Errorf("GP contacts per 100py = %f", ind.GPContacts)
	}
	if math.Abs(ind.Admissions-50) > 2 {
		t.Errorf("admissions per 100py = %f", ind.Admissions)
	}
	if math.Abs(ind.AdmissionDays-500) > 15 {
		t.Errorf("bed-days per 100py = %f", ind.AdmissionDays)
	}
	if math.Abs(ind.HomeCareDays-4500) > 150 {
		t.Errorf("home-care days per 100py = %f", ind.HomeCareDays)
	}
	if ind.FemaleShare != 1 || ind.MeanAge < 59 || ind.MeanAge > 60 {
		t.Errorf("demographics: age %f female %f", ind.MeanAge, ind.FemaleShare)
	}
	table := ind.Table()
	for _, want := range []string{"GP contacts", "bed-days", "per 100 patient-years"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

func TestComputeIndicatorsEmpty(t *testing.T) {
	ind := ComputeIndicators(&model.Collection{}, model.Period{})
	if ind.Patients != 0 || ind.PatientYears != 0 {
		t.Errorf("empty indicators = %+v", ind)
	}
}

func TestIndicatorsClampToWindow(t *testing.T) {
	window := model.Period{Start: model.Date(2010, time.January, 1), End: model.Date(2011, time.January, 1)}
	col := &model.Collection{}
	h := model.NewHistory(model.Patient{ID: 1, Birth: model.Date(1950, time.June, 1)})
	// A stay straddling the window end: only in-window days count.
	h.Add(model.Entry{ID: 1, Kind: model.Interval,
		Start: window.End.AddDays(-5), End: window.End.AddDays(5),
		Source: model.SourceHospital, Type: model.TypeStay})
	// A contact outside the window: not counted.
	h.Add(model.Entry{ID: 2, Kind: model.Point, Start: window.End.AddDays(30), End: window.End.AddDays(30),
		Source: model.SourceGP, Type: model.TypeContact})
	if err := col.Add(h); err != nil {
		t.Fatal(err)
	}
	ind := ComputeIndicators(col, window)
	if ind.GPContacts != 0 {
		t.Errorf("out-of-window contact counted: %f", ind.GPContacts)
	}
	if math.Abs(ind.AdmissionDays-500) > 15 { // 5 days / 1 py = 500 per 100py
		t.Errorf("clamped bed-days = %f", ind.AdmissionDays)
	}
}
