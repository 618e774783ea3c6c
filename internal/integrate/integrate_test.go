package integrate

import (
	"reflect"
	"strings"
	"testing"

	"pastas/internal/model"
	"pastas/internal/sources"
	"pastas/internal/synth"
)

func onePerson() []sources.Person {
	return []sources.Person{{ID: 1, BirthDate: "1950-06-01", Sex: "F", Municipality: 5001}}
}

func TestBuildBasicGPClaim(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		GPClaims: []sources.GPClaim{
			{Person: 1, Date: "2010-03-05", ICPC: "T90", Systolic: 145, Diastolic: 92, Amount: 150, Text: "kontroll"},
		},
	}
	col, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := col.Get(1)
	if h == nil {
		t.Fatal("patient missing")
	}
	// Contact + diagnosis + measurement.
	if h.Len() != 3 {
		t.Fatalf("entries = %d, want 3: %v", h.Len(), h.Entries)
	}
	var types []string
	for i := range h.Entries {
		types = append(types, h.Entries[i].Type.String())
	}
	joined := strings.Join(types, ",")
	for _, want := range []string{"contact", "diagnosis", "measurement"} {
		if !strings.Contains(joined, want) {
			t.Errorf("missing %s entry in %s", want, joined)
		}
	}
	if rep.EntriesOut != 3 || rep.Patients != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestPreBirthDropped(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		GPClaims: []sources.GPClaim{
			{Person: 1, Date: "1930-01-01", ICPC: "A04"}, // before 1950 birth
			{Person: 1, Date: "2010-01-01", ICPC: "A04"},
		},
	}
	col, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DroppedPreBirth != 1 {
		t.Errorf("DroppedPreBirth = %d", rep.DroppedPreBirth)
	}
	if err := col.Validate(); err != nil {
		t.Errorf("collection invalid after pre-birth filtering: %v", err)
	}
}

func TestDuplicatesCollapsed(t *testing.T) {
	claim := sources.GPClaim{Person: 1, Date: "2010-03-05", ICPC: "K86", Text: "kontroll"}
	b := &sources.Bundle{
		Persons:  onePerson(),
		GPClaims: []sources.GPClaim{claim, claim, claim},
	}
	col, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.DuplicatesCollapsed != 2 {
		t.Errorf("DuplicatesCollapsed = %d", rep.DuplicatesCollapsed)
	}
	if got := col.Get(1).Count(func(e *model.Entry) bool { return e.Type == model.TypeContact }); got != 1 {
		t.Errorf("contacts after dedup = %d", got)
	}
}

func TestBPAndCodeFromText(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		GPClaims: []sources.GPClaim{
			{Person: 1, Date: "2010-03-05", ICPC: "", Text: "kontroll T90, BT 145/92"},
			{Person: 1, Date: "2010-04-05", ICPC: "", Text: "kontroll, BTT 14592"}, // typo: unrecoverable
		},
	}
	col, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.CodesFromText != 1 {
		t.Errorf("CodesFromText = %d", rep.CodesFromText)
	}
	if rep.BPFromText != 1 {
		t.Errorf("BPFromText = %d", rep.BPFromText)
	}
	h := col.Get(1)
	m := h.First(func(e *model.Entry) bool { return e.Type == model.TypeMeasurement })
	if m == nil || m.Value != 145 || m.Aux != 92 {
		t.Errorf("extracted measurement = %v", m)
	}
	d := h.First(func(e *model.Entry) bool { return e.Type == model.TypeDiagnosis })
	if d == nil || d.Code.Value != "T90" {
		t.Errorf("extracted diagnosis = %v", d)
	}

	// With extraction disabled nothing is recovered.
	opts := DefaultOptions()
	opts.ExtractFromText = false
	col2, rep2, err := Build(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.BPFromText != 0 || rep2.CodesFromText != 0 {
		t.Errorf("extraction happened while disabled: %+v", rep2)
	}
	if col2.Get(1).Count(func(e *model.Entry) bool { return e.Type == model.TypeMeasurement }) != 0 {
		t.Error("measurement created while extraction disabled")
	}
}

func TestEpisodeModes(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		Episodes: []sources.HospitalEpisode{
			{Person: 1, Admitted: "2010-03-01", Discharged: "2010-03-08", Mode: sources.ModeInpatient, MainICD: "I21.9", SecondaryICD: []string{"E11.9"}},
			{Person: 1, Admitted: "2010-05-01", Mode: sources.ModeOutpatient, MainICD: "I25"},
			{Person: 1, Admitted: "2010-06-01", Mode: sources.ModeDay, MainICD: "Z51.5"},
			{Person: 1, Admitted: "2010-07-01", Mode: "weird", MainICD: "I25"},
		},
	}
	col, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := col.Get(1)
	stays := h.Count(func(e *model.Entry) bool { return e.Type == model.TypeStay })
	if stays != 2 { // inpatient + day
		t.Errorf("stays = %d", stays)
	}
	contacts := h.Count(func(e *model.Entry) bool { return e.Type == model.TypeContact })
	if contacts != 1 { // outpatient
		t.Errorf("contacts = %d", contacts)
	}
	dx := h.Count(func(e *model.Entry) bool { return e.Type == model.TypeDiagnosis })
	if dx != 4 { // I21.9 + E11.9 + I25 + Z51.5
		t.Errorf("diagnoses = %d", dx)
	}
	if rep.DroppedUnparsable != 1 { // the "weird" mode
		t.Errorf("DroppedUnparsable = %d", rep.DroppedUnparsable)
	}
	stay := h.First(func(e *model.Entry) bool { return e.Type == model.TypeStay })
	if stay.Duration() != 7*model.Day {
		t.Errorf("stay duration = %v", stay.Duration())
	}
}

func TestMunicipalMergingAndOpenEnd(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		Municipal: []sources.MunicipalService{
			{Person: 1, Service: sources.ServiceHomeCare, From: "2010-01-01", To: "2010-03-01"},
			{Person: 1, Service: sources.ServiceHomeCare, From: "2010-02-01", To: "2010-05-01"}, // overlaps
			{Person: 1, Service: sources.ServiceNursing, From: "2010-06-01", To: ""},            // open
		},
		GPClaims: []sources.GPClaim{{Person: 1, Date: "2011-12-30"}}, // defines extract horizon
	}
	col, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := col.Get(1)
	services := h.Within(model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)})
	var homecare, nursing *model.Entry
	for _, e := range services {
		switch e.Type {
		case model.TypeService:
			homecare = e
		case model.TypeStay:
			nursing = e
		}
	}
	if homecare == nil || nursing == nil {
		t.Fatal("missing municipal entries")
	}
	if rep.MergedIntervals != 1 {
		t.Errorf("MergedIntervals = %d", rep.MergedIntervals)
	}
	if homecare.Start != model.Date(2010, 1, 1) || homecare.End != model.Date(2010, 5, 1) {
		t.Errorf("merged homecare = %v..%v", homecare.Start, homecare.End)
	}
	// Open interval closes one day past the latest bundle date.
	if nursing.End != model.Date(2011, 12, 31) {
		t.Errorf("open nursing end = %v", nursing.End)
	}
}

func TestUnknownPersonAndUnparsable(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		GPClaims: []sources.GPClaim{
			{Person: 99, Date: "2010-01-01"}, // unknown person
			{Person: 1, Date: "not-a-date"},  // unparsable
			{Person: 1, Date: "2010-01-01"},  // fine
		},
	}
	_, rep, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.UnknownPersons != 1 || rep.DroppedUnparsable != 1 {
		t.Errorf("report: %+v", rep)
	}
}

func TestDuplicatePersonRejected(t *testing.T) {
	b := &sources.Bundle{
		Persons: []sources.Person{
			{ID: 1, BirthDate: "1950-06-01", Sex: "F"},
			{ID: 1, BirthDate: "1950-06-01", Sex: "F"},
		},
	}
	if _, _, err := Build(b, DefaultOptions()); err == nil {
		t.Error("duplicate person accepted")
	}
}

func TestPrescriptionsBecomeIntervals(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		Prescriptions: []sources.Prescription{
			{Person: 1, Date: "2010-01-01", ATC: "A10BA02", DurationDays: 90},
			{Person: 1, Date: "2010-02-01", ATC: "C07AB02", DurationDays: 0}, // degenerate
		},
	}
	col, _, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := col.Get(1)
	meds := 0
	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Type == model.TypeMedication {
			meds++
			if e.Kind != model.Interval || e.Duration() < model.Day {
				t.Errorf("medication entry malformed: %v", e)
			}
		}
	}
	if meds != 2 {
		t.Errorf("medications = %d", meds)
	}
}

func TestEndToEndSyntheticPipeline(t *testing.T) {
	cfg := synth.DefaultConfig(300)
	bundle := synth.Generate(cfg)
	col, rep, err := Build(bundle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 300 {
		t.Fatalf("patients = %d", col.Len())
	}
	if err := col.Validate(); err != nil {
		t.Fatalf("integrated collection invalid: %v", err)
	}
	if rep.EntriesOut == 0 || rep.EntriesOut != col.TotalEntries() {
		t.Errorf("entry accounting wrong: %+v vs %d", rep, col.TotalEntries())
	}
	// The noise the generator injects must be visible in the report.
	if rep.DroppedPreBirth == 0 {
		t.Error("expected pre-birth drops from synthetic noise")
	}
	if rep.DuplicatesCollapsed == 0 {
		t.Error("expected duplicate collapses from synthetic noise")
	}
	if rep.BPFromText == 0 {
		t.Error("expected BP recovery from notes")
	}
	if !strings.Contains(rep.String(), "records -> ") {
		t.Error("report stringer broken")
	}
}

func TestHistoriesSortedAfterBuild(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(50))
	col, _, err := Build(bundle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range col.Histories() {
		for i := 1; i < len(h.Entries); i++ {
			if h.Entries[i].Start < h.Entries[i-1].Start {
				t.Fatalf("history %s not sorted", h.Patient.ID)
			}
		}
	}
}

func TestMergePeriods(t *testing.T) {
	closed := func(start, end model.Time) openPeriod {
		return openPeriod{Period: model.Period{Start: start, End: end}}
	}
	ps := []openPeriod{
		closed(400, 500),
		closed(150, 250),
		closed(100, 200),
		closed(250, 300), // touching merges too
	}
	want := []openPeriod{closed(100, 300), closed(400, 500)} // the gap stays
	if got := mergeOpenPeriods(ps); !reflect.DeepEqual(got, want) {
		t.Errorf("merged = %+v, want %+v", got, want)
	}
	if out := mergeOpenPeriods(nil); len(out) != 0 {
		t.Error("empty merge broken")
	}
}

func TestOpenEndFlagPropagates(t *testing.T) {
	b := &sources.Bundle{
		Persons: onePerson(),
		Municipal: []sources.MunicipalService{
			{Person: 1, Service: sources.ServiceHomeCare, From: "2010-01-01", To: ""},
			{Person: 1, Service: sources.ServiceNursing, From: "2010-02-01", To: "2010-06-01"},
		},
		GPClaims: []sources.GPClaim{{Person: 1, Date: "2011-12-30"}},
	}
	col, _, err := Build(b, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	h := col.Get(1)
	var open, closed *model.Entry
	for i := range h.Entries {
		e := &h.Entries[i]
		switch e.Type {
		case model.TypeService:
			open = e
		case model.TypeStay:
			closed = e
		}
	}
	if open == nil || !open.OpenEnd {
		t.Error("still-running service must carry OpenEnd")
	}
	if closed == nil || closed.OpenEnd {
		t.Error("dated service must not carry OpenEnd")
	}
}

func TestMergeOpenPeriodsFlagPropagation(t *testing.T) {
	period := func(start, end model.Time, open bool) openPeriod {
		return openPeriod{Period: model.Period{Start: start, End: end}, open: open}
	}
	for _, tc := range []struct {
		name     string
		in, want []openPeriod
	}{
		{"open tail extends", []openPeriod{period(0, 100, false), period(50, 300, true)}, []openPeriod{period(0, 300, true)}},
		{"closed tail clears the flag", []openPeriod{period(0, 100, true), period(50, 300, false)}, []openPeriod{period(0, 300, false)}},
		{"equal ends keep an open flag", []openPeriod{period(0, 300, false), period(50, 300, true)}, []openPeriod{period(0, 300, true)}},
	} {
		if got := mergeOpenPeriods(tc.in); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: merged = %+v, want %+v", tc.name, got, tc.want)
		}
	}
}
