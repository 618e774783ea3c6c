package store

import (
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"pastas/internal/model"
)

// deltaEntry builds one point diagnosis for append-path tests.
func deltaEntry(id uint64, code model.Code) model.Entry {
	day := model.Date(2011, time.March, 1)
	return model.Entry{
		ID: id, Kind: model.Point, Start: day, End: day,
		Source: model.SourceGP, Type: model.TypeDiagnosis, Code: code,
	}
}

func TestAppendIndexesNewPatientsAndUpdates(t *testing.T) {
	s := New(testCollection(t))
	if s.Generation() != 0 {
		t.Fatalf("fresh store generation = %d", s.Generation())
	}
	t90 := model.Code{System: "ICPC2", Value: "T90"}

	h := model.NewHistory(model.Patient{ID: 6, Birth: model.Date(1960, time.January, 1)})
	h.Add(deltaEntry(9001, t90))
	gen, err := s.Append(AppendBatch{
		NewHistories: []*model.History{h},
		Updates:      []HistoryUpdate{{ID: 2, Entries: []model.Entry{deltaEntry(9002, t90)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || s.Generation() != 1 {
		t.Fatalf("generation after append = %d / %d, want 1", gen, s.Generation())
	}
	if s.Len() != 6 {
		t.Fatalf("Len = %d, want 6", s.Len())
	}
	if got := s.IDsOf(s.WithCode("ICPC2", "T90")); !reflect.DeepEqual(got, []model.PatientID{1, 2, 3, 6}) {
		t.Errorf("WithCode(T90) after append = %v", got)
	}
	if i, ok := s.Ordinal(6); !ok || i != 5 {
		t.Errorf("Ordinal(6) = %d, %v", i, ok)
	}
	if got := s.MaxEntryID(); got != 9002 {
		t.Errorf("MaxEntryID = %d, want 9002", got)
	}
	st := s.Ingest()
	if st.Batches != 1 || st.EntriesApplied != 2 || st.PatientsAdded != 1 ||
		st.DeltaEntries != 2 || st.DeltaPatients != 1 {
		t.Errorf("ingest stats = %+v", st)
	}
}

func TestAppendValidationLeavesStoreUntouched(t *testing.T) {
	s := New(testCollection(t))
	fresh := func(id model.PatientID) *model.History {
		h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1960, time.January, 1)})
		h.Add(deltaEntry(8000+uint64(id), model.Code{System: "ICPC2", Value: "R74"}))
		return h
	}
	bad := map[string]AppendBatch{
		"nil history":       {NewHistories: []*model.History{nil}},
		"existing patient":  {NewHistories: []*model.History{fresh(1)}},
		"dup within batch":  {NewHistories: []*model.History{fresh(7), fresh(7)}},
		"unknown update id": {Updates: []HistoryUpdate{{ID: 99, Entries: []model.Entry{deltaEntry(8099, model.Code{})}}}},
	}
	for name, b := range bad {
		if _, err := s.Append(b); err == nil {
			t.Errorf("%s: append succeeded, want error", name)
		}
	}
	if s.Generation() != 0 || s.Len() != 5 {
		t.Errorf("failed appends mutated the store: gen %d, len %d", s.Generation(), s.Len())
	}
}

// TestAppendDisjointCardinality: an update that re-delivers a code the
// patient already matches must not set a delta bit (the disjointness
// invariant) — cardinalities and posting answers stay exact.
func TestAppendDisjointCardinality(t *testing.T) {
	s := New(testCollection(t))
	before := s.WithCode("ICPC2", "T90").Count()
	// Patient 1 already has T90 in the base layer.
	if _, err := s.Append(AppendBatch{
		Updates: []HistoryUpdate{{ID: 1, Entries: []model.Entry{deltaEntry(9100, model.Code{System: "ICPC2", Value: "T90"})}}},
	}); err != nil {
		t.Fatal(err)
	}
	if got := s.WithCode("ICPC2", "T90").Count(); got != before {
		t.Errorf("T90 count changed %d -> %d on duplicate-code update", before, got)
	}
	if st := s.Ingest(); st.DeltaLists != 0 {
		t.Errorf("delta lists = %d, want 0 (all bits already present in base)", st.DeltaLists)
	}
	// The entry itself still landed in the history.
	i, _ := s.Ordinal(1)
	if got := len(s.Pin().HistoryAt(i).Entries); got != 4 {
		t.Errorf("patient 1 entries = %d, want 4", got)
	}
}

func TestCompactPreservesAnswersAndGeneration(t *testing.T) {
	s := New(testCollection(t))
	h := model.NewHistory(model.Patient{ID: 6, Birth: model.Date(1960, time.January, 1)})
	h.Add(deltaEntry(9001, model.Code{System: "ICPC2", Value: "T90"}))
	h.Add(deltaEntry(9002, model.Code{System: "ATC", Value: "N02BE01"}))
	if _, err := s.Append(AppendBatch{
		NewHistories: []*model.History{h},
		Updates:      []HistoryUpdate{{ID: 4, Entries: []model.Entry{deltaEntry(9003, model.Code{System: "ICPC2", Value: "K86"})}}},
	}); err != nil {
		t.Fatal(err)
	}

	type answers struct {
		t90, k86 []model.PatientID
		diag     int
		codes    int
	}
	snap := func() answers {
		return answers{
			t90:   s.IDsOf(s.WithCode("ICPC2", "T90")),
			k86:   s.IDsOf(s.WithCode("ICPC2", "K86")),
			diag:  s.WithType(model.TypeDiagnosis).Count(),
			codes: len(s.DistinctCodes()),
		}
	}
	before := snap()
	genBefore := s.Generation()
	deltaBefore := s.Ingest()

	stats := s.Compact()
	if s.Generation() != genBefore {
		t.Fatalf("compaction advanced the generation %d -> %d", genBefore, s.Generation())
	}
	if stats.Runs != 1 || stats.LastEntries != deltaBefore.DeltaEntries || stats.LastPatients != deltaBefore.DeltaPatients {
		t.Errorf("compaction stats = %+v (delta before: %+v)", stats, deltaBefore)
	}
	if st := s.Ingest(); st.DeltaEntries != 0 || st.DeltaPatients != 0 || st.DeltaLists != 0 {
		t.Errorf("delta not emptied by compaction: %+v", st)
	}
	if after := snap(); !reflect.DeepEqual(before, after) {
		t.Errorf("answers changed across compaction:\nbefore %+v\nafter  %+v", before, after)
	}
	// Compacting an empty delta is a no-op.
	if again := s.Compact(); again.Runs != 1 {
		t.Errorf("empty-delta compact ran: %+v", again)
	}
}

// TestCompactFoldsOnlyTouchedKeys: an append that adds a patient with one
// coded entry touches one code, one type and one source. Compact copies
// those three keys' bitsets and shares every other base bitset as it was,
// though the population grew past their length — and the folded layer
// still answers exactly what postings rebuilt from the histories do.
func TestCompactFoldsOnlyTouchedKeys(t *testing.T) {
	s := New(testCollection(t))
	h := model.NewHistory(model.Patient{ID: 6, Birth: model.Date(1960, time.January, 1)})
	h.Add(deltaEntry(9001, model.Code{System: "ICPC2", Value: "T90"}))
	if _, err := s.Append(AppendBatch{NewHistories: []*model.History{h}}); err != nil {
		t.Fatal(err)
	}
	before := s.loadRev().base
	s.Compact()
	r := s.loadRev()
	rebuilt := New(model.MustCollection(s.Pin().Histories()...)).loadRev().base
	checkFold(t, before.byCodeValue, r.base.byCodeValue, rebuilt.byCodeValue, codeKey{"ICPC2", "T90"}, r.hists.n)
	checkFold(t, before.byType, r.base.byType, rebuilt.byType, model.TypeDiagnosis, r.hists.n)
	checkFold(t, before.bySource, r.base.bySource, rebuilt.bySource, model.SourceGP, r.hists.n)
}

// checkFold holds one folded posting map to the fold's contract: touched
// is the only key whose bitset was copied, and every key answers what the
// rebuilt map answers.
func checkFold[K comparable](t *testing.T, before, after, rebuilt map[K]*Bitset, touched K, n int) {
	t.Helper()
	if len(after) != len(rebuilt) {
		t.Errorf("folded layer holds %d keys, rebuilt postings %d", len(after), len(rebuilt))
	}
	for k, bs := range before {
		if (after[k] == bs) == (k == touched) {
			t.Errorf("key %v: shared %v, want shared only when the delta left it alone", k, after[k] == bs)
		}
	}
	for k, want := range rebuilt {
		got := NewBitset(n)
		layerOrInto(got, after[k])
		if !got.Equal(want) {
			t.Errorf("key %v: folded %v, rebuilt %v", k, got.Ones(), want.Ones())
		}
	}
}

func TestPinAndFreezeIsolateAppends(t *testing.T) {
	s := New(testCollection(t))
	frozen := s.Freeze()
	v := s.Pin()

	h := model.NewHistory(model.Patient{ID: 6, Birth: model.Date(1960, time.January, 1)})
	h.Add(deltaEntry(9001, model.Code{System: "ICPC2", Value: "T90"}))
	if _, err := s.Append(AppendBatch{NewHistories: []*model.History{h}}); err != nil {
		t.Fatal(err)
	}

	if s.Len() != 6 || s.Generation() != 1 {
		t.Fatalf("live store: len %d gen %d", s.Len(), s.Generation())
	}
	if frozen.Len() != 5 || frozen.Generation() != 0 {
		t.Errorf("frozen store sees the append: len %d gen %d", frozen.Len(), frozen.Generation())
	}
	if v.Len() != 5 || v.Generation() != 0 {
		t.Errorf("pinned view sees the append: len %d gen %d", v.Len(), v.Generation())
	}
	if _, ok := v.Ordinal(6); ok {
		t.Error("pinned view resolves a patient appended after the pin")
	}
}

// TestAppendedStatsEqualBatchBuild: the statistics Append maintains equal
// those a batch build of the same histories collects — posting counts,
// births and value buckets alike — and so does every value bucket's
// posting, before and after Compact, across new patients and updates that
// bring a new code, type, source and value bucket (and updates that bring
// nothing new, or touch one patient twice in a batch).
func TestAppendedStatsEqualBatchBuild(t *testing.T) {
	s := New(testCollection(t))
	valued := func(id uint64, v float64) model.Entry {
		e := deltaEntry(id, model.Code{})
		e.Type, e.Value = model.TypeMeasurement, v
		return e
	}
	fresh := func(id model.PatientID, birth model.Time, vs ...float64) *model.History {
		h := model.NewHistory(model.Patient{ID: id, Birth: birth})
		for i, v := range vs {
			h.Add(valued(uint64(id)*1000+uint64(i), v))
		}
		return h
	}
	stay := deltaEntry(9101, model.Code{System: "ICD10", Value: "Z99"}) // new code, type and source
	stay.Type, stay.Source, stay.Kind, stay.End = model.TypeStay, model.SourceHospital, model.Interval, stay.Start+model.Day
	batches := []AppendBatch{{
		NewHistories: []*model.History{
			fresh(6, model.Date(1931, time.May, 2), 0, math.Copysign(0, -1), math.NaN(), 7.5),
			fresh(7, model.Date(2009, time.December, 31), math.Inf(1), 1e300, 5e-324),
		},
		Updates: []HistoryUpdate{
			{ID: 2, Entries: []model.Entry{stay, valued(9102, 7.5)}},
			{ID: 2, Entries: []model.Entry{valued(9103, 7.9), valued(9104, -120)}}, // 7.9 shares 7.5's bucket
			{ID: 3, Entries: []model.Entry{valued(9105, 0)}},                       // nothing new
		},
	}, {
		NewHistories: []*model.History{fresh(8, model.Date(1931, time.June, 1), 1e300)},
		Updates:      []HistoryUpdate{{ID: 6, Entries: []model.Entry{valued(9106, -120), valued(9107, 7.5)}}},
	}}
	sameBuckets := func(when string) {
		batch := New(model.MustCollection(s.Pin().Histories()...))
		if got, want := s.Stats(), batch.Stats(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: appended stats\n %+v\nbatch build\n %+v", when, got, want)
		}
		for k := range batch.Stats().valueCard {
			if got, want := s.Pin().WithValueBuckets(k, k), batch.Pin().WithValueBuckets(k, k); !got.Equal(want) {
				t.Errorf("%s: bucket %#x holds %v, batch build %v", when, k, got.Ones(), want.Ones())
			}
		}
	}
	for i, b := range batches {
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		sameBuckets(fmt.Sprintf("after batch %d", i))
	}
	s.Compact()
	sameBuckets("after Compact")
	st := s.Stats()
	if got := st.ValueBandCard(7, 8); got != 2 {
		t.Errorf("ValueBandCard(7, 8) = %d, want 2 (patients 2 and 6)", got)
	}
	if got := st.CodeCard("ICD10", "Z99"); got != 1 {
		t.Errorf("CodeCard(Z99) = %d, want 1", got)
	}
}
