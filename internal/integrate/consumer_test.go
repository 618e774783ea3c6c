package integrate

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"testing"

	"pastas/internal/model"
	"pastas/internal/sources"
	"pastas/internal/synth"
)

// applyBatch folds a consumer batch into a plain history map — the test
// stand-in for what the mutable store does with it.
func applyBatch(hists map[model.PatientID]*model.History, b *Batch) {
	for _, h := range b.NewPatients {
		hists[h.Patient.ID] = h
	}
	for _, u := range b.Updates {
		old := hists[u.ID]
		merged := model.NewHistory(old.Patient)
		for i := range old.Entries {
			merged.Add(old.Entries[i])
		}
		for i := range u.Entries {
			merged.Add(u.Entries[i])
		}
		merged.Sort()
		hists[u.ID] = merged
	}
}

// splitBundle partitions a bundle's event records into n round-robin
// slices while keeping all persons — and the municipal registry, whose
// overlapping-interval merge only sees one delivery at a time — in the
// first part: a crude but deterministic way to feed Build's input through
// Consume in pieces.
func splitBundle(b *sources.Bundle, n int) []*sources.Bundle {
	parts := make([]*sources.Bundle, n)
	for i := range parts {
		parts[i] = &sources.Bundle{}
	}
	parts[0].Persons = b.Persons
	parts[0].Municipal = b.Municipal
	for i, r := range b.GPClaims {
		parts[i%n].GPClaims = append(parts[i%n].GPClaims, r)
	}
	for i, r := range b.Prescriptions {
		parts[i%n].Prescriptions = append(parts[i%n].Prescriptions, r)
	}
	for i, r := range b.Episodes {
		parts[i%n].Episodes = append(parts[i%n].Episodes, r)
	}
	for i, r := range b.Specialist {
		parts[i%n].Specialist = append(parts[i%n].Specialist, r)
	}
	for i, r := range b.Physio {
		parts[i%n].Physio = append(parts[i%n].Physio, r)
	}
	return parts
}

// TestConsumerMatchesBatchBuild: consuming a bundle in pieces must
// produce the same histories (up to entry IDs) as one batch Build of the
// whole, with OpenIntervalEnd pinned so the horizon doesn't move.
func TestConsumerMatchesBatchBuild(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(60))
	opts := DefaultOptions()
	opts.OpenIntervalEnd = model.Date(2012, 6, 1)

	col, batchRep, err := Build(bundle, opts)
	if err != nil {
		t.Fatal(err)
	}

	c := NewConsumer(opts, nil, 0)
	hists := make(map[model.PatientID]*model.History)
	for _, part := range splitBundle(bundle, 3) {
		b, err := c.Consume(part)
		if err != nil {
			t.Fatal(err)
		}
		applyBatch(hists, b)
	}

	if len(hists) != col.Len() {
		t.Fatalf("incremental patients = %d, batch = %d", len(hists), col.Len())
	}
	total := c.TotalReport()
	if total.EntriesOut != batchRep.EntriesOut || total.Patients != batchRep.Patients ||
		total.DroppedPreBirth != batchRep.DroppedPreBirth || total.DuplicatesCollapsed != batchRep.DuplicatesCollapsed {
		t.Errorf("reports diverge:\nincremental %+v\nbatch       %+v", total, *batchRep)
	}
	for _, want := range col.Histories() {
		got := hists[want.Patient.ID]
		if got == nil {
			t.Fatalf("patient %d missing from incremental run", want.Patient.ID)
		}
		if got.Patient != want.Patient {
			t.Fatalf("patient %d demographics diverge", want.Patient.ID)
		}
		if len(got.Entries) != len(want.Entries) {
			t.Fatalf("patient %d: %d entries incremental, %d batch",
				want.Patient.ID, len(got.Entries), len(want.Entries))
		}
		// Entry IDs are assigned in a different order across the split, so
		// compare the ID-independent shape, order-insensitively.
		gk := entryKeys(got.Entries)
		wk := entryKeys(want.Entries)
		if !reflect.DeepEqual(gk, wk) {
			t.Fatalf("patient %d entry multisets diverge", want.Patient.ID)
		}
	}
}

// entryKeys renders each entry's ID-independent shape and sorts, so two
// runs that produced the same entries in different ID order compare equal.
func entryKeys(es []model.Entry) []string {
	out := make([]string, len(es))
	for i := range es {
		e := &es[i]
		out[i] = fmt.Sprintf("%v|%d-%d|%v|%v|%v|%g|%q",
			e.Kind, e.Start, e.End, e.Source, e.Type, e.Code, e.Value, e.Text)
	}
	sort.Strings(out)
	return out
}

// TestConsumerCrossBatchDedup: a claim re-delivered in a later bundle is
// collapsed exactly like an in-bundle duplicate.
func TestConsumerCrossBatchDedup(t *testing.T) {
	claim := sources.GPClaim{Person: 1, Date: "2010-03-05", ICPC: "T90", Amount: 150}
	c := NewConsumer(DefaultOptions(), nil, 0)
	first, err := c.Consume(&sources.Bundle{Persons: onePerson(), GPClaims: []sources.GPClaim{claim}})
	if err != nil {
		t.Fatal(err)
	}
	if len(first.NewPatients) != 1 || first.Report.DuplicatesCollapsed != 0 {
		t.Fatalf("first batch: %+v", first.Report)
	}
	second, err := c.Consume(&sources.Bundle{GPClaims: []sources.GPClaim{claim}})
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.DuplicatesCollapsed != 1 {
		t.Errorf("cross-batch duplicate not collapsed: %+v", second.Report)
	}
	if !second.Empty() {
		t.Errorf("duplicate-only bundle produced a non-empty batch: %+v", second)
	}
}

// TestConsumerResolveFallback: events for a patient integrated before the
// consumer existed are admitted through the resolve callback and come out
// as updates, not new patients.
func TestConsumerResolveFallback(t *testing.T) {
	birth := model.Date(1950, 6, 1)
	resolve := func(person uint64) (model.Time, bool) {
		if person == 7 {
			return birth, true
		}
		return 0, false
	}
	c := NewConsumer(DefaultOptions(), resolve, 100)
	b, err := c.Consume(&sources.Bundle{GPClaims: []sources.GPClaim{
		{Person: 7, Date: "2011-01-10", ICPC: "K86", Amount: 120},
		{Person: 8, Date: "2011-01-10", ICPC: "K86", Amount: 120}, // unknown everywhere
		{Person: 7, Date: "1940-01-01", ICPC: "K86", Amount: 120}, // pre-birth
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.NewPatients) != 0 || len(b.Updates) != 1 || b.Updates[0].ID != 7 {
		t.Fatalf("batch shape: %+v", b)
	}
	if b.Report.UnknownPersons != 1 || b.Report.DroppedPreBirth != 1 {
		t.Errorf("report: %+v", b.Report)
	}
	for _, e := range b.Updates[0].Entries {
		if e.ID < 100 {
			t.Errorf("entry ID %d below the seeded counter", e.ID)
		}
	}
}

// TestConsumerRejectsReintegratedPerson: a person record for an
// already-known patient fails the bundle, whether known to the consumer
// itself or only to the pre-existing store via resolve, and the failed
// bundle records nothing. A bundle whose entry IDs would wrap fails too.
func TestConsumerRejectsReintegratedPerson(t *testing.T) {
	c := NewConsumer(DefaultOptions(), nil, 0)
	if _, err := c.Consume(&sources.Bundle{Persons: onePerson()}); err != nil {
		t.Fatal(err)
	}
	fresh := sources.Person{ID: 5, BirthDate: "1970-01-01"}
	if _, err := c.Consume(&sources.Bundle{Persons: append([]sources.Person{fresh}, onePerson()...)}); err == nil {
		t.Error("re-delivered person accepted")
	}
	// Person 5 stays unknown to a later claim and can be delivered again.
	b, err := c.Consume(&sources.Bundle{GPClaims: []sources.GPClaim{{Person: 5, Date: "2010-01-01"}}})
	if err != nil || len(b.Updates) != 0 || b.Report.UnknownPersons != 1 {
		t.Fatalf("a claim for the rejected person: %+v, %v", b, err)
	}
	if b, err := c.Consume(&sources.Bundle{Persons: []sources.Person{fresh}}); err != nil || len(b.NewPatients) != 1 {
		t.Fatalf("re-delivering the rejected person: %v", err)
	}
	wrap := &sources.Bundle{Persons: onePerson(), GPClaims: []sources.GPClaim{{Person: 1, Date: "2010-01-01", ICPC: "T90"}}}
	if _, err := NewConsumer(DefaultOptions(), nil, math.MaxUint64-1).Consume(wrap); err == nil {
		t.Error("entry IDs wrapped")
	}

	resolve := func(person uint64) (model.Time, bool) { return model.Date(1950, 6, 1), person == 1 }
	c2 := NewConsumer(DefaultOptions(), resolve, 0)
	if _, err := c2.Consume(&sources.Bundle{Persons: onePerson()}); err == nil {
		t.Error("person known to the base store accepted as new")
	}
}
