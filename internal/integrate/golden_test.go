package integrate

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"unsafe"

	"pastas/internal/model"
	"pastas/internal/sources"
	"pastas/internal/synth"
)

// digest hashes every field of every entry (the ID included), each
// patient's demographics and sorted flag, and the report. Entries are
// rendered field by field, in the order and form %#v gave model.Entry when
// the digests were taken — with the owning patient's ID as its Patient —
// so reordering or dropping fields of the struct leaves the digests alone.
func digest(hs []*model.History, rep *Report) string {
	h := sha256.New()
	for _, hist := range hs {
		fmt.Fprintf(h, "%#v %v\n", hist.Patient, hist.Sorted())
		for i := range hist.Entries {
			e := &hist.Entries[i]
			fmt.Fprintf(h, "model.Entry{ID:%#v, Patient:%#v, Kind:%#v, Start:%#v, End:%#v, Source:%#v, Type:%#v, Code:%#v, Value:%#v, Aux:%#v, Text:%#v, OpenEnd:%#v}\n",
				e.ID, hist.Patient.ID, e.Kind, e.Start, e.End, e.Source, e.Type, e.Code, e.Value, e.Aux, e.Text, e.OpenEnd)
		}
	}
	fmt.Fprintf(h, "%#v", *rep)
	return hex.EncodeToString(h.Sum(nil))
}

// hostileBundle exercises every rejection path of every registry, with
// records interleaved across persons: unknown persons (99, and 4 whose
// birth date does not parse), duplicates, pre-birth events, an unparsable
// date in every registry, an unknown episode mode, secondary ICDs, and
// overlapping and open municipal services for known and unknown persons.
func hostileBundle() *sources.Bundle {
	return &sources.Bundle{
		Persons: []sources.Person{
			{ID: 3, BirthDate: "1960-02-29", Sex: "M", Municipality: 1902},
			{ID: 1, BirthDate: "1950-06-01", Sex: "F", Municipality: 5001},
			{ID: 4, BirthDate: "1950-13-40", Sex: "F"},
			{ID: 2, BirthDate: "1945-01-15", Sex: "X"},
		},
		GPClaims: []sources.GPClaim{
			{Person: 2, Date: "2010-03-05", ICPC: "T90", Systolic: 150, Diastolic: 95, Amount: 150},
			{Person: 1, Date: "2010-03-05", Text: "kontroll K86, BT 145/92"},
			{Person: 2, Date: "2010-03-05", ICPC: "T90", Systolic: 150, Diastolic: 95, Amount: 150},
			{Person: 99, Date: "2010-01-01", ICPC: "A04"},
			{Person: 99, Date: "2010-01-01", ICPC: "A04"},
			{Person: 4, Date: "2010-01-01"},
			{Person: 1, Date: "1940-01-01", ICPC: "A04"},
			{Person: 3, Date: "not-a-date"},
			{Person: 1, Date: "2010-03-05", Emergency: true, Text: "kontroll K86, BT 145/92"},
		},
		Prescriptions: []sources.Prescription{
			{Person: 3, Date: "2011-01-01", ATC: "C07AB02", DurationDays: 30},
			{Person: 99, Date: "2011-01-01", ATC: "C07AB02"},
			{Person: 1, Date: "2011-13-01", ATC: "A10BA02"},
			{Person: 1, Date: "2010-03-05", ATC: "A10BA02", DurationDays: -3},
		},
		Episodes: []sources.HospitalEpisode{
			{Person: 1, Admitted: "2010-03-01", Discharged: "2010-03-08", Mode: sources.ModeInpatient, MainICD: "I21.9", SecondaryICD: []string{"E11.9", "I10"}},
			{Person: 2, Admitted: "2010-05-01", Mode: sources.ModeOutpatient},
			{Person: 3, Admitted: "2010-06-01", Discharged: "someday", Mode: sources.ModeDay, MainICD: "Z51.5"},
			{Person: 3, Admitted: "2010-07-01", Mode: "weird", MainICD: "I25"},
			{Person: 2, Admitted: "bad", Mode: sources.ModeDay},
			{Person: 99, Admitted: "2010-07-01", Mode: sources.ModeDay, SecondaryICD: []string{"J44"}},
			{Person: 2, Admitted: "2010-05-01", Discharged: "2010-04-01", Mode: sources.ModeDay, MainICD: "J44"},
		},
		Municipal: []sources.MunicipalService{
			{Person: 1, Service: sources.ServiceNursing, From: "2011-06-01"},
			{Person: 1, Service: sources.ServiceHomeCare, From: "2010-02-01", To: "2010-05-01"},
			{Person: 99, Service: sources.ServiceHomeCare, From: "2010-01-01", To: "2010-03-01"},
			{Person: 1, Service: sources.ServiceHomeCare, From: "2010-01-01", To: "2010-03-01"},
			{Person: 99, Service: sources.ServiceHomeCare, From: "2010-02-01"},
			{Person: 2, Service: sources.ServiceHomeCare, From: "2010-01-01", To: "bad"},
			{Person: 2, Service: sources.ServiceHomeCare, From: "bad", To: "2010-01-01"},
			{Person: 2, Service: sources.ServiceNursing, From: "1940-01-01", To: "1941-01-01"},
			{Person: 3, Service: sources.ServiceHomeCare, From: "2010-04-01", To: "2010-04-01"},
			{Person: 1, Service: sources.ServiceNursing, From: "2011-01-01", To: "2011-07-01"},
		},
		Specialist: []sources.SpecialistClaim{
			{Person: 3, Date: "2010-09-09", ICD: "H81", Specialty: "ent", Text: "a"},
			{Person: 3, Date: "2010-09-09", ICD: "H81", Specialty: "ent", Text: "b"},
			{Person: 4, Date: "2010-09-09", ICD: "H81"},
			{Person: 2, Date: "09/09/2010", ICD: "H81"},
			{Person: 2, Date: "2010-09-09", Specialty: "eye"},
		},
		Physio: []sources.PhysioClaim{
			{Person: 1, Date: "2012-01-02", ICPC: "L03", Sessions: 4},
			{Person: 99, Date: "2012-01-02", ICPC: "L03"},
			{Person: 2, Date: "2012-02-30", Sessions: 1},
			{Person: 3, Date: "1950-01-01", Sessions: 2},
		},
	}
}

// consumeOnce integrates b with one Consume on an empty consumer and
// returns the new histories and the batch report.
func consumeOnce(b *sources.Bundle, opts Options) ([]*model.History, *Report, error) {
	batch, err := NewConsumer(opts, nil, 1).Consume(b)
	if err != nil {
		return nil, nil, err
	}
	return batch.NewPatients, &batch.Report, nil
}

// TestBuildGoldenDigests pins Build's whole output — entries with their
// IDs, demographics, sorted flags and the report — to digests taken
// before the patient-major rewrite, at several worker counts.
func TestBuildGoldenDigests(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bundle *sources.Bundle
		want   string
	}{
		{"synth-5000", synth.Generate(synth.DefaultConfig(5000)), "d7003c01b0686a312f1c473f27125e312055283546896b2620aa07c1dd50c198"},
		{"hostile", hostileBundle(), "f777dc07acbc04359e15e883196cdbacea4c1a00bab87ad24e21bda296c528e1"},
	} {
		for _, workers := range []int{1, 2, 16} {
			opts := DefaultOptions()
			opts.Concurrency = workers
			if got := outcome(buildOnce(tc.bundle, opts)); got != tc.want {
				t.Errorf("%s at concurrency %d: %s, want %s", tc.name, workers, got, tc.want)
			}
		}
	}
}

// TestBuildMatchesConsume: Build and one Consume on an empty consumer
// produce the same histories, entry IDs and report.
func TestBuildMatchesConsume(t *testing.T) {
	opts := DefaultOptions()
	opts.OpenIntervalEnd = model.Date(2012, 6, 1)
	for _, b := range []*sources.Bundle{synth.Generate(synth.DefaultConfig(300)), hostileBundle()} {
		if got, want := outcome(consumeOnce(b, opts)), outcome(buildOnce(b, opts)); got != want {
			t.Errorf("Consume: %s, Build: %s", got, want)
		}
	}
}

// TestBuildAllocationBudget: Build allocates in proportion to what it
// outputs — the exact history slices — not to a staged copy of it.
func TestBuildAllocationBudget(t *testing.T) {
	if testing.Short() {
		// CI's race pass runs -short: the race detector drops sync.Pool
		// items at random, so regexp re-allocates its pooled matchers.
		t.Skip("allocation budget is measured without -short")
	}
	b := synth.Generate(synth.DefaultConfig(2000))
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	_, rep, err := Build(b, DefaultOptions())
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	perEntry, allocs := float64(m1.TotalAlloc-m0.TotalAlloc)/float64(rep.EntriesOut), float64(m1.Mallocs-m0.Mallocs)/float64(rep.EntriesOut)
	t.Logf("%d entries: %.0f B and %.2f allocations per entry", rep.EntriesOut, perEntry, allocs)
	if perEntry > 256 || allocs > 0.5 {
		t.Errorf("Build allocated %.0f B and %.2f allocations per entry; budget 256 B and 0.5", perEntry, allocs)
	}
}

// TestBuildSharesTexts: Build's output holds one string per distinct
// entry text — every entry with an equal text points at the same bytes —
// not one per record. Each worker keeps its own copies, so this runs one.
func TestBuildSharesTexts(t *testing.T) {
	opts := DefaultOptions()
	opts.Concurrency = 1
	hs, _, err := buildOnce(synth.Generate(synth.DefaultConfig(500)), opts)
	if err != nil {
		t.Fatal(err)
	}
	backing := map[string]*byte{}
	texts := 0
	for _, h := range hs {
		for i := range h.Entries {
			s := h.Entries[i].Text
			if s == "" {
				continue
			}
			texts++
			if p, ok := backing[s]; !ok {
				backing[s] = unsafe.StringData(s)
			} else if p != unsafe.StringData(s) {
				t.Fatalf("history %s entry %d: text %q is a second copy", h.Patient.ID, i, s)
			}
		}
	}
	if texts < 2*len(backing) {
		t.Fatalf("fixture has %d texts over %d distinct values; want repeats", texts, len(backing))
	}
}

// buildOnce is Build returning its collection's histories.
func buildOnce(b *sources.Bundle, opts Options) ([]*model.History, *Report, error) {
	col, rep, err := Build(b, opts)
	if err != nil {
		return nil, nil, err
	}
	return col.Histories(), rep, nil
}

// outcome is the digest of a run, or its error.
func outcome(hs []*model.History, rep *Report, err error) string {
	if err != nil {
		return err.Error()
	}
	return digest(hs, rep)
}

// TestDedupKeysDoNotCollide: claims that differ only in where a '|' falls
// are distinct claims, in Build and in Consume alike.
func TestDedupKeysDoNotCollide(t *testing.T) {
	for _, b := range []*sources.Bundle{
		{Persons: onePerson(), Specialist: []sources.SpecialistClaim{
			{Person: 1, Date: "2010-03-05", ICD: "H81|B", Specialty: "ent"},
			{Person: 1, Date: "2010-03-05", ICD: "H81", Specialty: "B|ent"},
		}},
		{Persons: onePerson(), GPClaims: []sources.GPClaim{
			{Person: 1, Date: "2010-03-05", ICPC: "R74|false", Text: "x"},
			{Person: 1, Date: "2010-03-05", ICPC: "R74", Text: "false|x"},
		}},
	} {
		for _, run := range []func(*sources.Bundle, Options) ([]*model.History, *Report, error){buildOnce, consumeOnce} {
			hs, rep, err := run(b, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			// Each claim stages a contact and a diagnosis.
			if rep.DuplicatesCollapsed != 0 || hs[0].Len() != 4 {
				t.Errorf("%d duplicates and %d entries, want 0 and 4", rep.DuplicatesCollapsed, hs[0].Len())
			}
		}
	}
}

// fuzzBundle decodes bytes into a bundle of at most 8 persons and 64
// records, its fields drawn from small alphabets with '|' and bad dates.
func fuzzBundle(data []byte) *sources.Bundle {
	next := func(n int) (v int) {
		if len(data) > 0 {
			v, data = int(data[0])%n, data[1:]
		}
		return v
	}
	dates := []string{"2010-01-05", "2011-06-30", "2010-01-05", "1949-12-31", "1950-01-01", "2012-03-01", "bad", ""}
	texts := []string{"", "T90", "T90|x", "x|", "BT 145/92 K86"}
	date := func() string { return dates[next(len(dates))] }
	text := func() string { return texts[next(len(texts))] }
	person := func() uint64 { return uint64(next(10)) }
	b := &sources.Bundle{}
	for n := next(9); len(b.Persons) < n; {
		id := uint64(len(b.Persons) + 1 - next(16)/15) // one in 16 repeats the previous ID
		b.Persons = append(b.Persons, sources.Person{ID: id, BirthDate: date(), Sex: text()})
	}
	for n := next(65); b.TotalRecords() < n && len(data) > 0; {
		switch next(6) {
		case 0:
			b.GPClaims = append(b.GPClaims, sources.GPClaim{Person: person(), Date: date(), Emergency: next(2) == 0,
				ICPC: text(), Text: text(), Systolic: next(3) * 70, Diastolic: 90, Amount: float64(next(3))})
		case 1:
			b.Prescriptions = append(b.Prescriptions, sources.Prescription{Person: person(), Date: date(), ATC: text(), DurationDays: next(40) - 5})
		case 2:
			b.Episodes = append(b.Episodes, sources.HospitalEpisode{Person: person(), Admitted: date(), Discharged: date(),
				Mode: []string{sources.ModeInpatient, sources.ModeOutpatient, sources.ModeDay, "x|"}[next(4)], MainICD: text(), SecondaryICD: texts[:next(3)]})
		case 3:
			b.Municipal = append(b.Municipal, sources.MunicipalService{Person: person(),
				Service: []string{sources.ServiceHomeCare, sources.ServiceNursing, "a|b"}[next(3)], From: date(), To: date()})
		case 4:
			b.Specialist = append(b.Specialist, sources.SpecialistClaim{Person: person(), Date: date(), ICD: text(), Specialty: text(), Text: text()})
		case 5:
			b.Physio = append(b.Physio, sources.PhysioClaim{Person: person(), Date: date(), ICPC: text(), Sessions: next(4)})
		}
	}
	return b
}

// FuzzBuildMatchesConsume: on any small bundle Build does not panic, does
// not depend on its worker count, and agrees with one Consume — entries,
// IDs, report, or the error.
func FuzzBuildMatchesConsume(f *testing.F) {
	// Persons 1 and 2 with one identical GP claim and one identical
	// specialist claim each: distinct claims, whatever the dedup state.
	f.Add([]byte("\x02\x00\x03\x00\x00\x03\x00\x04" + "\x00\x01\x00\x00\x01\x00\x00\x00" + "\x00\x02\x00\x00\x01\x00\x00\x00" +
		"\x04\x01\x00\x02\x00\x00" + "\x04\x02\x00\x02\x00\x00"))
	rng := rand.New(rand.NewSource(1))
	for range 8 {
		seed := make([]byte, 512)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b := fuzzBundle(data)
		opts := DefaultOptions()
		opts.Concurrency = 1
		want := outcome(buildOnce(b, opts))
		opts.Concurrency = 3
		if got := outcome(buildOnce(b, opts)); got != want {
			t.Fatalf("concurrency 3: %s, concurrency 1: %s", got, want)
		}
		if got := outcome(consumeOnce(b, opts)); got != want {
			t.Fatalf("Consume: %s, Build: %s", got, want)
		}
	})
}
