package store

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"pastas/internal/model"
)

// pageHistories is n patients of one or two entries each, births over
// sixty years and every sex byte 0–3: cheap to rebuild, and past one page
// once n > pageLen.
func pageHistories(n int) []*model.History {
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(10 + 3*i),
			Birth: model.Date(1940+i%60, 1, 1).AddDays(i % 365), Sex: model.Sex(i % 4)})
		for k := range 1 + i%2 {
			h.Add(pageEntry(uint64(2*i+k), model.Date(2010, 6, 1).AddDays(i%50), i+k))
		}
		hs[i] = h
	}
	return hs
}

// pageEntry is entry id on day start: a measurement valued v mod 97, or
// for every third v an ICPC-2 diagnosis.
func pageEntry(id uint64, start model.Time, v int) model.Entry {
	e := model.Entry{ID: id, Kind: model.Point, Start: start, End: start,
		Source: model.SourceGP, Type: model.TypeMeasurement, Value: float64(v % 97)}
	if v%3 == 0 {
		e.Type, e.Code = model.TypeDiagnosis, model.Code{System: "ICPC2", Value: fmt.Sprintf("T%02d", v%40)}
	}
	return e
}

func cloneAll(hs []*model.History) []*model.History {
	out := make([]*model.History, len(hs))
	for i, h := range hs {
		out[i] = h.Clone()
	}
	return out
}

// edgeUpdates is a batch updating the patients at ordinals 0, pageLen−1,
// pageLen and the last (those whose bit in pick is set) with one or two
// entries each: the first of them a copy of the history's first entry but
// for its value, so the merge meets an equal sort key. want is updated as
// Sort orders the old entries followed by the new.
func edgeUpdates(want []*model.History, pick byte, nextEntry *uint64) AppendBatch {
	var b AppendBatch
	for k, i := range []int{0, pageLen - 1, pageLen, len(want) - 1} {
		if pick>>k&1 == 0 {
			continue
		}
		*nextEntry++
		es := []model.Entry{pageEntry(*nextEntry, model.Date(2009, 3, 1).AddDays(k), int(*nextEntry))}
		if first := want[i].Entries; len(first) > 0 {
			tie := first[0]
			tie.Value++
			es = append(es, tie)
		}
		merged := want[i].Clone()
		for _, e := range es {
			merged.Add(e)
		}
		merged.Sort()
		want[i] = merged
		b.Updates = append(b.Updates, HistoryUpdate{ID: merged.Patient.ID, Entries: es})
	}
	return b
}

// newPatients is a batch of k new patients, appended to want.
func newPatients(want *[]*model.History, k int, nextEntry *uint64) AppendBatch {
	var b AppendBatch
	for range k {
		i := len(*want)
		h := model.NewHistory(model.Patient{ID: model.PatientID(1_000_000 + i),
			Birth: model.Date(1930+i%90, 6, 1), Sex: model.Sex(i % 4)})
		*nextEntry++
		h.Add(pageEntry(*nextEntry, model.Date(2012, 1, 1), i))
		*want = append(*want, h.Clone())
		b.NewHistories = append(b.NewHistories, h)
	}
	return b
}

// samePin holds a pinned view row by row to ref, a store built from
// scratch on the histories the view's generation should hold: patients,
// histories, ordinals, framed rows, and the three word kernels over views
// at aligned and unaligned offsets, on full and sparse candidate words.
func samePin(t *testing.T, what string, v *View, ref *Store) {
	t.Helper()
	w := ref.Pin()
	if v.Len() != w.Len() {
		t.Fatalf("%s: %d patients, a rebuild has %d", what, v.Len(), w.Len())
	}
	for i := range v.Len() {
		h, r := v.HistoryAt(i), w.HistoryAt(i)
		if v.PatientAt(i) != w.PatientAt(i) || h.Patient != r.Patient || !reflect.DeepEqual(h.Entries, r.Entries) {
			t.Fatalf("%s: row %d differs from a rebuild's", what, i)
		}
		if o, ok := v.Ordinal(v.PatientAt(i)); !ok || o != i {
			t.Fatalf("%s: patient at %d resolves to ordinal %d, %v", what, i, o, ok)
		}
	}
	if !reflect.DeepEqual(frameContent(v.Frame()), frameContent(w.Frame())) {
		t.Fatalf("%s: the frame differs from a rebuild's", what)
	}
	at, lo, span := int64(model.Date(2011, 1, 1)), int64(40*model.Year), uint64(25*model.Year)
	for _, off := range []int{0, 37, pageLen - 5} {
		a, b := v.Sub(off, v.Len()).Frame(), w.Sub(off, w.Len()).Frame()
		for base := 0; base < a.Len(); base += 64 {
			all := ^uint64(0) >> max(0, 64-(a.Len()-base))
			for _, cand := range []uint64{all, all & 0x8000_4000_0100_0011} {
				if a.ValueBand(base, cand, 1, 20, 60) != b.ValueBand(base, cand, 1, 20, 60) ||
					a.AgeBand(base, cand, at, lo, span) != b.AgeBand(base, cand, at, lo, span) ||
					a.SexIs(base, cand, model.SexFemale) != b.SexIs(base, cand, model.SexFemale) {
					t.Fatalf("%s: a kernel differs from a rebuild's at offset %d, word %d, candidates %#x", what, off, base/64, cand)
				}
			}
		}
	}
}

// FuzzAppendedPagesMatchRebuild: through a sequence of Appends (new
// patients, and updates at ordinals 0, pageLen−1, pageLen and the last,
// meeting equal sort keys), Compacts and Pins, every pin still held
// equals, after every step, a store.New of its own generation's histories
// row by row; so does the current revision at the end. A page written
// under a published revision, or an update merged out of Sort's order,
// fails it.
func FuzzAppendedPagesMatchRebuild(f *testing.F) {
	// op%5: 0 new patients (1 + op>>3%4 of them), 1 and 2 updates at the
	// ordinals op>>2's low four bits pick, 3 Compact, 4 Pin.
	f.Add([]byte{4, 0x3d, 4, 0x1a, 3, 0x78, 4, 0x3d, 0x15})
	f.Add([]byte{0x78, 4, 0x3d, 0x3d, 4, 0x28, 0x3d, 3, 4, 0x3d, 0x3d, 0x3d})
	f.Add([]byte{4, 0x3d, 0x3d, 0x3d, 0x3d, 0x3d, 0x3d, 4, 3, 0x78, 0x3d})
	f.Fuzz(func(t *testing.T, ops []byte) {
		want := pageHistories(pageLen + 40)
		s := New(model.MustCollection(cloneAll(want)...))
		s.Pin().Frame()
		type pin struct {
			v   *View
			ref *Store
		}
		var pins []pin
		nextEntry := uint64(1 << 40)
		for step, op := range ops[:min(len(ops), 12)] {
			var b AppendBatch
			switch op % 5 {
			case 0:
				b = newPatients(&want, 1+int(op>>3)%4, &nextEntry)
			case 1, 2:
				b = edgeUpdates(want, op>>2, &nextEntry)
			case 3:
				s.Compact()
			case 4:
				v := s.Pin()
				v.Frame()
				pins = append(pins, pin{v, New(model.MustCollection(cloneAll(want)...))})
				if len(pins) > 2 {
					pins = pins[1:]
				}
			}
			if _, err := s.Append(b); err != nil {
				t.Fatal(err)
			}
			for k, p := range pins {
				samePin(t, fmt.Sprintf("step %d, pin %d", step, k), p.v, p.ref)
			}
		}
		samePin(t, "the current revision", s.Pin(), New(model.MustCollection(cloneAll(want)...)))
	})
}

// TestFrozenStoreAppendLeavesOriginal: appending to a Freeze'd store —
// updates at both sides of a page boundary and at the last patient, and
// new patients — changes nothing the original's pins read (histories,
// patients, framed cells, births, sexes), and the reverse holds too.
func TestFrozenStoreAppendLeavesOriginal(t *testing.T) {
	type seen struct {
		ids     []model.PatientID
		hists   []*model.History
		entries [][]model.Entry
		rows    []framedRow
	}
	look := func(v *View) seen {
		var out seen
		for i := range v.Len() {
			out.ids = append(out.ids, v.PatientAt(i))
			out.hists = append(out.hists, v.HistoryAt(i))
			out.entries = append(out.entries, append([]model.Entry(nil), v.HistoryAt(i).Entries...))
		}
		out.rows = frameContent(v.Frame())
		return out
	}
	for _, appendToFrozen := range []bool{true, false} {
		want := pageHistories(pageLen + 40)
		s := New(model.MustCollection(cloneAll(want)...))
		s.Pin().Frame()
		frozen := s.Freeze()
		writer, other := s, frozen
		if appendToFrozen {
			writer, other = frozen, s
		}
		pinned := other.Pin()
		before := look(pinned)
		nextEntry := uint64(1 << 40)
		for round := range 3 {
			b := edgeUpdates(want, 0xf, &nextEntry)
			b.NewHistories = newPatients(&want, 3+round*pageLen/2, &nextEntry).NewHistories
			if _, err := writer.Append(b); err != nil {
				t.Fatal(err)
			}
			writer.Pin().Frame()
		}
		if !reflect.DeepEqual(look(pinned), before) || !reflect.DeepEqual(look(other.Pin()), before) || other.Generation() != 0 {
			t.Errorf("append to frozen %v: the other store's pins changed", appendToFrozen)
		}
		samePin(t, fmt.Sprintf("append to frozen %v: the writer", appendToFrozen), writer.Pin(), New(model.MustCollection(cloneAll(want)...)))
	}
}

// TestAppendAllocationBudget: at 168,000 synthetic patients with the
// frame built, a 400-patient batch — 200 updates below ordinal 1,000 and
// 200 new patients, a follow-on delivery's shape — allocates at most a
// quarter of what the append that copied its five per-patient arrays did
// (6.99 MB): the page table, the pages it writes, and the batch itself.
func TestAppendAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 168,000 patients")
	}
	const copyingAppend = 6_990_000
	s := synthStore(t, 168000)
	s.Pin().Frame()
	rng := rand.New(rand.NewSource(3))
	nextEntry := s.MaxEntryID()
	appendBytes := func(round int) uint64 {
		b := randomBatch(rng, s, round, 200, 200, &nextEntry)
		for k := range b.Updates {
			b.Updates[k].ID = s.PatientAt(rng.Intn(1000))
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	appendBytes(10) // the delta maps' first growth
	got := appendBytes(20)
	t.Logf("a 400-patient append at 168,000 patients allocated %d bytes", got)
	if got > copyingAppend/4 {
		t.Errorf("a 400-patient append allocated %d bytes, budget %d", got, copyingAppend/4)
	}
	if !FrameBuilt(s) {
		t.Error("the append dropped the built frame")
	}
}
