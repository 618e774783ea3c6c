package store

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/synth"
)

// framedRow is a frame row with its code ids resolved: two frames hold the
// same content when these are equal, whatever order their dictionaries
// grew in and whichever chunk a run lives in. Values are compared by
// their bits, so NaN equals itself and -0 differs from 0.
type framedRow struct {
	Birth  int64
	Sex    model.Sex
	Cells  []Cell
	Codes  []FrameCode // Codes[i] is Cells[i]'s dictionary slot
	Values []uint64    // Values[i] is the bits of Cells[i]'s value
}

func frameContent(f Frame) []framedRow {
	out := make([]framedRow, f.Len())
	for i := range out {
		r := f.Row(i)
		out[i] = framedRow{Birth: r.Birth, Sex: r.Sex, Cells: append([]Cell(nil), r.Cells...)}
		for k := range out[i].Cells {
			out[i].Codes = append(out[i].Codes, f.Codes[r.Cells[k].Code])
			out[i].Cells[k].Code = 0
		}
		for _, v := range f.Values(i) {
			out[i].Values = append(out[i].Values, math.Float64bits(v))
		}
	}
	return out
}

func synthStore(t testing.TB, patients int) *Store {
	t.Helper()
	col, _, err := integrate.Build(synth.Generate(synth.DefaultConfig(patients)), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return New(col)
}

// randomBatch updates `updates` existing patients (a GP contact with an
// emergency text, a diagnosis under a code the store may not know yet, an
// interval, a measurement whose value may be NaN or -0) and adds `fresh`
// new ones, born either side of the 2000 epoch (negative and positive
// times) with any sex byte 0–3.
func randomBatch(rng *rand.Rand, s *Store, round, updates, fresh int, nextEntry *uint64) AppendBatch {
	entries := func() []model.Entry {
		out := make([]model.Entry, 1+rng.Intn(4))
		for k := range out {
			*nextEntry++
			start := model.Date(2009, 1, 1).AddDays(rng.Intn(1500)) // lands mid-history: the merge re-sorts
			e := model.Entry{ID: *nextEntry, Kind: model.Point, Start: start, End: start,
				Source: model.SourceGP, Type: model.TypeContact, Text: []string{"", "legevakt", "time"}[rng.Intn(3)]}
			switch rng.Intn(4) {
			case 0:
				e.Type = model.TypeDiagnosis
				e.Code = model.Code{System: "ICPC2", Value: fmt.Sprintf("Z%02d", round+rng.Intn(3))}
			case 1:
				e.Kind, e.End, e.Type, e.Source = model.Interval, start.AddDays(rng.Intn(60)), model.TypeStay, model.SourceHospital
			case 2:
				e.Type, e.Value = model.TypeMeasurement, []float64{rng.Float64() * 200, math.NaN(), math.Copysign(0, -1), -3.5}[rng.Intn(4)]
			}
			out[k] = e
		}
		return out
	}
	var b AppendBatch
	for k := 0; k < updates; k++ {
		b.Updates = append(b.Updates, HistoryUpdate{ID: s.PatientAt(rng.Intn(s.Len())), Entries: entries()})
	}
	for k := 0; k < fresh; k++ {
		h := model.NewHistory(model.Patient{ID: model.PatientID(1_000_000 + round*100 + k),
			Birth: model.Date(1930+rng.Intn(140), 1, 1).AddDays(rng.Intn(365)), Sex: model.Sex(rng.Intn(4))})
		for _, e := range entries() {
			h.Add(e)
		}
		b.NewHistories = append(b.NewHistories, h)
	}
	return b
}

// TestFrameCarriedForwardEqualsRebuild: through seeded batches (updates,
// two to one patient among them, new patients, new codes) interleaved with
// Compact, the frame Append carries forward holds exactly what a build
// from scratch at that revision holds; it is carried, not rebuilt, until
// superseded runs outweigh the live ones, and then rebuilt once.
func TestFrameCarriedForwardEqualsRebuild(t *testing.T) {
	s := synthStore(t, 300)
	rng := rand.New(rand.NewSource(5))
	nextEntry := s.MaxEntryID()
	if FrameBuilt(s) {
		t.Fatal("a fresh store holds a frame before anything analysed")
	}
	s.Pin().Frame()
	carried, rebuilt := 0, 0
	for round := 1; round <= 40; round++ {
		b := randomBatch(rng, s, round, 60, 2, &nextEntry)
		b.Updates = append(b.Updates, HistoryUpdate{ID: b.Updates[0].ID, Entries: []model.Entry{deltaEntry(nextEntry+1, model.Code{System: "ICD10", Value: "K80"})}})
		nextEntry++
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		if round%3 == 0 {
			holder := s.loadRev().frame
			s.Compact()
			if s.loadRev().frame != holder {
				t.Fatal("Compact replaced the frame holder: same histories must share one frame")
			}
		}
		if FrameBuilt(s) {
			carried++
		} else {
			rebuilt++
		}
		got := s.Pin().Frame()
		if got.dead > got.cells/2 {
			t.Fatalf("round %d: %d of %d cells are superseded runs", round, got.dead, got.cells)
		}
		rebuild := BuildFrame(s.Pin().Histories())
		if !reflect.DeepEqual(frameContent(got), frameContent(*rebuild)) {
			t.Fatalf("round %d: the carried-forward frame differs from one built from scratch", round)
		}
		if !slices.Equal(got.births.slice(0, got.n), rebuild.births.slice(0, rebuild.n)) || !slices.Equal(got.sexes.slice(0, got.n), rebuild.sexes.slice(0, rebuild.n)) {
			t.Fatalf("round %d: the carried-forward births or sexes column differs from a rebuild's", round)
		}
	}
	t.Logf("carried %d times, rebuilt %d", carried, rebuilt)
	if carried < 30 || rebuilt == 0 {
		t.Errorf("carried %d times, rebuilt %d: want mostly carried, and the garbage bound exercised", carried, rebuilt)
	}
}

// TestPinnedFrameSurvivesAppend: a view pinned before an append keeps
// reading its own rows and dictionary while the next revision's are
// published.
func TestPinnedFrameSurvivesAppend(t *testing.T) {
	s := synthStore(t, 200)
	v := s.Pin()
	before := frameContent(v.Frame())
	codes := len(v.Frame().Codes)
	rng := rand.New(rand.NewSource(8))
	nextEntry := s.MaxEntryID()
	for round := 1; round <= 5; round++ {
		if _, err := s.Append(randomBatch(rng, s, round, 20, 3, &nextEntry)); err != nil {
			t.Fatal(err)
		}
	}
	if got := v.Frame(); len(got.Codes) != codes || !reflect.DeepEqual(frameContent(got), before) {
		t.Error("the pinned view's frame changed under later appends")
	}
	if now := s.Pin().Frame(); now.Len() != 215 || len(now.Codes) <= codes {
		t.Errorf("current frame: %d rows, %d codes (pinned: 200 rows, %d codes)", now.Len(), len(now.Codes), codes)
	}
	sub := s.Pin().Sub(50, 60).Frame()
	if sub.Len() != 10 || !reflect.DeepEqual(frameContent(sub), frameContent(s.Pin().Frame())[50:60]) {
		t.Error("a sliced view's frame is not the revision's rows [50, 60)")
	}
}

// TestCellLayout: a cell is 24 bytes — two times, the code id and four
// one-byte fields, with no padding. The value is not in it: it is a
// column of its own, read only by value bands, so a frame costs 32 bytes
// per entry and a scan or analyzer that reads no value never loads one. A
// field that breaks the packing costs every framed entry in every store.
// Likewise a run locator is 12 bytes: birth and sex are columns beside it.
func TestCellLayout(t *testing.T) {
	if got := unsafe.Sizeof(Cell{}); got != 24 {
		t.Errorf("store.Cell is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(frameRow{}); got != 12 {
		t.Errorf("store.frameRow is %d bytes, want 12", got)
	}
}

// TestFrameCarryAllocatesByBatch: at 20,000 patients a 10-patient batch
// carries the frame forward for the per-row arrays' copy (a 12-byte
// locator, an 8-byte birth and a sex byte per row) plus the ten
// histories' cells — never a slab copy (12 MB here).
func TestFrameCarryAllocatesByBatch(t *testing.T) {
	s := synthStore(t, 20000)
	rng := rand.New(rand.NewSource(2))
	nextEntry := s.MaxEntryID()
	appendBytes := func(round int) uint64 {
		b := randomBatch(rng, s, round, 7, 3, &nextEntry)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := s.Append(b); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	appendBytes(1) // the delta maps' first growth
	without := appendBytes(2)
	f := s.Pin().Frame()
	slab := len(f.chunks[0]) * int(unsafe.Sizeof(Cell{}))
	with := appendBytes(3)
	if !FrameBuilt(s) {
		t.Fatal("the append dropped a built frame")
	}
	rows := uint64(s.Len() * (12 + 8 + 1))
	t.Logf("append of 10 patients: %d bytes without a frame, %d carrying one (per-row arrays %d, slab %d)", without, with, rows, slab)
	if extra := with - without; with < without || extra > rows+128<<10 {
		t.Errorf("carrying the frame cost %d bytes; budget is the per-row arrays (%d) + 128 KB", extra, rows)
	}
	if next := s.Pin().Frame(); len(next.chunks) != 2 || &next.chunks[0][0] != &f.chunks[0][0] || len(next.chunks[1]) > 10*200 {
		t.Errorf("carried frame: %d chunks, newest %d cells: want the old slab shared and one small chunk", len(next.chunks), len(next.chunks[len(next.chunks)-1]))
	}
}
