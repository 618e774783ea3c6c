package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"pastas/internal/model"
)

// snapCollection builds a small deterministic collection exercising every
// entry field the codec must round-trip: intervals, codes, values, aux,
// text, open ends, and patients with zero entries.
func snapCollection(n int) *model.Collection {
	base := model.Date(2011, 3, 1)
	codes := []model.Code{
		{System: "ICPC2", Value: "T90"}, {System: "ICD10", Value: "E11.9"},
		{System: "ATC", Value: "A10BA02"}, {System: "", Value: "X99"},
	}
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{
			ID: model.PatientID(i + 1), Birth: model.Date(1940+i%60, 1, 1),
			Sex: model.Sex(i % 3), Municipality: 1900 + i%30,
		})
		for j := 0; j < i%7; j++ {
			e := model.Entry{
				ID: uint64(i*100 + j), Kind: model.Point,
				Start: base.AddDays(j * 11), End: base.AddDays(j * 11),
				Source: model.Source(1 + (i+j)%5), Type: model.TypeContact,
			}
			switch j % 4 {
			case 1:
				e.Type = model.TypeDiagnosis
				e.Code = codes[(i+j)%len(codes)]
			case 2:
				e.Type = model.TypeMeasurement
				e.Value = 120 + float64(j)
				e.Aux = 80 + float64(j)
				e.Text = "bp reading"
			case 3:
				e.Kind = model.Interval
				e.End = e.Start + 14*model.Day
				e.Type = model.TypeStay
				e.OpenEnd = j == 3
			}
			h.Add(e)
		}
		hs[i] = h
	}
	return model.MustCollection(hs...)
}

// historiesEqual compares two collections per history: same patient
// records in the same order, identical chronological entry slices.
func historiesEqual(t *testing.T, want, got *model.Collection) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("patients = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		w, g := want.At(i), got.At(i)
		if w.Patient != g.Patient {
			t.Fatalf("history %d: patient %+v, want %+v", i, g.Patient, w.Patient)
		}
		we, ge := w.SortedEntries(), g.SortedEntries()
		if len(we) != len(ge) {
			t.Fatalf("history %d: %d entries, want %d", i, len(ge), len(we))
		}
		for j := range we {
			if !reflect.DeepEqual(we[j], ge[j]) {
				t.Fatalf("history %d entry %d:\n got %+v\nwant %+v", i, j, ge[j], we[j])
			}
		}
	}
}

// historySlicesEqual is historiesEqual over plain slices (one opened
// shard against its range of the full collection).
func historySlicesEqual(t *testing.T, want, got []*model.History) {
	t.Helper()
	historiesEqual(t, model.MustCollection(want...), model.MustCollection(got...))
}

// Header offsets of the sections that follow the fixed part.
const (
	ingestExtOff  = snapshotHeaderFixed
	cohortExtOff  = ingestExtOff + snapshotIngestExt
	shardTableOff = cohortExtOff + snapshotCohortExt
)

func postingsTableOff(shards int) int { return shardTableOff + shards*snapshotShardRow }

// saveSnap saves the store and returns the bytes with the layout Save
// reported.
func saveSnap(t testing.TB, st *Store, shards int, cohorts []CohortRecord) ([]byte, *SnapshotInfo) {
	t.Helper()
	var buf bytes.Buffer
	info, err := Save(&buf, st, shards, cohorts)
	if err != nil {
		t.Fatalf("save (shards=%d): %v", shards, err)
	}
	return buf.Bytes(), info
}

// shardedSnapshot returns a valid snapshot of n pristine patients.
func shardedSnapshot(t testing.TB, n, shards int) []byte {
	t.Helper()
	snap, _ := saveSnap(t, New(snapCollection(n)), shards, nil)
	return snap
}

// writeTemp puts snapshot bytes in a file for OpenShards.
func writeTemp(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wb.snap")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// ingestedStore builds a store of n patients that has lived: the first
// base patients are batch-built, the rest arrive in two appends (each
// also updating an existing patient) with a compaction between them, so
// every ingest counter in the header is non-zero and a delta is still
// pending at save time.
func ingestedStore(t testing.TB, base, n int) *Store {
	t.Helper()
	st := New(snapCollection(base))
	fresh := snapCollection(n).Histories()[base:]
	update := func(id model.PatientID, entryID uint64, value string) HistoryUpdate {
		day := model.Date(2011, 6, 1)
		return HistoryUpdate{ID: id, Entries: []model.Entry{{
			ID: entryID, Kind: model.Point, Start: day, End: day,
			Source: model.SourceGP, Type: model.TypeDiagnosis,
			Code: model.Code{System: "ICPC2", Value: value},
		}}}
	}
	last := len(fresh) - 1
	if _, err := st.Append(AppendBatch{NewHistories: fresh[:last], Updates: []HistoryUpdate{update(2, 9001, "K86")}}); err != nil {
		t.Fatal(err)
	}
	st.Compact()
	if _, err := st.Append(AppendBatch{NewHistories: fresh[last:], Updates: []HistoryUpdate{update(5, 9002, "T90")}}); err != nil {
		t.Fatal(err)
	}
	return st
}

// cohortsEqual asserts the loaded records are the saved ones: names and
// opaque expressions byte for byte, bitsets bit for bit.
func cohortsEqual(t *testing.T, want, got []CohortRecord) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("loaded %d cohorts, want %d", len(got), len(want))
	}
	for i, c := range want {
		g := got[i]
		if g.Name != c.Name || !bytes.Equal(g.Expr, c.Expr) {
			t.Errorf("cohort %d: (%q, %x), want (%q, %x)", i, g.Name, g.Expr, c.Name, c.Expr)
		}
		if !g.Bits.Equal(c.Bits) {
			t.Errorf("cohort %q bits diverge: %d vs %d", c.Name, g.Bits.Count(), c.Bits.Count())
		}
	}
}

// TestSaveLoadRoundTrip is the one round-trip table: every kind of store
// the format has a header field for × shard counts that divide the
// population, do not, and exceed it. Load must return what was saved;
// OpenShards must return the same histories shard by shard with every
// shard's postings decoded and equivalent to a rebuilt index; Inspect,
// Load and OpenShards must all report exactly the layout Save returned.
func TestSaveLoadRoundTrip(t *testing.T) {
	const n = 103 // not a multiple of any shard count
	stores := map[string]func() (*Store, []CohortRecord){
		"pristine": func() (*Store, []CohortRecord) { return New(snapCollection(n)), nil },
		"ingested": func() (*Store, []CohortRecord) { return ingestedStore(t, 90, n), nil },
		"cohorts":  func() (*Store, []CohortRecord) { return ingestedStore(t, 90, n), cohortRecords(n) },
	}
	for name, build := range stores {
		for _, shards := range []int{1, 4, 16, 1000} {
			t.Run(fmt.Sprintf("%s/shards=%d", name, shards), func(t *testing.T) {
				st, cohorts := build()
				snap, info := saveSnap(t, st, shards, cohorts)
				// Same chunking as the engine: ceil(n/shards) patients per shard,
				// which can yield fewer shards than requested (and never more).
				chunk := (n + min(shards, n) - 1) / min(shards, n)
				if want := (n + chunk - 1) / chunk; info.Shards != want {
					t.Errorf("wrote %d shards, want %d", info.Shards, want)
				}
				if info.Version != snapshotVersion || info.Format() != "sharded-v5" {
					t.Errorf("version %d, format %q", info.Version, info.Format())
				}
				if info.Bytes != int64(len(snap)) {
					t.Errorf("info.Bytes = %d, file is %d", info.Bytes, len(snap))
				}
				if info.Patients != n || info.Generation != st.Generation() || info.Cohorts != len(cohorts) {
					t.Errorf("info = %+v", info)
				}
				if ing := st.Ingest(); info.DeltaEntries != ing.DeltaEntries || info.DeltaPatients != ing.DeltaPatients || info.Compactions != ing.Compactions {
					t.Errorf("ingest provenance %+v, store says %+v", info, ing)
				}

				col, gotCohorts, loadInfo, err := Load(bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("load: %v", err)
				}
				historiesEqual(t, st.Collection(), col)
				cohortsEqual(t, cohorts, gotCohorts)
				if !reflect.DeepEqual(loadInfo, info) {
					t.Errorf("Load info %+v\nSave info %+v", loadInfo, info)
				}

				inspected, err := Inspect(bytes.NewReader(snap))
				if err != nil {
					t.Fatalf("inspect: %v", err)
				}
				if !reflect.DeepEqual(inspected, info) {
					t.Errorf("Inspect info %+v\nSave info    %+v", inspected, info)
				}

				opened, openInfo, err := OpenShards(writeTemp(t, snap))
				if err != nil {
					t.Fatalf("open shards: %v", err)
				}
				if !reflect.DeepEqual(openInfo, info) {
					t.Errorf("OpenShards info %+v\nSave info       %+v", openInfo, info)
				}
				if len(opened) != info.Shards {
					t.Fatalf("opened %d shards, header says %d", len(opened), info.Shards)
				}
				off := 0
				for i, sh := range opened {
					if sh.Shard != i || sh.Offset != off {
						t.Fatalf("shard %d: id %d offset %d, want offset %d", i, sh.Shard, sh.Offset, off)
					}
					historySlicesEqual(t, col.Histories()[off:off+sh.Col.Len()], sh.Col.Histories())
					if sh.post == nil {
						t.Fatalf("shard %d: no postings", i)
					}
					fromPostings, err := sh.Store()
					if err != nil {
						t.Fatalf("shard %d: %v", i, err)
					}
					storesEquivalent(t, New(sh.Col), fromPostings)
					off += sh.Col.Len()
				}
				if off != n {
					t.Fatalf("shards cover %d patients, want %d", off, n)
				}
			})
		}
	}
}

// TestGoldenV5: testdata/v5.snap was written by the last build that
// still chose between header versions (its SaveShardedStoreCohorts, over
// ingestedStore(16, 20) and the first two cohortRecords, 2 shards). It
// must load, and the one Save must write the same bytes for the same
// store — the proof that making v5 the only layout did not move it.
func TestGoldenV5(t *testing.T) {
	const path = "testdata/v5.snap"
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	st, cohorts := ingestedStore(t, 16, 20), cohortRecords(20)[:2]
	snap, info := saveSnap(t, st, 2, cohorts)
	if !bytes.Equal(snap, golden) {
		t.Fatalf("Save wrote %d bytes that differ from the %d golden ones: the layout moved", len(snap), len(golden))
	}
	col, gotCohorts, loadInfo, err := Load(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	historiesEqual(t, st.Collection(), col)
	cohortsEqual(t, cohorts, gotCohorts)
	if !reflect.DeepEqual(loadInfo, info) {
		t.Errorf("golden info %+v\nSave info   %+v", loadInfo, info)
	}
	if info.Shards != 2 || info.Patients != 20 || info.Generation != 2 || info.Compactions != 1 ||
		info.DeltaEntries == 0 || info.DeltaPatients != 1 || info.Cohorts != 2 {
		t.Errorf("golden fixture lost a property: %+v", info)
	}
	opened, _, err := OpenShards(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(opened) != 2 || opened[0].post == nil || opened[1].post == nil {
		t.Errorf("golden opened as %d shards", len(opened))
	}
}

// loaders are the three ways into a snapshot; every malformed header
// must be refused by all of them.
var loaders = map[string]func(t *testing.T, data []byte, payload io.Reader) error{
	"Load": func(t *testing.T, data []byte, payload io.Reader) error {
		col, _, _, err := Load(io.MultiReader(bytes.NewReader(data), payload))
		if err == nil && col == nil {
			t.Error("nil collection without error")
		}
		return err
	},
	"Inspect": func(t *testing.T, data []byte, payload io.Reader) error {
		_, err := Inspect(io.MultiReader(bytes.NewReader(data), payload))
		return err
	},
	"OpenShards": func(t *testing.T, data []byte, payload io.Reader) error {
		rest, err := io.ReadAll(payload)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = OpenShards(writeTemp(t, append(append([]byte{}, data...), rest...)))
		return err
	},
}

// countingReader counts the bytes a loader pulls out of the payload.
type countingReader struct {
	r io.Reader
	n int
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += n
	return n, err
}

// TestHeaderRefusals is the one table for headers the reader must refuse:
// every version but the current one (named in the error, with the one
// supported, before a payload byte is read), streams that are not
// snapshots at all, and a cut at — and one byte short of — every section
// boundary of the header. Errors, never panics, never a partial load.
func TestHeaderRefusals(t *testing.T) {
	const shards = 4
	snap, info := saveSnap(t, ingestedStore(t, 30, 40), shards, cohortRecords(40))
	headerLen := int(info.headerLen())
	header, payload := snap[:headerLen], snap[headerLen:]

	for _, v := range []uint32{0, 1, 2, 3, 4, 6, math.MaxUint32} {
		bad := append([]byte{}, header...)
		binary.BigEndian.PutUint32(bad[8:], v)
		for name, load := range loaders {
			rest := &countingReader{r: bytes.NewReader(payload)}
			err := load(t, bad, rest)
			if err == nil {
				t.Fatalf("%s: version %d accepted", name, v)
			}
			for _, want := range []string{fmt.Sprintf("unsupported version %d ", v), fmt.Sprintf("version %d is read", snapshotVersion)} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: version %d: err = %v, want mention of %q", name, v, err, want)
				}
			}
			if name != "OpenShards" && rest.n != 0 {
				t.Errorf("%s: version %d: %d payload bytes consumed before the refusal", name, v, rest.n)
			}
		}
	}

	// What the deleted v1 writer produced: a gob stream of the collection.
	var gobStream bytes.Buffer
	if err := gob.NewEncoder(&gobStream).Encode(struct {
		Version   int
		Histories []struct{ Patient model.Patient }
	}{Version: 1, Histories: make([]struct{ Patient model.Patient }, 3)}); err != nil {
		t.Fatal(err)
	}
	wrongMagic := append([]byte{}, snap...)
	wrongMagic[0] ^= 0xFF
	for what, data := range map[string][]byte{
		"v1 gob stream": gobStream.Bytes(),
		"wrong magic":   wrongMagic,
		"text":          []byte("not a snapshot at all, but longer than the fixed header"),
		"empty":         nil,
	} {
		for name, load := range loaders {
			if err := load(t, data, bytes.NewReader(nil)); err == nil {
				t.Errorf("%s: %s accepted", name, what)
			}
		}
	}

	boundaries := map[string]int{
		"fixed header":   snapshotHeaderFixed,
		"ingest ext":     cohortExtOff,
		"cohort ext":     shardTableOff,
		"shard table":    postingsTableOff(shards),
		"postings table": headerLen,
	}
	for section, end := range boundaries {
		cuts := []int{end - 1}
		if end < headerLen {
			cuts = append(cuts, end) // the next section is missing entirely
		}
		for _, cut := range cuts {
			for name, load := range loaders {
				if err := load(t, snap[:cut], bytes.NewReader(nil)); err == nil {
					t.Errorf("%s: cut at %d (end of %s is %d) accepted", name, cut, section, end)
				}
			}
		}
	}
}

func TestShardedEmptyCollection(t *testing.T) {
	snap, info := saveSnap(t, New(model.MustCollection()), 8, nil)
	if info.Shards != 1 || info.Patients != 0 {
		t.Errorf("empty save info = %+v", info)
	}
	got, _, _, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Errorf("empty round trip produced %d patients", got.Len())
	}
}

func TestSaveIsReadOnly(t *testing.T) {
	// Build a history whose entries are deliberately out of order and
	// assert saving does not reorder the live slice. New sorts what it
	// adopts, so no constructor publishes such a history: plant it.
	h := model.NewHistory(model.Patient{ID: 7, Birth: model.Date(1950, 1, 1)})
	for j := 5; j >= 1; j-- {
		h.Add(model.Entry{ID: uint64(j), Kind: model.Point,
			Start: model.Date(2011, 1, j), End: model.Date(2011, 1, j),
			Source: model.SourceGP, Type: model.TypeContact})
	}
	st := New(model.MustCollection(h.Clone()))
	st.loadRev().hists.set(0, h)
	wantIDs := func() []uint64 {
		ids := make([]uint64, len(h.Entries))
		for i := range h.Entries {
			ids[i] = h.Entries[i].ID
		}
		return ids
	}
	before := wantIDs()
	if h.Sorted() {
		t.Fatal("fixture must start unsorted")
	}

	snap, _ := saveSnap(t, st, 2, nil)

	if h.Sorted() {
		t.Error("save flipped the history's sorted flag")
	}
	if got := wantIDs(); !reflect.DeepEqual(got, before) {
		t.Errorf("save reordered live entries: %v, want %v", got, before)
	}
	// The snapshot must still load with chronologically sorted entries.
	got, _, _, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	gh := got.At(0)
	if !gh.Sorted() {
		t.Error("loaded history not sorted")
	}
	for i := 1; i < len(gh.Entries); i++ {
		if gh.Entries[i].Start < gh.Entries[i-1].Start {
			t.Error("loaded entries out of order")
		}
	}
}

func TestLoadZeroShardCount(t *testing.T) {
	bad := shardedSnapshot(t, 20, 4)
	binary.BigEndian.PutUint32(bad[12:], 0)
	if _, _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("shard count 0 accepted")
	}
	binary.BigEndian.PutUint32(bad[12:], maxSnapshotShards+1)
	if _, _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("absurd shard count accepted")
	}
}

// TestLoadTruncatedPayload: a cut at the first payload byte, inside the
// history segments, inside the postings segments, or one byte short of
// the end is refused. Through a sized reader the header's tables are
// checked against the size, so the error names the truncation before a
// shard is decoded; an unsized stream still fails on the short read.
func TestLoadTruncatedPayload(t *testing.T) {
	snap := shardedSnapshot(t, 40, 4)
	headerLen := int((&SnapshotInfo{Shards: 4}).headerLen())
	for _, cut := range []int{headerLen, headerLen + 10, len(snap) / 2, len(snap) - 10, len(snap) - 1} {
		_, _, _, err := Load(bytes.NewReader(snap[:cut]))
		if err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Errorf("sized: truncation at %d of %d: err = %v, want the truncation named", cut, len(snap), err)
		}
		if _, _, _, err := Load(io.MultiReader(bytes.NewReader(snap[:cut]))); err == nil {
			t.Errorf("unsized: truncation at %d of %d accepted", cut, len(snap))
		}
	}
}

// TestLoadFromPipe: a pipe is an *os.File whose Stat size is not its
// length, so Load must read it as an unsized stream, not refuse it as
// truncated.
func TestLoadFromPipe(t *testing.T) {
	snap := shardedSnapshot(t, 40, 4)
	pr, pw, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	defer pr.Close()
	go func() {
		pw.Write(snap) // a short write surfaces as Load's read error
		pw.Close()
	}()
	col, _, _, err := Load(pr)
	if err != nil {
		t.Fatalf("load from pipe: %v", err)
	}
	historiesEqual(t, New(snapCollection(40)).Collection(), col)
}

func TestLoadChecksumMismatch(t *testing.T) {
	snap, info := saveSnap(t, New(snapCollection(40)), 4, nil)
	bad := append([]byte{}, snap...)
	last := info.ShardDetail[3]
	bad[info.headerLen()+last.Offset+last.Bytes-3] ^= 0x40 // flip a payload bit in the last history segment
	_, _, _, err := Load(bytes.NewReader(bad))
	if err == nil {
		t.Fatal("corrupt segment accepted")
	}
	if !strings.Contains(err.Error(), "shard 3: checksum") {
		t.Errorf("err = %v, want shard 3's checksum mismatch", err)
	}
}

func TestLoadHeaderPayloadDisagreement(t *testing.T) {
	// Forge a header that claims more patients than the (checksummed)
	// segment holds: recompute nothing, just bump both patient fields so
	// the table stays self-consistent; decode must catch the lie.
	bad := shardedSnapshot(t, 10, 1)
	binary.BigEndian.PutUint64(bad[16:], 11)               // header total
	binary.BigEndian.PutUint64(bad[shardTableOff+16:], 11) // shard row
	if _, _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("header/payload patient disagreement accepted")
	}
}

func TestLoadHostilePatientCount(t *testing.T) {
	// A self-consistent header (total and shard row agree, checksums
	// valid) claiming an absurd patient count must produce a clean error
	// — allocation has to be driven by what the segments decode to, not
	// by the header.
	bad := shardedSnapshot(t, 10, 1)
	huge := uint64(1) << 40
	binary.BigEndian.PutUint64(bad[16:], huge)               // header total
	binary.BigEndian.PutUint64(bad[shardTableOff+16:], huge) // shard row
	if _, _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("hostile patient count accepted")
	}
}

// TestLoadHostileSegmentSizes: a ~150-byte file (header plus one empty
// shard) whose header claims a terabyte-scale segment. On a stream no
// size check can run first, so each claim must surface as a read error
// after allocating no more than the bounded read-ahead — for the history,
// postings and cohort segments alike.
func TestLoadHostileSegmentSizes(t *testing.T) {
	snap, _ := saveSnap(t, New(model.MustCollection()), 1, nil)
	const huge = uint64(1) << 40
	claims := map[string]func(hdr []byte){
		"shard":    func(hdr []byte) { binary.BigEndian.PutUint64(hdr[shardTableOff+8:], huge) },
		"postings": func(hdr []byte) { binary.BigEndian.PutUint64(hdr[postingsTableOff(1):], huge) },
		"cohort segment": func(hdr []byte) {
			binary.BigEndian.PutUint32(hdr[cohortExtOff:], 1)
			binary.BigEndian.PutUint64(hdr[cohortExtOff+4:], huge)
		},
	}
	for what, claim := range claims {
		bad := append([]byte{}, snap...)
		claim(bad)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		// MultiReader hides the in-memory reader's Size, as a pipe would.
		_, _, _, err := Load(io.MultiReader(bytes.NewReader(bad)))
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), what) || !errors.Is(err, io.EOF) {
			t.Errorf("%s claiming %d bytes: err = %v, want a read error naming it", what, huge, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 32<<20 {
			t.Errorf("%s claiming %d bytes: load allocated %d bytes", what, huge, grew)
		}
		// Where the size is known, the lie is caught at header time.
		if _, err := Inspect(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s claiming %d bytes: sized Inspect accepted it", what, huge)
		}
	}
}

func TestShardBoundsClampedToLoadableRange(t *testing.T) {
	// Save must never write a shard count Load refuses (readHeader caps
	// at maxSnapshotShards).
	bounds := shardBounds(10*maxSnapshotShards, 10*maxSnapshotShards)
	if len(bounds) > maxSnapshotShards {
		t.Errorf("shardBounds produced %d shards, loader cap is %d", len(bounds), maxSnapshotShards)
	}
	if last := bounds[len(bounds)-1][1]; last != 10*maxSnapshotShards {
		t.Errorf("clamped bounds cover %d of %d patients", last, 10*maxSnapshotShards)
	}
}

func TestNegativeZeroValueRoundTrip(t *testing.T) {
	// -0.0 compares equal to 0 but has different bits; the codec must
	// preserve it exactly (presence flags are decided at the bit level).
	h := model.NewHistory(model.Patient{ID: 1, Birth: model.Date(1950, 1, 1)})
	h.Add(model.Entry{ID: 1, Kind: model.Point,
		Start: model.Date(2011, 1, 1), End: model.Date(2011, 1, 1),
		Source: model.SourceGP, Type: model.TypeMeasurement,
		Value: math.Copysign(0, -1), Aux: math.Copysign(0, -1)})
	snap, _ := saveSnap(t, New(model.MustCollection(h)), 1, nil)
	got, _, _, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	e := got.At(0).Entries[0]
	if math.Signbit(e.Value) != true || math.Signbit(e.Aux) != true {
		t.Errorf("negative zero canonicalized: Value %v, Aux %v",
			math.Float64bits(e.Value), math.Float64bits(e.Aux))
	}
}

// TestDecodedTextsShared: a decoded segment holds one string per distinct
// text — every entry with an equal text points at the same bytes — and
// the texts still round-trip.
func TestDecodedTextsShared(t *testing.T) {
	col := snapCollection(60)
	hs, _, err := decodeSegment(encodeSegment(col.Histories()), col.Len())
	if err != nil {
		t.Fatal(err)
	}
	historiesEqual(t, col, model.MustCollection(hs...))
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

func TestInspectIsHeaderOnly(t *testing.T) {
	snap := shardedSnapshot(t, 50, 4)
	info, err := Inspect(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	// Header-only: inspecting just the header bytes (payload cut off)
	// still succeeds on a plain stream, whose total size cannot be known
	// — no payload byte is ever read.
	headerLen := int(info.headerLen())
	if _, err := Inspect(io.MultiReader(bytes.NewReader(snap[:headerLen]))); err != nil {
		t.Errorf("header-only inspect failed: %v", err)
	}
	// But a sized reader (file, in-memory buffer) exposes the truncation:
	// the tables promise more bytes than exist, and Inspect reports it at
	// header time.
	if _, err := Inspect(bytes.NewReader(snap[:headerLen])); err == nil {
		t.Error("inspect of sized truncated snapshot succeeded, want truncation error")
	}
	if _, err := Inspect(bytes.NewReader(snap[:len(snap)-1])); err == nil {
		t.Error("inspect of sized snapshot missing last byte succeeded, want truncation error")
	}
}

// FuzzLoadSharded throws arbitrary bytes at the loader: any input may
// error but must never panic or balloon memory, even with self-consistent
// checksums over a hostile payload. A bytes.Reader is sized, so this is
// the path that checks the header against the input's size and reads each
// segment into an exactly sized buffer, then decodes it sharing texts.
func FuzzLoadSharded(f *testing.F) {
	f.Add([]byte(snapshotMagic))
	f.Add([]byte("not a snapshot at all"))
	snap := shardedSnapshot(f, 9, 3)
	f.Add(snap)
	f.Add(snap[:len(snap)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		col, _, _, err := Load(bytes.NewReader(data))
		if err == nil && col == nil {
			t.Error("nil collection without error")
		}
	})
}
