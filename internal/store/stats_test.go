package store

import (
	"bytes"
	"encoding/gob"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/synth"
)

func TestStatsCardinalities(t *testing.T) {
	s := New(testCollection(t))
	st := s.Stats()
	if st.Patients != 5 {
		t.Errorf("Patients = %d", st.Patients)
	}
	if st.Entries != s.Collection().TotalEntries() {
		t.Errorf("Entries = %d, want %d", st.Entries, s.Collection().TotalEntries())
	}
	if st.DistinctCodes != 5 {
		t.Errorf("DistinctCodes = %d", st.DistinctCodes)
	}
	if got := st.CodeCard("ICPC2", "T90"); got != 2 {
		t.Errorf("CodeCard(ICPC2,T90) = %d", got)
	}
	if got := st.CodeCard("", "T90"); got != 2 {
		t.Errorf("CodeCard(any,T90) = %d", got)
	}
	if got := st.TypeCard(model.TypeMedication); got != 1 {
		t.Errorf("TypeCard(medication) = %d", got)
	}
	if got := st.SourceCard(model.SourceHospital); got != 1 {
		t.Errorf("SourceCard(hospital) = %d", got)
	}
	if got := st.TypeCard(model.TypeStay); got != 0 {
		t.Errorf("TypeCard(stay) = %d, want 0", got)
	}
	if avg := st.AvgEntries(); avg != float64(st.Entries)/5 {
		t.Errorf("AvgEntries = %f", avg)
	}
}

// TestCodePatternCardBoundsIndex: the pattern cardinality must upper-bound
// the true patient count (union bound) and be exact for single codes.
func TestCodePatternCardBoundsIndex(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(300))
	col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(col)
	st := s.Stats()
	for _, pattern := range []string{"T90", `K8.`, `T90|E11(\..*)?`, `.*`} {
		bs, err := s.WithCodeRegex("", pattern)
		if err != nil {
			t.Fatal(err)
		}
		card, err := st.CodePatternCard("", pattern)
		if err != nil {
			t.Fatal(err)
		}
		if card < bs.Count() {
			t.Errorf("CodePatternCard(%q) = %d below true count %d", pattern, card, bs.Count())
		}
		if card > st.Patients {
			t.Errorf("CodePatternCard(%q) = %d above population", pattern, card)
		}
	}
	if card, err := st.CodePatternCard("ICPC2", "T90"); err != nil || card != s.WithCode("ICPC2", "T90").Count() {
		t.Errorf("single-code card not exact: %d, %v", card, err)
	}
	if _, err := st.CodePatternCard("", "("); err == nil {
		t.Error("bad pattern accepted")
	}
}

// TestViewMatchesDedicatedShardStore: a View over [lo, hi) must answer
// every index lookup identically to a store built from the sub-collection
// — the property that lets the engine share postings instead of
// duplicating per-shard indexes.
func TestViewMatchesDedicatedShardStore(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(250))
	col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(col)
	n := s.Len()
	for _, rng := range [][2]int{{0, n}, {0, 63}, {64, 128}, {37, 101}, {n - 5, n}, {100, 100}} {
		lo, hi := rng[0], rng[1]
		v := s.Pin().Sub(lo, hi)
		dedicated := New(model.MustCollection(col.Histories()[lo:hi]...))
		if v.Len() != dedicated.Len() {
			t.Fatalf("view [%d,%d) len %d vs %d", lo, hi, v.Len(), dedicated.Len())
		}
		for ty := model.Type(1); ty <= 6; ty++ {
			if got, want := v.WithType(ty), dedicated.WithType(ty); !reflect.DeepEqual(got.Ones(), want.Ones()) {
				t.Errorf("view [%d,%d) WithType(%v) diverges", lo, hi, ty)
			}
		}
		for src := model.Source(1); src <= 5; src++ {
			if got, want := v.WithSource(src), dedicated.WithSource(src); !reflect.DeepEqual(got.Ones(), want.Ones()) {
				t.Errorf("view [%d,%d) WithSource(%v) diverges", lo, hi, src)
			}
		}
		for _, pattern := range []string{"T90", `K8.`, `T90|E11(\..*)?`, `.*9`} {
			got, err := v.WithCodeRegex("", pattern)
			if err != nil {
				t.Fatal(err)
			}
			want, err := dedicated.WithCodeRegex("", pattern)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got.Ones(), want.Ones()) {
				t.Errorf("view [%d,%d) WithCodeRegex(%q) diverges", lo, hi, pattern)
			}
		}
		if v.Entries() != dedicated.Collection().TotalEntries() {
			t.Errorf("view [%d,%d) entries %d vs %d", lo, hi, v.Entries(), dedicated.Collection().TotalEntries())
		}
	}
}

// TestSliceRangeProperties: SliceRange and OrSliceOf agree with the
// naive bit-by-bit definitions at arbitrary offsets (word-straddling
// included).
func TestSliceRangeProperties(t *testing.T) {
	f := func(xs []uint16, loSeed, spanSeed uint16) bool {
		const n = 400
		b := NewBitset(n)
		for _, x := range xs {
			b.Set(int(x) % n)
		}
		lo := int(loSeed) % n
		hi := lo + int(spanSeed)%(n-lo+1)
		got := b.SliceRange(lo, hi)
		if got.Len() != hi-lo {
			return false
		}
		count := 0
		for i := lo; i < hi; i++ {
			if b.Get(i) != got.Get(i-lo) {
				return false
			}
			if b.Get(i) {
				count++
			}
		}
		return got.Count() == count
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestSliceRangeInvertsOrAt: slicing back out of a merged bitset recovers
// the per-shard local bitsets (SliceRange is OrAt's inverse).
func TestSliceRangeInvertsOrAt(t *testing.T) {
	global := NewBitset(200)
	locals := []*Bitset{NewBitset(70), NewBitset(70), NewBitset(60)}
	offs := []int{0, 70, 140}
	for i, l := range locals {
		for j := i; j < l.Len(); j += 7 {
			l.Set(j)
		}
		global.OrAt(l, offs[i])
	}
	for i, l := range locals {
		back := global.SliceRange(offs[i], offs[i]+l.Len())
		if !back.Equal(l) {
			t.Errorf("shard %d not recovered: %v vs %v", i, back.Ones(), l.Ones())
		}
	}
}

// TestStatsWireRejectsHostileCounts: a count below zero or above the
// population, in any map, or a negative population, is an error.
func TestStatsWireRejectsHostileCounts(t *testing.T) {
	valid := func() statsWire {
		return statsWire{
			Patients: 3, Entries: 4,
			Codes: []model.Code{{System: "ICPC2", Value: "T90"}}, CodeCard: []int{3},
			TypeCard:   map[model.Type]int{1: 2},
			SourceCard: map[model.Source]int{1: 1},
			ValueCard:  map[uint16]int{0: 3},
			BirthCard:  map[int64]int{-50: 0},
		}
	}
	encode := func(w statsWire) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	var st Stats
	if err := st.UnmarshalBinary(encode(valid())); err != nil {
		t.Fatalf("valid stats refused: %v", err)
	}
	hostile := map[string]func(w *statsWire){
		"negative patients": func(w *statsWire) { w.Patients = -1 },
		"negative entries":  func(w *statsWire) { w.Entries = -1 },
		"code above":        func(w *statsWire) { w.CodeCard[0] = 4 },
		"code negative":     func(w *statsWire) { w.CodeCard[0] = -1 },
		"type above":        func(w *statsWire) { w.TypeCard[1] = 4 },
		"source negative":   func(w *statsWire) { w.SourceCard[1] = -2 },
		"value above":       func(w *statsWire) { w.ValueCard[0] = 1 << 40 },
		"value negative":    func(w *statsWire) { w.ValueCard[0] = math.MinInt },
		"birth above":       func(w *statsWire) { w.BirthCard[-50] = 4 },
		"birth negative":    func(w *statsWire) { w.BirthCard[7] = -1 },
	}
	for name, spoil := range hostile {
		w := valid()
		spoil(&w)
		if err := st.UnmarshalBinary(encode(w)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestStatsWireMapLengthAllocatesNothing: a map length declared on the
// wire sizes nothing before its elements arrive. The message below is a
// valid encoding whose value-bucket map claims 1<<20 entries and carries
// one; gob would size a nil map by the claim (tens of MB from 80 bytes).
func TestStatsWireMapLengthAllocatesNothing(t *testing.T) {
	var buf bytes.Buffer
	w := statsWire{Patients: 1, ValueCard: map[uint16]int{0x7777: 1}}
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatal(err)
	}
	// gob's unsigned integers: < 128 is one byte, else minus the byte
	// count and the big-endian bytes. A stream is [length][message]...
	encUint := func(x uint64) []byte {
		if x < 128 {
			return []byte{byte(x)}
		}
		var b []byte
		for ; x > 0; x >>= 8 {
			b = append([]byte{byte(x)}, b...)
		}
		return append([]byte{byte(-len(b))}, b...)
	}
	var msgs [][]byte
	for r := buf.Bytes(); len(r) > 0; {
		n, k := uint64(r[0]), 1
		if n >= 128 {
			k = 1 + int(-int8(r[0]))
			n = 0
			for _, c := range r[1:k] {
				n = n<<8 | uint64(c)
			}
		}
		msgs, r = append(msgs, r[k:k+int(n)]), r[k+int(n):]
	}
	last := msgs[len(msgs)-1]
	i := bytes.Index(last, []byte{1, 0xfe, 0x77, 0x77, 2}) // one entry: 0x7777 → 1
	if i < 0 {
		t.Fatal("value-bucket map not found in the encoding")
	}
	msgs[len(msgs)-1] = slices.Concat(last[:i], encUint(1<<20), last[i+1:])
	var hostile []byte
	for _, m := range msgs {
		hostile = append(append(hostile, encUint(uint64(len(m)))...), m...)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var st Stats
	err := st.UnmarshalBinary(hostile)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Error("a map shorter than its declared length decoded")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("decoding %d bytes allocated %d bytes", len(hostile), grew)
	}
}

// FuzzStatsBounds: over small populations drawn with edge values (±0,
// NaN, ±Inf, subnormals, 1e300) and split at a drawn ordinal,
// ValueBandCard bounds every drawn band's patients from above (and is 0
// on an empty or NaN band), the parts' merged statistics equal the whole
// store's, the wire round trip is lossless, and fuzzed wire bytes are an
// error or in-range counts, never a panic.
func FuzzStatsBounds(f *testing.F) {
	f.Add(int64(1), uint8(3), []byte{})
	f.Add(int64(42), uint8(0), []byte{0x07, 0x80, 0x13, 0xff})
	edge := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
		2.2250738585072014e-308, 1e300, -1e300, 1, 7.5, 8, 100, -2.25}
	births := []model.Time{math.MinInt64, math.MaxInt64, 0, -1, model.Year - 1, -model.Year}
	f.Fuzz(func(t *testing.T, seed int64, split uint8, junk []byte) {
		r := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			if r.Intn(3) == 0 {
				return r.NormFloat64() * 100
			}
			return edge[r.Intn(len(edge))]
		}
		n := r.Intn(12)
		hs := make([]*model.History, n)
		for i := range hs {
			birth := model.Time(r.Int63n(200*int64(model.Year))) - 150*model.Year
			if r.Intn(4) == 0 {
				birth = births[r.Intn(len(births))]
			}
			h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: birth})
			for j := r.Intn(5); j > 0; j-- {
				h.Add(model.Entry{ID: uint64(10*i + j), Kind: model.Point, Type: model.TypeMeasurement,
					Source: model.Source(1 + r.Intn(3)), Value: draw()})
			}
			hs[i] = h
		}
		s := New(model.MustCollection(hs...))
		whole := s.Stats()
		for k := 0; k < 16; k++ {
			lo, hi := draw(), draw()
			exact := s.Where(func(h *model.History) bool {
				return slices.ContainsFunc(h.Entries, func(e model.Entry) bool { return e.Value >= lo && e.Value <= hi })
			}).Count()
			if got := whole.ValueBandCard(lo, hi); got < exact || got > n || (!(lo <= hi) && got != 0) {
				t.Fatalf("ValueBandCard(%v, %v) = %d; %d of %d patients match", lo, hi, got, exact, n)
			}
		}
		cut := int(split) % (n + 1)
		if merged := MergeStats(s.Pin().Sub(0, cut).Stats(), s.Pin().Sub(cut, n).Stats()); !reflect.DeepEqual(merged, whole) {
			t.Fatalf("split at %d: merged %+v, whole %+v", cut, merged, whole)
		}
		data, err := whole.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var rt Stats
		if err := rt.UnmarshalBinary(data); err != nil || !reflect.DeepEqual(&rt, whole) {
			t.Fatalf("round trip: %v\n %+v\nwant %+v", err, rt, whole)
		}
		spoilt := bytes.Clone(data)
		for i := 0; i+1 < len(junk) && len(spoilt) > 0; i += 2 {
			spoilt[int(junk[i])*len(spoilt)/256] ^= junk[i+1]
		}
		for _, b := range [][]byte{junk, spoilt} {
			var got Stats
			if got.UnmarshalBinary(b) != nil {
				continue
			}
			if n := got.Patients; !allIn(got.codeCard, n) || !allIn(got.typeCard, n) || !allIn(got.sourceCard, n) ||
				!allIn(got.valueCard, n) || !allIn(got.birthCard, n) {
				t.Fatalf("decoded a count outside [0, %d]: %+v", n, got)
			}
		}
	})
}

func allIn[K comparable](m map[K]int, n int) bool {
	for _, c := range m {
		if c < 0 || c > n {
			return false
		}
	}
	return true
}
