package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/synth"
)

func testCollection(t testing.TB) *model.Collection {
	t.Helper()
	base := model.Date(2010, time.June, 1)
	mk := func(id model.PatientID, codes ...model.Code) *model.History {
		h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1950, time.January, 1)})
		for i, c := range codes {
			sys := model.SourceGP
			typ := model.TypeDiagnosis
			if c.System == "ATC" {
				typ = model.TypeMedication
			}
			if c.System == "ICD10" {
				sys = model.SourceHospital
			}
			kind := model.Point
			end := base.AddDays(i)
			if typ == model.TypeMedication {
				kind = model.Interval
				end = base.AddDays(i + 30)
			}
			h.Add(model.Entry{
				ID: uint64(id)*100 + uint64(i), Kind: kind,
				Start: base.AddDays(i), End: end,
				Source: sys, Type: typ, Code: c,
			})
		}
		return h
	}
	icpc := func(v string) model.Code { return model.Code{System: "ICPC2", Value: v} }
	icd := func(v string) model.Code { return model.Code{System: "ICD10", Value: v} }
	atc := func(v string) model.Code { return model.Code{System: "ATC", Value: v} }
	return model.MustCollection(
		mk(1, icpc("T90"), icpc("K86"), atc("A10BA02")),
		mk(2, icpc("K86")),
		mk(3, icd("E11.9"), icpc("T90")),
		mk(4, icpc("R74")),
		mk(5), // empty history
	)
}

func TestIndexLookups(t *testing.T) {
	s := New(testCollection(t))

	bs := s.WithCode("ICPC2", "T90")
	if got := s.IDsOf(bs); !reflect.DeepEqual(got, []model.PatientID{1, 3}) {
		t.Errorf("WithCode(T90) = %v", got)
	}

	// Any-system lookup.
	bs = s.WithCode("", "T90")
	if bs.Count() != 2 {
		t.Errorf("any-system T90 count = %d", bs.Count())
	}

	bs = s.WithCode("ICPC2", "NOPE")
	if bs.Count() != 0 {
		t.Error("unknown code must be empty")
	}

	if got := s.WithType(model.TypeMedication).Count(); got != 1 {
		t.Errorf("WithType(medication) = %d", got)
	}
	if got := s.WithSource(model.SourceHospital).Count(); got != 1 {
		t.Errorf("WithSource(hospital) = %d", got)
	}
}

func TestWithCodeRegexMatchesScan(t *testing.T) {
	s := New(testCollection(t))
	for _, pattern := range []string{`T9.`, `K8.|T90`, `.*`, `E11.*`} {
		idx, err := s.WithCodeRegex("", pattern)
		if err != nil {
			t.Fatal(err)
		}
		scan, err := s.WithCodeRegexScan("", pattern)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(s.IDsOf(idx), s.IDsOf(scan)) {
			t.Errorf("index and scan disagree for %q: %v vs %v",
				pattern, s.IDsOf(idx), s.IDsOf(scan))
		}
	}
}

func TestWithCodeRegexSystemFilter(t *testing.T) {
	s := New(testCollection(t))
	icpcOnly, err := s.WithCodeRegex("ICPC2", `T90`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.IDsOf(icpcOnly); !reflect.DeepEqual(got, []model.PatientID{1, 3}) {
		t.Errorf("ICPC2 T90 = %v", got)
	}
	icdOnly, err := s.WithCodeRegex("ICD10", `E11.*`)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.IDsOf(icdOnly); !reflect.DeepEqual(got, []model.PatientID{3}) {
		t.Errorf("ICD10 E11.* = %v", got)
	}
}

func TestWithCodeRegexBadPattern(t *testing.T) {
	s := New(testCollection(t))
	if _, err := s.WithCodeRegex("", `(`); err == nil {
		t.Error("bad pattern accepted")
	}
	if _, err := s.WithCodeRegexScan("", `(`); err == nil {
		t.Error("bad pattern accepted by scan")
	}
}

func TestWhereAndSubset(t *testing.T) {
	s := New(testCollection(t))
	busy := s.Where(func(h *model.History) bool { return h.Len() >= 2 })
	sub := s.Subset(busy)
	if sub.Len() != 2 {
		t.Errorf("subset len = %d", sub.Len())
	}
	if sub.Get(1) == nil || sub.Get(3) == nil {
		t.Error("wrong subset membership")
	}
}

func TestSetAlgebra(t *testing.T) {
	s := New(testCollection(t))
	t90 := s.WithCode("ICPC2", "T90")
	k86 := s.WithCode("ICPC2", "K86")

	both := t90.Clone().And(k86)
	if got := s.IDsOf(both); !reflect.DeepEqual(got, []model.PatientID{1}) {
		t.Errorf("T90∩K86 = %v", got)
	}
	either := t90.Clone().Or(k86)
	if either.Count() != 3 {
		t.Errorf("T90∪K86 count = %d", either.Count())
	}
	only := k86.Clone().AndNot(t90)
	if got := s.IDsOf(only); !reflect.DeepEqual(got, []model.PatientID{2}) {
		t.Errorf("K86∖T90 = %v", got)
	}
	none := s.All().Not()
	if none.Count() != 0 {
		t.Error("complement of all must be empty")
	}
	if s.All().Count() != 5 {
		t.Errorf("All = %d", s.All().Count())
	}
}

func TestDistinctCodesSorted(t *testing.T) {
	s := New(testCollection(t))
	codes := s.DistinctCodes()
	// T90, K86, R74 (ICPC2) + E11.9 (ICD10) + A10BA02 (ATC).
	if len(codes) != 5 {
		t.Fatalf("distinct codes = %v", codes)
	}
	for i := 1; i < len(codes); i++ {
		a, b := codes[i-1], codes[i]
		if a.System > b.System || (a.System == b.System && a.Value >= b.Value) {
			t.Fatalf("codes not sorted: %v", codes)
		}
	}
}

func TestOrdinalRoundTrip(t *testing.T) {
	s := New(testCollection(t))
	for i := 0; i < s.Len(); i++ {
		id := s.PatientAt(i)
		o, ok := s.Ordinal(id)
		if !ok || o != i {
			t.Fatalf("ordinal round trip broken at %d", i)
		}
	}
	if _, ok := s.Ordinal(999); ok {
		t.Error("unknown patient has ordinal")
	}
}

// TestOrdinalExactAcrossAppendAndCompact: with patient IDs in no order at
// all — the base, each appended batch, and interleaved between them — the
// ordinal index resolves every present ID to its ordinal, on the store and
// through pinned and sliced views, and reports every other ID absent,
// before and after compaction folds the appended patients into the index.
func TestOrdinalExactAcrossAppendAndCompact(t *testing.T) {
	perm := rand.New(rand.NewSource(4)).Perm(2000)
	idAt := func(k int) model.PatientID { return model.PatientID(3 + 5*perm[k]) } // gaps between IDs
	histories := func(from, to int) (hs []*model.History) {
		for k := from; k < to; k++ {
			hs = append(hs, model.NewHistory(model.Patient{ID: idAt(k), Birth: model.Date(1950, 1, 1)}))
		}
		return hs
	}
	s, present := New(model.MustCollection(histories(0, 700)...)), 700
	check := func(stage string) {
		t.Helper()
		pinned, slice := s.Pin(), s.Slice(100, 300)
		for k := range perm { // appended IDs, then IDs not (yet) present
			o, ok := s.Ordinal(idAt(k))
			po, pok := pinned.Ordinal(idAt(k))
			so, sok := slice.Ordinal(idAt(k))
			in := k >= 100 && k < 300
			if ok != (k < present) || ok && (o != k || s.PatientAt(o) != idAt(k)) || po != o || pok != ok || sok != in || in && so != k-100 {
				t.Fatalf("%s: patient %d (appended %d of %d): Ordinal %d %v, pinned %d %v, slice [100, 300) %d %v",
					stage, idAt(k), k, present, o, ok, po, pok, so, sok)
			}
		}
		for _, id := range []model.PatientID{0, 1, 4, 3 + 5*2000, 1 << 62} {
			if o, ok := s.Ordinal(id); ok {
				t.Fatalf("%s: absent patient %d has ordinal %d", stage, id, o)
			}
		}
	}
	check("new")
	for round, to := range []int{750, 1100, 1101, 1500} {
		if _, err := s.Append(AppendBatch{NewHistories: histories(present, to)}); err != nil {
			t.Fatal(err)
		}
		present = to
		check(fmt.Sprintf("append %d", round))
		if round%2 == 1 {
			s.Compact()
			check(fmt.Sprintf("compact after append %d", round))
		}
	}
}

func TestBitsetProperties(t *testing.T) {
	// De Morgan over random index sets.
	f := func(xs, ys []uint8) bool {
		a := NewBitset(256)
		b := NewBitset(256)
		for _, x := range xs {
			a.Set(int(x))
		}
		for _, y := range ys {
			b.Set(int(y))
		}
		lhs := a.Clone().Or(b).Not()
		rhs := a.Clone().Not().And(b.Clone().Not())
		return reflect.DeepEqual(lhs.Ones(), rhs.Ones())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBitsetTailMasking(t *testing.T) {
	b := NewBitset(70) // not a multiple of 64
	b.Not()
	if b.Count() != 70 {
		t.Errorf("Not count = %d, want 70", b.Count())
	}
	ones := b.Ones()
	if ones[len(ones)-1] != 69 {
		t.Errorf("tail bit leaked: %v", ones[len(ones)-5:])
	}
	b.AndNot(oneBit(70, 69))
	if b.Get(69) || b.Count() != 69 {
		t.Error("AndNot of the tail bit broken")
	}
}

func TestBitsetRangeEarlyStop(t *testing.T) {
	b := NewBitset(100)
	for _, i := range []int{3, 50, 99} {
		b.Set(i)
	}
	var seen []int
	b.Range(func(i int) bool {
		seen = append(seen, i)
		return len(seen) < 2
	})
	if !reflect.DeepEqual(seen, []int{3, 50}) {
		t.Errorf("Range early stop = %v", seen)
	}
}

func TestSnapshotRoundTripSynthetic(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(80))
	col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Save(&buf, New(col), 4, nil); err != nil {
		t.Fatal(err)
	}
	got, _, _, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TotalEntries() != col.TotalEntries() {
		t.Fatalf("snapshot round trip: %d/%d entries", got.TotalEntries(), col.TotalEntries())
	}
	historiesEqual(t, col, got)
}

func TestStoreOverSyntheticData(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(400))
	col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := New(col)
	// Diabetics via ICPC T90 or ICD E11*: index and scan must agree.
	idx, err := s.WithCodeRegex("", `T90|E11(\..*)?`)
	if err != nil {
		t.Fatal(err)
	}
	scan, err := s.WithCodeRegexScan("", `T90|E11(\..*)?`)
	if err != nil {
		t.Fatal(err)
	}
	if idx.Count() == 0 {
		t.Error("no diabetics in 400-patient population is implausible")
	}
	if !reflect.DeepEqual(idx.Ones(), scan.Ones()) {
		t.Error("index and scan disagree on synthetic data")
	}
}
