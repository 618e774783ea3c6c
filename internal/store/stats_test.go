package store

import (
	"math/rand"
	"reflect"
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
