package store

import (
	"fmt"
	"math/rand"
	"testing"
)

func TestOrAtMatchesManualMerge(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		n := 1 + r.Intn(3*containerBits+300)
		global, want := mixedBitset(r, n) // array, bitmap and run containers
		// Split [0, n) into contiguous chunks, as the engine's shards do,
		// ending on a container boundary half the time.
		for off := 0; off < n; {
			end := off + 1 + r.Intn(n-off)
			if al := end &^ containerMask; al > off && r.Intn(2) == 0 {
				end = al
			}
			local, _ := mixedBitset(r, end-off)
			for i := 0; i < end-off; i++ {
				if local.Get(i) {
					want.set(off + i)
				}
			}
			global.OrAt(local, off)
			off = end
		}
		mustEqual(t, fmt.Sprintf("trial %d: OrAt merge vs per-bit merge", trial), global, want)
	}
}

// TestShiftedOrRefusesOverflow: an OR whose mapped range leaves the
// receiver panics, whatever form the source holds, rather than storing
// bits past the receiver's capacity.
func TestShiftedOrRefusesOverflow(t *testing.T) {
	array, bitmap := NewBitset(containerBits), NewBitset(containerBits)
	array.Set(40)
	array.Set(150)
	for i := 0; i < containerBits; i += 2 {
		bitmap.Set(i)
	}
	sources := map[string]*Bitset{"array": array, "bitmap": bitmap, "run": NewBitset(containerBits).Not()}
	for name, src := range sources {
		for _, tc := range []struct {
			op   string
			fits int
			or   func(dst *Bitset) *Bitset
			want int
		}{
			{"OrAt", containerBits + 70, func(dst *Bitset) *Bitset { return dst.OrAt(src, 70) }, src.Count()},
			{"OrSliceOf", 100, func(dst *Bitset) *Bitset { return dst.OrSliceOf(src, 100, 200) }, src.SliceRange(100, 200).Count()},
		} {
			if got := tc.or(NewBitset(tc.fits)); got.Count() != tc.want {
				t.Errorf("%s %s into a receiver that fits: count %d, want %d", name, tc.op, got.Count(), tc.want)
			}
			for _, short := range []int{tc.fits - 1, 10} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s %s into capacity %d: no panic", name, tc.op, short)
						}
					}()
					tc.or(NewBitset(short))
				}()
			}
		}
	}
}

// TestSetOpsRefuseMismatchedCapacity: And, Or and AndNot pair containers
// by index, so an operand of another capacity panics rather than carry
// bits past the receiver's Len() or drop its own.
func TestSetOpsRefuseMismatchedCapacity(t *testing.T) {
	ops := map[string]func(b, other *Bitset) *Bitset{
		"And":    (*Bitset).And,
		"Or":     (*Bitset).Or,
		"AndNot": (*Bitset).AndNot,
	}
	for name, op := range ops {
		for _, tc := range []struct{ recv, other int }{{100, 200}, {200, 100}, {containerBits, containerBits + 1}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s of a %d-bit set with a %d-bit set: no panic", name, tc.recv, tc.other)
					}
				}()
				other := NewBitset(tc.other)
				other.Set(tc.other - 1)
				op(NewBitset(tc.recv), other)
			}()
		}
		other := NewBitset(100)
		other.Set(99)
		op(NewBitset(100), other) // equal capacities: no panic
	}
}

// TestSlicedRunsStayRuns: an unaligned slice of an all-ones mask keeps
// run containers rather than growing an 8 KB bitmap per container.
func TestSlicedRunsStayRuns(t *testing.T) {
	s := NewBitset(3*containerBits).Not().SliceRange(100, 2*containerBits+100)
	for ci := range s.cs {
		if c := &s.cs[ci]; c.typ != ctRun || !c.isFull() {
			t.Errorf("container %d: type %d, card %d; want one full run", ci, c.typ, c.card)
		}
	}
}

func TestOrAtEmptyOther(t *testing.T) {
	b := NewBitset(10)
	b.Set(3)
	if got := b.OrAt(NewBitset(0), 5); got.Count() != 1 {
		t.Errorf("OrAt with empty bitset changed contents: %d", got.Count())
	}
}

func TestEqual(t *testing.T) {
	a, b := NewBitset(100), NewBitset(100)
	a.Set(64)
	if a.Equal(b) {
		t.Error("unequal bitsets reported equal")
	}
	b.Set(64)
	if !a.Equal(b) {
		t.Error("equal bitsets reported unequal")
	}
	if a.Equal(NewBitset(101)) {
		t.Error("different capacities reported equal")
	}
}

func TestAnyInRange(t *testing.T) {
	b := NewBitset(200)
	b.Set(130)
	cases := []struct {
		lo, hi int
		want   bool
	}{
		{0, 200, true},
		{0, 130, false},
		{130, 131, true},
		{131, 200, false},
		{64, 128, false},
		{128, 192, true},
		{5, 5, false},
	}
	for _, c := range cases {
		if got := b.AnyInRange(c.lo, c.hi); got != c.want {
			t.Errorf("AnyInRange(%d, %d) = %v, want %v", c.lo, c.hi, got, c.want)
		}
	}
}
