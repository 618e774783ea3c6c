package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

// flatBits is the pre-container flat-word Bitset, kept verbatim as the
// differential-testing oracle: every containerized operation must agree
// with it bit for bit.
type flatBits struct {
	words []uint64
	n     int
}

func newFlat(n int) *flatBits { return &flatBits{words: make([]uint64, (n+63)/64), n: n} }

func (f *flatBits) set(i int)      { f.words[i>>6] |= 1 << (uint(i) & 63) }
func (f *flatBits) clear(i int)    { f.words[i>>6] &^= 1 << (uint(i) & 63) }
func (f *flatBits) get(i int) bool { return f.words[i>>6]&(1<<(uint(i)&63)) != 0 }

func (f *flatBits) count() int {
	c := 0
	for _, w := range f.words {
		c += bits.OnesCount64(w)
	}
	return c
}

func (f *flatBits) and(o *flatBits) {
	for i := range f.words {
		f.words[i] &= o.words[i]
	}
}

func (f *flatBits) or(o *flatBits) {
	for i := range f.words {
		f.words[i] |= o.words[i]
	}
}

func (f *flatBits) andNot(o *flatBits) {
	for i := range f.words {
		f.words[i] &^= o.words[i]
	}
}

func (f *flatBits) not() {
	for i := range f.words {
		f.words[i] = ^f.words[i]
	}
	if rem := f.n & 63; rem != 0 && len(f.words) > 0 {
		f.words[len(f.words)-1] &= (1 << uint(rem)) - 1
	}
}

// oneBit returns an n-bit set holding only bit i.
func oneBit(n, i int) *Bitset {
	b := NewBitset(n)
	b.Set(i)
	return b
}

func (f *flatBits) clone() *flatBits {
	c := newFlat(f.n)
	copy(c.words, f.words)
	return c
}

// mustEqual fails unless b and f hold exactly the same set, word by word
// and through Get at every bit.
func mustEqual(t *testing.T, label string, b *Bitset, f *flatBits) {
	t.Helper()
	mustEqualWords(t, label, b, f)
	for i := 0; i < f.n; i++ {
		if b.Get(i) != f.get(i) {
			t.Fatalf("%s: bit %d: containerized=%v oracle=%v", label, i, b.Get(i), f.get(i))
		}
	}
}

// mustEqualWords is mustEqual without the per-bit Get walk, cheap enough
// for a fuzz step: capacity, Count, every word, and the invariants.
func mustEqualWords(t *testing.T, label string, b *Bitset, f *flatBits) {
	t.Helper()
	if b.Len() != f.n {
		t.Fatalf("%s: capacity %d, oracle %d", label, b.Len(), f.n)
	}
	if got, want := b.Count(), f.count(); got != want {
		t.Fatalf("%s: Count=%d, oracle %d", label, got, want)
	}
	var scratch [containerWords]uint64
	for ci := range b.cs {
		ws := b.cs[ci].words(scratch[:])
		for wi, w := range f.words[ci*containerWords : min(len(f.words), (ci+1)*containerWords)] {
			if ws[wi] != w {
				t.Fatalf("%s: word %d: containerized=%x oracle=%x", label, ci*containerWords+wi, ws[wi], w)
			}
		}
	}
	checkInvariants(t, label, b)
}

// mixedBitset returns a bitset of capacity n whose containers are drawn
// empty, array, bitmap or run, and a flat oracle holding the same bits.
func mixedBitset(r *rand.Rand, n int) (*Bitset, *flatBits) {
	b, f := NewBitset(n), newFlat(n)
	for ci := range b.cs {
		ws := make([]uint64, containerWords)
		switch r.Intn(4) {
		case 1:
			for k := 0; k < 100; k++ {
				p := r.Intn(containerBits)
				ws[p>>6] |= 1 << (p & 63)
			}
		case 2:
			for i := range ws {
				ws[i] = r.Uint64()
			}
		case 3:
			for k := 0; k < 5; k++ {
				lo := r.Intn(containerBits)
				fillWords(ws, lo, min(lo+r.Intn(20000), containerBits))
			}
		}
		maskTailWords(ws, b.containerSpan(ci))
		copy(f.words[ci*containerWords:], ws)
		b.cs[ci] = fromWords(ws)
	}
	return b, f
}

// checkInvariants verifies the container bookkeeping the public API
// relies on: cached cardinalities are exact, arrays stay sorted and
// within the promotion threshold, runs stay canonical, and no bit lives
// beyond the declared capacity.
func checkInvariants(t *testing.T, label string, b *Bitset) {
	t.Helper()
	if len(b.cs) != (b.n+containerBits-1)/containerBits {
		t.Fatalf("%s: %d containers for capacity %d", label, len(b.cs), b.n)
	}
	for ci := range b.cs {
		c := &b.cs[ci]
		span := b.containerSpan(ci)
		card := 0
		last := -1
		c.iterate(0, func(v int) bool {
			if v <= last {
				t.Fatalf("%s: container %d iterates out of order (%d after %d)", label, ci, v, last)
			}
			last = v
			card++
			return true
		})
		if card != c.card {
			t.Fatalf("%s: container %d cached card %d, actual %d", label, ci, c.card, card)
		}
		if last >= span {
			t.Fatalf("%s: container %d holds bit %d beyond span %d", label, ci, last, span)
		}
		switch c.typ {
		case ctArray:
			if len(c.arr) > arrayMaxCard {
				t.Fatalf("%s: container %d array over threshold: %d", label, ci, len(c.arr))
			}
		case ctRun:
			for i := 1; i < len(c.runs); i++ {
				if c.runs[i].lo <= c.runs[i-1].hi {
					t.Fatalf("%s: container %d has overlapping runs", label, ci)
				}
			}
		}
	}
}

func TestContainerPromotionDemotion(t *testing.T) {
	b := NewBitset(containerBits)
	// Ascending fill stays an array through the threshold...
	for i := 0; i < arrayMaxCard; i++ {
		b.Set(i * 2) // spread out so the run encoding isn't chosen
	}
	if b.cs[0].typ != ctArray {
		t.Fatalf("at threshold: typ=%d, want array", b.cs[0].typ)
	}
	// ...and one more bit promotes to bitmap.
	b.Set(arrayMaxCard * 2)
	if b.cs[0].typ != ctBitmap {
		t.Fatalf("past threshold: typ=%d, want bitmap", b.cs[0].typ)
	}
	if b.Count() != arrayMaxCard+1 {
		t.Fatalf("count after promote: %d", b.Count())
	}
	// Removing a bit back to the threshold demotes to array.
	b.AndNot(oneBit(containerBits, arrayMaxCard*2))
	if b.cs[0].typ != ctArray {
		t.Fatalf("after demote: typ=%d, want array", b.cs[0].typ)
	}
	if b.Count() != arrayMaxCard {
		t.Fatalf("count after demote: %d", b.Count())
	}
	checkInvariants(t, "promote/demote", b)

	// A full complement produces a run container; mutating it falls back
	// to bitmap form.
	full := NewBitset(containerBits).Not()
	if full.cs[0].typ != ctRun || !full.cs[0].isFull() {
		t.Fatalf("Not() of empty: typ=%d card=%d, want full run", full.cs[0].typ, full.cs[0].card)
	}
	full.AndNot(oneBit(containerBits, 12345))
	if full.cs[0].typ != ctBitmap {
		t.Fatalf("mutated run: typ=%d, want bitmap", full.cs[0].typ)
	}
	if full.Count() != containerBits-1 {
		t.Fatalf("mutated run count: %d", full.Count())
	}
}

func TestContainerEmptyAndFullRange(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, containerBits - 1, containerBits, containerBits + 1, 3*containerBits + 100} {
		b := NewBitset(n)
		if b.Count() != 0 || b.AnyInRange(0, n) {
			t.Fatalf("n=%d: fresh bitset not empty", n)
		}
		b.Not()
		if b.Count() != n {
			t.Fatalf("n=%d: Not() of empty has %d bits", n, b.Count())
		}
		if n > 0 && (!b.Get(0) || !b.Get(n-1)) {
			t.Fatalf("n=%d: full bitset missing endpoints", n)
		}
		if got := b.SliceRange(0, n).Count(); got != n {
			t.Fatalf("n=%d: SliceRange over full counts %d", n, got)
		}
		checkInvariants(t, "full", b)
		b.Not()
		if b.Count() != 0 {
			t.Fatalf("n=%d: double complement has %d bits", n, b.Count())
		}
		checkInvariants(t, "double-not", b)
	}
}

func TestContainerWordAndChunkBoundaries(t *testing.T) {
	n := 2*containerBits + 100
	b := NewBitset(n)
	f := newFlat(n)
	edges := []int{0, 1, 62, 63, 64, 65, 127, 128,
		containerBits - 65, containerBits - 64, containerBits - 1, containerBits, containerBits + 1,
		2*containerBits - 1, 2 * containerBits, n - 2, n - 1}
	for _, i := range edges {
		b.Set(i)
		f.set(i)
	}
	mustEqual(t, "edges", b, f)

	for _, lo := range []int{0, 1, 63, 64, containerBits - 1, containerBits, containerBits + 1} {
		for _, hi := range []int{lo, lo + 1, lo + 64, containerBits, 2 * containerBits, n} {
			if hi > n || hi < lo {
				continue
			}
			want := 0
			any := false
			for i := lo; i < hi; i++ {
				if f.get(i) {
					want++
					any = true
				}
			}
			if got := b.SliceRange(lo, hi).Count(); got != want {
				t.Fatalf("SliceRange(%d,%d) counts %d, want %d", lo, hi, got, want)
			}
			if got := b.AnyInRange(lo, hi); got != any {
				t.Fatalf("AnyInRange(%d,%d)=%v, want %v", lo, hi, got, any)
			}
		}
	}

	// Slices and offset merges across chunk boundaries.
	for _, lo := range []int{0, 50, containerBits - 3, containerBits + 7} {
		hi := lo + containerBits + 90
		if hi > n {
			hi = n
		}
		s := b.SliceRange(lo, hi)
		for i := lo; i < hi; i++ {
			if s.Get(i-lo) != f.get(i) {
				t.Fatalf("SliceRange(%d,%d): bit %d wrong", lo, hi, i-lo)
			}
		}
		back := NewBitset(n).OrAt(s, lo)
		for i := 0; i < n; i++ {
			want := i >= lo && i < hi && f.get(i)
			if back.Get(i) != want {
				t.Fatalf("OrAt(SliceRange(%d,%d), %d): bit %d wrong", lo, hi, lo, i)
			}
		}
	}
}

func TestContainerKernelMatrix(t *testing.T) {
	// One operand of each physical kind, And/Or/AndNot across the full
	// type × type matrix, checked against the flat oracle.
	n := containerBits
	mk := map[string]func() (*Bitset, *flatBits){
		"empty": func() (*Bitset, *flatBits) { return NewBitset(n), newFlat(n) },
		"array": func() (*Bitset, *flatBits) {
			b, f := NewBitset(n), newFlat(n)
			for i := 0; i < 3000; i++ {
				b.Set(i * 7 % n)
				f.set(i * 7 % n)
			}
			return b, f
		},
		"bitmap": func() (*Bitset, *flatBits) {
			b, f := NewBitset(n), newFlat(n)
			r := rand.New(rand.NewSource(7))
			for i := 0; i < 20000; i++ {
				v := r.Intn(n)
				b.Set(v)
				f.set(v)
			}
			return b, f
		},
		"run": func() (*Bitset, *flatBits) {
			b, f := NewBitset(n), newFlat(n)
			for i := 0; i < 200; i++ { // sparse → complement is runs
				b.Set(i * 300)
				f.set(i * 300)
			}
			b.Not()
			f.not()
			return b, f
		},
		"full": func() (*Bitset, *flatBits) {
			b, f := NewBitset(n), newFlat(n)
			b.Not()
			f.not()
			return b, f
		},
	}
	for aName, mkA := range mk {
		for bName, mkB := range mk {
			for _, op := range []string{"and", "or", "andnot"} {
				a, fa := mkA()
				b, fb := mkB()
				switch op {
				case "and":
					a.And(b)
					fa.and(fb)
				case "or":
					a.Or(b)
					fa.or(fb)
				case "andnot":
					a.AndNot(b)
					fa.andNot(fb)
				}
				mustEqual(t, aName+" "+op+" "+bName, a, fa)
			}
		}
	}
}

func TestContainerWireFormats(t *testing.T) {
	n := 2*containerBits + 500
	cases := map[string]func(*Bitset){
		"empty": func(b *Bitset) {},
		"sparse-arrays": func(b *Bitset) {
			for i := 0; i < n; i += 97 {
				b.Set(i)
			}
		},
		"dense-bitmaps": func(b *Bitset) {
			r := rand.New(rand.NewSource(11))
			for i := 0; i < n/2; i++ {
				b.Set(r.Intn(n))
			}
		},
		"runs": func(b *Bitset) { b.Not() },
		"mixed": func(b *Bitset) {
			for i := 0; i < 100; i++ {
				b.Set(i * 11)
			}
			b.OrAt(NewBitset(containerBits).Not(), containerBits)
			r := rand.New(rand.NewSource(13))
			for i := 0; i < 400; i++ {
				b.Set(2*containerBits + r.Intn(500))
			}
		},
	}
	for name, fill := range cases {
		b := NewBitset(n)
		fill(b)
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		var got Bitset
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("%s: unmarshal: %v", name, err)
		}
		if !got.Equal(b) {
			t.Fatalf("%s: round trip mismatch", name)
		}
		checkInvariants(t, name, &got)
		st := b.ContainerStats()
		if st.WireBytes != len(data) {
			t.Fatalf("%s: ContainerStats.WireBytes=%d, encoded %d", name, st.WireBytes, len(data))
		}
		if st.Cardinality != b.Count() {
			t.Fatalf("%s: ContainerStats.Cardinality=%d, Count %d", name, st.Cardinality, b.Count())
		}
	}

	// The run-heavy case must actually compress.
	full := NewBitset(n).Not()
	data, _ := full.MarshalBinary()
	if len(data) > 64 {
		t.Fatalf("full bitset encodes to %d bytes, want runs", len(data))
	}
}

func TestContainerWireHostilePayloads(t *testing.T) {
	good, err := func() ([]byte, error) {
		b := NewBitset(300)
		for i := 0; i < 300; i += 3 {
			b.Set(i)
		}
		return b.MarshalBinary()
	}()
	if err != nil {
		t.Fatal(err)
	}
	le16 := binary.LittleEndian.AppendUint16
	// The flat-word form (uvarint capacity + LE words, no tag) is gone;
	// the oracle still knows how to spell it.
	flat := newFlat(200)
	flat.set(3)
	flatWords := binary.AppendUvarint(nil, uint64(flat.n))
	for _, w := range flat.words {
		flatWords = binary.LittleEndian.AppendUint64(flatWords, w)
	}
	cases := map[string][]byte{
		"empty input":       nil,
		"flat words":        flatWords,
		"flat empty set":    {0x00}, // one byte: a tag with no capacity behind it
		"capacity lie":      append([]byte{0x00}, binary.AppendUvarint(nil, 1<<40)...),
		"truncated":         good[:len(good)-3],
		"trailing garbage":  append(append([]byte{}, good...), 0xFF),
		"unknown container": append(binary.AppendUvarint([]byte{0x00}, 70000), 0x07, 0x07),
		"array unsorted": append(
			binary.AppendUvarint(append(binary.AppendUvarint([]byte{0x00}, 70000), wireArray), 2),
			5, 0, 3, 0),
		"array beyond span": append(
			binary.AppendUvarint(append(binary.AppendUvarint([]byte{0x00}, 100), wireArray), 1),
			200, 0),
		"run inverted": le16(le16(
			binary.AppendUvarint(append(binary.AppendUvarint([]byte{0x00}, 70000), wireRun), 1),
			9), 3),
		"run overlap": le16(le16(le16(le16(
			binary.AppendUvarint(append(binary.AppendUvarint([]byte{0x00}, 70000), wireRun), 2),
			1), 10), 5), 20),
		"run beyond span": le16(le16(
			binary.AppendUvarint(append(binary.AppendUvarint([]byte{0x00}, 100), wireRun), 1),
			0), 150),
		"bitmap short": append(binary.AppendUvarint([]byte{0x00}, 70000), wireBitmap, 1, 2, 3),
	}
	// Bitmap with bits beyond the capacity span.
	bm := append(binary.AppendUvarint([]byte{0x00}, 10), wireBitmap)
	pay := make([]byte, bitmapWireBytes)
	pay[100] = 0xFF // bits ~800, capacity 10
	cases["bitmap beyond span"] = append(bm, pay...)

	for name, data := range cases {
		var b Bitset
		if err := b.UnmarshalBinary(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// Control: the good payload decodes.
	var b Bitset
	if err := b.UnmarshalBinary(good); err != nil {
		t.Fatalf("control payload rejected: %v", err)
	}
}

// FuzzContainerOps drives random operation sequences through the
// containerized Bitset and the flat-word oracle in lockstep; any
// divergence in counts, membership, slicing, merging, word mapping or
// wire round trips is a kernel bug.
func FuzzContainerOps(f *testing.F) {
	f.Add([]byte{0x01, 0x02, 0x03}, uint32(100))
	f.Add([]byte{0x00, 0x0A, 0x07, 0x0A}, uint32(2*containerBits+77))         // arrays, then runs, with a tail
	f.Add(append(make([]byte, 100), 0x0A, 0x07, 0x0A), uint32(containerBits)) // bitmaps
	f.Add([]byte{0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0xFF, 0xFE}, uint32(containerBits))
	f.Add([]byte{0xAA, 0x55, 0x00, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60}, uint32(2*containerBits+77))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint32) {
		n := int(seed)%(2*containerBits+1000) + 1
		r := rand.New(rand.NewSource(int64(seed)))
		a, fa := NewBitset(n), newFlat(n)
		b, fb := mixedBitset(r, n)
		for _, op := range ops {
			switch op % 11 {
			case 0, 1: // grow a (two weights: sets dominate)
				for k := 0; k < 50; k++ {
					v := r.Intn(n)
					a.Set(v)
					fa.set(v)
				}
			case 2:
				for k := 0; k < 50; k++ {
					v := r.Intn(n)
					b.Set(v)
					fb.set(v)
				}
			case 3:
				v := r.Intn(n)
				a.AndNot(oneBit(n, v))
				fa.clear(v)
			case 4:
				a.And(b)
				fa.and(fb)
			case 5:
				a.Or(b)
				fa.or(fb)
			case 6:
				a.AndNot(b)
				fa.andNot(fb)
			case 7:
				a.Not()
				fa.not()
			case 8: // wire round trip replaces a
				data, err := a.MarshalBinary()
				if err != nil {
					t.Fatalf("marshal: %v", err)
				}
				var back Bitset
				if err := back.UnmarshalBinary(data); err != nil {
					t.Fatalf("unmarshal own encoding: %v", err)
				}
				if !back.Equal(a) {
					t.Fatal("wire round trip changed contents")
				}
				a = &back
			case 9: // slice out of a, OR it into b at an offset, container-aligned half the time
				lo := r.Intn(n)
				hi := lo + r.Intn(n-lo) + 1
				s := a.SliceRange(lo, hi)
				checkInvariants(t, "SliceRange", s)
				off := r.Intn(n - (hi - lo) + 1)
				if r.Intn(2) == 0 {
					off &^= containerMask
				}
				b.OrAt(s, off)
				for i := 0; i < hi-lo; i++ {
					if s.Get(i) != fa.get(lo+i) {
						t.Fatalf("slice [%d,%d) bit %d diverges", lo, hi, i)
					}
					if fa.get(lo + i) {
						fb.set(off + i)
					}
					if b.Get(off+i) != fb.get(off+i) {
						t.Fatalf("OrAt(SliceRange(%d,%d), %d): bit %d diverges", lo, hi, off, off+i)
					}
				}
				mustEqualWords(t, fmt.Sprintf("OrAt(SliceRange(%d,%d), %d)", lo, hi, off), b, fb)
			case 10: // map a word by word, as a scan does, in blocks of 64–32,768 bits spread over 1–3 workers: some words to 0, some to bits outside them
				salt, block := r.Uint64(), 64*(1+r.Intn(512))
				fn := func(base int, w uint64) uint64 {
					if base&63 != 0 || w != fa.words[base>>6] {
						t.Errorf("EachWord passed word %b at bit %d; the set holds %b there", w, base, fa.words[base>>6])
					}
					switch x := uint64(base)*0x9e3779b97f4a7c15 ^ salt; x >> 62 {
					case 0:
						return 0
					case 1:
						return ^uint64(0)
					default:
						return x
					}
				}
				words, next := make([]uint64, (n+63)/64), new(atomic.Int64)
				var wg sync.WaitGroup
				for range 1 + r.Intn(3) {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for lo := int(next.Add(int64(block))) - block; lo < n; lo = int(next.Add(int64(block))) - block {
							a.EachWord(lo, min(lo+block, n), func(base int, w uint64) { words[base>>6] = fn(base, w) & w })
						}
					}()
				}
				wg.Wait()
				if t.Failed() {
					t.FailNow()
				}
				a = FromWords(words, n)
				for wi, w := range fa.words {
					if w != 0 {
						fa.words[wi] = fn(wi<<6, w) & w
					}
				}
				mustEqual(t, "EachWord+FromWords", a, fa)
			}
			if a.Count() != fa.count() || b.Count() != fb.count() {
				t.Fatalf("count diverged after op %d: a=%d/%d b=%d/%d",
					op%11, a.Count(), fa.count(), b.Count(), fb.count())
			}
		}
		mustEqual(t, "final a", a, fa)
		mustEqual(t, "final b", b, fb)
	})
}
