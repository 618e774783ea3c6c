package store

import (
	"fmt"
	"math/bits"
)

// Bitset is a fixed-capacity bit vector over patient ordinals. Cohort
// queries over the 168k-patient data set reduce to AND/OR/ANDNOT over these,
// which is what keeps interactive filtering inside the paper's 100 ms
// budget at full scale.
//
// Storage is containerized (see container.go): the ordinal space is split
// into aligned 65,536-bit chunks, each held as a sorted array, packed
// words, or run list depending on density. Sparse postings cost 2 bytes
// per patient instead of n/8, set operations dispatch to kernels matched
// to the operand densities, and Count reads cached per-container
// cardinalities. The offset unions (OrAt, OrSliceOf, SliceRange) share
// one kernel, orShifted, which merges whole containers at an aligned
// offset and otherwise gathers each destination's members once. No
// mutation writes outside [0, Len()): an offset union whose mapped range
// does not fit the receiver, and an And, Or or AndNot whose operand has
// another capacity, panic instead, as Set does.
type Bitset struct {
	cs []container
	n  int // capacity in bits
}

// NewBitset returns an empty set with capacity n.
func NewBitset(n int) *Bitset {
	return &Bitset{cs: make([]container, (n+containerBits-1)/containerBits), n: n}
}

// Len returns the capacity in bits.
func (b *Bitset) Len() int { return b.n }

// containerSpan returns the number of valid bits in container ci: a full
// containerBits except for the capacity-truncated tail.
func (b *Bitset) containerSpan(ci int) int {
	span := b.n - ci<<16
	if span > containerBits {
		span = containerBits
	}
	return span
}

// Set marks bit i.
func (b *Bitset) Set(i int) {
	if uint(i) >= uint(b.n) {
		panic(fmt.Sprintf("store: bitset: Set(%d) out of range [0,%d)", i, b.n))
	}
	b.cs[i>>16].set(uint16(i & containerMask))
}

// Get reports whether bit i is set.
func (b *Bitset) Get(i int) bool {
	if uint(i) >= uint(b.n) {
		panic(fmt.Sprintf("store: bitset: Get(%d) out of range [0,%d)", i, b.n))
	}
	return b.cs[i>>16].get(uint16(i & containerMask))
}

// Count returns the number of set bits. Cardinalities are cached per
// container, so this is O(capacity / 2^16), not a popcount over words.
func (b *Bitset) Count() int {
	c := 0
	for i := range b.cs {
		c += b.cs[i].card
	}
	return c
}

// Clone returns a copy.
func (b *Bitset) Clone() *Bitset {
	c := &Bitset{cs: make([]container, len(b.cs)), n: b.n}
	for i := range b.cs {
		c.cs[i] = b.cs[i].clone()
	}
	return c
}

// sameLen panics unless other has the receiver's capacity: And, Or and
// AndNot pair containers by index, so a longer operand would carry bits
// past Len() into the receiver's tail container.
func (b *Bitset) sameLen(op string, other *Bitset) {
	if other.n != b.n {
		panic(fmt.Sprintf("store: bitset: %s of a %d-bit set with a %d-bit set", op, b.n, other.n))
	}
}

// And intersects in place (receiver ∩= other; a container facing a full
// one is kept as it stands) and returns the receiver.
func (b *Bitset) And(other *Bitset) *Bitset {
	b.sameLen("And", other)
	for i := range b.cs {
		if !other.cs[i].isFull() {
			b.cs[i] = andContainers(&b.cs[i], &other.cs[i])
		}
	}
	return b
}

// Or unions in place and returns the receiver.
func (b *Bitset) Or(other *Bitset) *Bitset {
	b.sameLen("Or", other)
	for i := range b.cs {
		b.cs[i] = orContainers(&b.cs[i], &other.cs[i])
	}
	return b
}

// AndNot removes other's bits in place and returns the receiver.
func (b *Bitset) AndNot(other *Bitset) *Bitset {
	b.sameLen("AndNot", other)
	for i := range b.cs {
		b.cs[i] = andNotContainers(&b.cs[i], &other.cs[i])
	}
	return b
}

// Not complements in place (within capacity) and returns the receiver.
func (b *Bitset) Not() *Bitset {
	for i := range b.cs {
		b.cs[i] = notContainer(&b.cs[i], b.containerSpan(i))
	}
	return b
}

// OrAt unions other into the receiver with other's bit 0 mapped to bit off
// of the receiver, and returns the receiver. This is how per-shard results
// merge into a global cohort bitset: each shard owns a contiguous ordinal
// range starting at its offset. other's capacity, shifted by off, must fit
// inside the receiver's; OrAt panics otherwise, like Set.
func (b *Bitset) OrAt(other *Bitset, off int) *Bitset { return b.orShifted(other, 0, other.n, off) }

// OrSliceOf ORs src's bit range [lo, hi) into the receiver, src's bit lo
// mapped to the receiver's bit 0 — the inverse of OrAt. This is how a
// shard view answers index lookups from its parent's postings without
// duplicating them: the parent's bitset is sliced on the fly. [lo, hi)
// must lie inside src's capacity and hi-lo must not exceed the receiver's;
// OrSliceOf panics otherwise, like Set.
func (b *Bitset) OrSliceOf(src *Bitset, lo, hi int) *Bitset { return b.orShifted(src, lo, hi, -lo) }

// SliceRange extracts the bit range [lo, hi) as a new bitset of capacity
// hi-lo.
func (b *Bitset) SliceRange(lo, hi int) *Bitset {
	hi = max(hi, lo)
	return NewBitset(hi-lo).OrSliceOf(b, lo, hi)
}

// orShifted ORs src's bits [lo, hi) into the receiver, src's bit i landing
// on the receiver's bit i+d, and returns the receiver: the one union path
// behind OrAt, OrSliceOf and SliceRange. Each destination container is
// written once. A source container that lands whole on an aligned
// destination merges as it stands; otherwise the members of the (at most
// two) source containers feeding the destination are gathered into one
// container first.
func (b *Bitset) orShifted(src *Bitset, lo, hi, d int) *Bitset {
	if lo >= hi {
		return b
	}
	if lo < 0 || hi > src.n || lo+d < 0 || hi+d > b.n {
		panic(fmt.Sprintf("store: bitset: OR of [%d,%d) shifted by %d out of range: source [0,%d), receiver [0,%d)",
			lo, hi, d, src.n, b.n))
	}
	var scratch []uint64 // on the heap: an 8 KB frame would grow every worker's stack
	for dc := (lo + d) >> 16; dc <= (hi+d-1)>>16; dc++ {
		sLo, sHi := max(lo, dc<<16-d), min(hi, (dc+1)<<16-d) // source bits landing in dc
		if sc := sLo >> 16; d&containerMask == 0 && sLo == sc<<16 && sHi >= min(sLo+containerBits, src.n) {
			if src.cs[sc].card != 0 {
				b.cs[dc] = orContainers(&b.cs[dc], &src.cs[sc])
			}
			continue
		}
		g := src.gather(sLo, sHi, d-dc<<16, &scratch)
		switch {
		case g.card == 0:
		case b.cs[dc].card == 0:
			b.cs[dc] = g
		default:
			b.cs[dc] = orContainers(&b.cs[dc], &g)
		}
	}
	return b
}

// unionSlices returns the union of bits [lo, hi) of the non-nil sets in
// srcs (each clamped to its capacity), bit lo landing on bit 0. Every
// source feeding one result container is ORed into one scratch, which then
// becomes that container in its smallest form: nothing is cloned or merged.
func unionSlices(srcs []*Bitset, lo, hi int) *Bitset {
	out := NewBitset(hi - lo)
	ws := make([]uint64, containerWords)
	for dc := range out.cs {
		dLo, dHi, hit := lo+dc<<16, min(hi, lo+(dc+1)<<16), false
		for _, src := range srcs {
			if src == nil {
				continue
			}
			sHi := min(dHi, src.n)
			for sc := dLo >> 16; dLo < sHi && sc <= (sHi-1)>>16; sc++ {
				if base := sc << 16; src.cs[sc].card != 0 {
					src.cs[sc].orShiftedInto(ws, max(dLo-base, 0), min(sHi-base, containerBits), base-dLo)
					hit = true
				}
			}
		}
		if hit {
			out.cs[dc] = fromWords(ws)
			clear(ws)
		}
	}
	return out
}

// gather returns the receiver's bits [lo, hi), bit i moved to position
// i+s, as one fresh container; [lo, hi) spans at most two containers and
// lands inside one. Array members that fit one array are shifted into it
// in order, with no sort. Anything else is ORed into the 1,024-word
// scratch and takes the smallest form, the one MarshalBinary picks, so a
// sliced run stays a run.
func (b *Bitset) gather(lo, hi, s int, scratch *[]uint64) container {
	first, last := lo>>16, (hi-1)>>16
	var parts [2][]uint16
	arrays, card := true, 0
	for sc := first; sc <= last && arrays; sc++ {
		if c := &b.cs[sc]; c.card != 0 {
			if arrays = c.typ == ctArray; arrays {
				parts[sc-first] = c.arrRange(lo-sc<<16, hi-sc<<16)
				card += len(parts[sc-first])
			}
		}
	}
	if arrays && card <= arrayMaxCard {
		out := make([]uint16, 0, card)
		for k, p := range parts {
			sh := (first+k)<<16 + s
			for _, v := range p {
				out = append(out, uint16(int(v)+sh))
			}
		}
		return container{typ: ctArray, card: card, arr: out}
	}
	if *scratch == nil {
		*scratch = make([]uint64, containerWords)
	}
	ws := *scratch
	clear(ws)
	for sc := first; sc <= last; sc++ {
		base := sc << 16
		b.cs[sc].orShiftedInto(ws, max(lo-base, 0), min(hi-base, containerBits), base+s)
	}
	return fromWords(ws)
}

// Equal reports whether two bitsets have the same capacity and identical
// contents.
func (b *Bitset) Equal(other *Bitset) bool {
	if b.n != other.n {
		return false
	}
	for i := range b.cs {
		if !eqContainers(&b.cs[i], &other.cs[i]) {
			return false
		}
	}
	return true
}

// Digest hashes the capacity and the set bits to 64 bits, whatever form
// the containers hold them in: equal bitsets digest equally. Unequal ones
// can collide, so a caller keying by the digest confirms with Equal.
func (b *Bitset) Digest() uint64 {
	h := uint64(b.n)
	var scratch [containerWords]uint64
	for ci := range b.cs {
		for _, w := range b.cs[ci].words(scratch[:]) {
			h = bits.RotateLeft64((h^w)*0x9e3779b97f4a7c15, 27)
		}
	}
	return h
}

// AnyInRange reports whether any bit in [lo, hi) is set; used to skip whole
// shards whose candidate mask is empty.
func (b *Bitset) AnyInRange(lo, hi int) bool {
	if lo >= hi {
		return false
	}
	for ci := lo >> 16; ci <= (hi-1)>>16; ci++ {
		rLo, rHi := 0, containerBits
		if base := ci << 16; base < lo {
			rLo = lo - base
		}
		if base := ci << 16; base+containerBits > hi {
			rHi = hi - base
		}
		if b.cs[ci].anyInRange(rLo, rHi) {
			return true
		}
	}
	return false
}

// EachWord calls fn(base, w) for every nonzero 64-bit word w of the set
// within bits [lo, hi), lo a multiple of 64, in ascending order: bit 0 of
// w is bit base, and w holds no bit at or past hi. An array container is
// walked by member, any other 4,096 bits at a time, so a scan pays one
// call per candidate word, not a closure call per bit. It only reads the
// set: goroutines may walk disjoint ranges of one set at once.
func (b *Bitset) EachWord(lo, hi int, fn func(base int, w uint64)) {
	var ws [64]uint64
	for lo < hi {
		c, base := &b.cs[lo>>16], lo&^containerMask
		end := min(hi, base+containerBits)
		if c.typ == ctArray {
			arr := c.arrRange(lo-base, end-base)
			for i := 0; i < len(arr); {
				wi, w := arr[i]>>6, uint64(0)
				for ; i < len(arr) && arr[i]>>6 == wi; i++ {
					w |= 1 << (arr[i] & 63)
				}
				fn(base+int(wi)<<6, w)
			}
		} else {
			end = min(end, lo+len(ws)<<6)
			clear(ws[:])
			c.orShiftedInto(ws[:], lo-base, end-base, base-lo)
			for k, w := range ws[:(end-lo+63)>>6] {
				if w != 0 {
					fn(lo+k<<6, w)
				}
			}
		}
		lo = end
	}
}

// FromWords returns the set of capacity n holding bit i%64 of words[i/64]
// for every i < n: ⌈n/64⌉ words, no bit set at or past n. Each container
// takes its smallest form.
func FromWords(words []uint64, n int) *Bitset {
	b, ws := NewBitset(n), make([]uint64, containerWords)
	for ci := range b.cs {
		clear(ws)
		copy(ws, words[ci*containerWords:])
		b.cs[ci] = fromWords(ws)
	}
	return b
}

// Range calls fn for every set bit in ascending order; fn returning false
// stops the iteration.
func (b *Bitset) Range(fn func(i int) bool) {
	for ci := range b.cs {
		if !b.cs[ci].iterate(ci<<16, fn) {
			return
		}
	}
}

// FirstN returns a same-capacity bitset keeping only the first n set
// bits (in ascending order). Callers that need a bounded sample of a
// cohort truncate before resolving ordinals to IDs, so a
// 150k-patient cohort does not ship 150k IDs over the shard wire to
// show 100.
func (b *Bitset) FirstN(n int) *Bitset {
	out := NewBitset(b.n)
	if n <= 0 {
		return out
	}
	kept := 0
	b.Range(func(i int) bool {
		out.Set(i)
		kept++
		return kept < n
	})
	return out
}

// Ones returns the indices of all set bits.
func (b *Bitset) Ones() []int {
	out := make([]int, 0, b.Count())
	b.Range(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
