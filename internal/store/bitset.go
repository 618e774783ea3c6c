package store

import (
	"fmt"
	"math/bits"
	"sort"
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
// cardinalities. The public API is unchanged from the flat-word version.
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

// Clear unmarks bit i.
func (b *Bitset) Clear(i int) {
	if uint(i) >= uint(b.n) {
		panic(fmt.Sprintf("store: bitset: Clear(%d) out of range [0,%d)", i, b.n))
	}
	b.cs[i>>16].clear(uint16(i & containerMask))
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

// And intersects in place (receiver ∩= other) and returns the receiver.
func (b *Bitset) And(other *Bitset) *Bitset {
	for i := range b.cs {
		b.cs[i] = andContainers(&b.cs[i], &other.cs[i])
	}
	return b
}

// Or unions in place and returns the receiver.
func (b *Bitset) Or(other *Bitset) *Bitset {
	for i := range b.cs {
		b.cs[i] = orContainers(&b.cs[i], &other.cs[i])
	}
	return b
}

// AndNot removes other's bits in place and returns the receiver.
func (b *Bitset) AndNot(other *Bitset) *Bitset {
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

// orWord ORs a 64-bit word into the receiver at word index wi (bit
// 64*wi), updating the touched container in whatever form it holds.
func (b *Bitset) orWord(wi int, w uint64) {
	if w == 0 {
		return
	}
	c := &b.cs[wi>>10]
	lw := wi & (containerWords - 1)
	switch c.typ {
	case ctBitmap:
		old := c.bmp[lw]
		if nw := old | w; nw != old {
			c.bmp[lw] = nw
			c.card += bits.OnesCount64(nw &^ old)
		}
	case ctArray:
		if c.card+bits.OnesCount64(w) > arrayMaxCard {
			c.toBitmap()
			b.orWord(wi, w)
			return
		}
		base := uint16(lw << 6)
		for w != 0 {
			c.set(base + uint16(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	default: // run: mutate only if the word adds anything
		if missing := w &^ c.wordAt(lw); missing == 0 {
			return
		}
		c.toBitmap()
		b.orWord(wi, w)
	}
}

// wordAt materializes the container's 64-bit word at local word index lw.
func (c *container) wordAt(lw int) uint64 {
	switch c.typ {
	case ctBitmap:
		return c.bmp[lw]
	case ctArray:
		lo := uint16(lw << 6)
		var w uint64
		i := sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= lo })
		for ; i < len(c.arr) && c.arr[i]>>6 == uint16(lw); i++ {
			w |= 1 << (c.arr[i] & 63)
		}
		return w
	default:
		lo, hi := lw<<6, lw<<6+63
		var w uint64
		i := sort.Search(len(c.runs), func(i int) bool { return int(c.runs[i].hi) >= lo })
		for ; i < len(c.runs) && int(c.runs[i].lo) <= hi; i++ {
			s, e := int(c.runs[i].lo), int(c.runs[i].hi)
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			w |= (^uint64(0) >> (63 - uint(e-lo))) &^ ((1 << uint(s-lo)) - 1)
		}
		return w
	}
}

// setRange sets bits [lo, hi) of the receiver.
func (b *Bitset) setRange(lo, hi int) {
	for lo < hi {
		ci := lo >> 16
		cEnd := (ci + 1) << 16
		if cEnd > hi {
			cEnd = hi
		}
		c := &b.cs[ci]
		rLo, rHi := lo-ci<<16, cEnd-ci<<16
		switch {
		case c.card == 0:
			c.typ = ctRun
			c.arr, c.bmp = nil, nil
			c.runs = []interval16{{uint16(rLo), uint16(rHi - 1)}}
			c.card = rHi - rLo
		case c.typ == ctRun:
			c.runs = mergeRuns(c.runs, []interval16{{uint16(rLo), uint16(rHi - 1)}})
			card := 0
			for _, r := range c.runs {
				card += int(r.hi) - int(r.lo) + 1
			}
			c.card = card
		default:
			c.toBitmap()
			c.card += zeroFill(c.bmp, rLo, rHi)
		}
		lo = cEnd
	}
}

// OrAt unions other into the receiver with other's bit 0 mapped to bit off
// of the receiver, and returns the receiver. This is how per-shard results
// merge into a global cohort bitset: each shard owns a contiguous ordinal
// range starting at its offset.
func (b *Bitset) OrAt(other *Bitset, off int) *Bitset {
	if other.n == 0 {
		return b
	}
	baseWord, shift := off>>6, uint(off&63)
	srcWords := (other.n + 63) / 64
	var scratch []uint64
	for ci := range other.cs {
		c := &other.cs[ci]
		if c.card == 0 {
			continue
		}
		var ws []uint64
		if c.typ == ctBitmap {
			ws = c.bmp
		} else {
			if scratch == nil {
				scratch = make([]uint64, containerWords)
			}
			ws = c.words(scratch)
		}
		nw := srcWords - ci*containerWords
		if nw > containerWords {
			nw = containerWords
		}
		cwBase := baseWord + ci*containerWords
		for wi := 0; wi < nw; wi++ {
			w := ws[wi]
			if w == 0 {
				continue
			}
			b.orWord(cwBase+wi, w<<shift)
			if shift != 0 {
				if hw := w >> (64 - shift); hw != 0 {
					b.orWord(cwBase+wi+1, hw)
				}
			}
		}
	}
	return b
}

// CountRange returns the number of set bits in [lo, hi).
func (b *Bitset) CountRange(lo, hi int) int {
	if lo >= hi {
		return 0
	}
	c := 0
	for ci := lo >> 16; ci <= (hi-1)>>16; ci++ {
		rLo, rHi := 0, containerBits
		if base := ci << 16; base < lo {
			rLo = lo - base
		}
		if base := ci << 16; base+containerBits > hi {
			rHi = hi - base
		}
		c += b.cs[ci].countRange(rLo, rHi)
	}
	return c
}

// OrSliceOf ORs src's bit range [lo, hi) into the receiver, src's bit lo
// mapped to the receiver's bit 0 — the inverse of OrAt. This is how a
// shard view answers index lookups from its parent's postings without
// duplicating them: the parent's bitset is sliced on the fly.
func (b *Bitset) OrSliceOf(src *Bitset, lo, hi int) *Bitset {
	if hi-lo <= 0 {
		return b
	}
	for ci := lo >> 16; ci <= (hi-1)>>16; ci++ {
		c := &src.cs[ci]
		if c.card == 0 {
			continue
		}
		cBase := ci << 16
		rLo, rHi := 0, containerBits
		if cBase < lo {
			rLo = lo - cBase
		}
		if cBase+containerBits > hi {
			rHi = hi - cBase
		}
		switch c.typ {
		case ctArray:
			i := sort.Search(len(c.arr), func(i int) bool { return int(c.arr[i]) >= rLo })
			for ; i < len(c.arr) && int(c.arr[i]) < rHi; i++ {
				b.Set(cBase + int(c.arr[i]) - lo)
			}
		case ctRun:
			for _, r := range c.runs {
				s, e := int(r.lo), int(r.hi)+1
				if s < rLo {
					s = rLo
				}
				if e > rHi {
					e = rHi
				}
				if s < e {
					b.setRange(cBase+s-lo, cBase+e-lo)
				}
			}
		default: // bitmap: shift whole words into place
			for wi := rLo >> 6; wi <= (rHi-1)>>6; wi++ {
				w := c.bmp[wi]
				if wi == rLo>>6 {
					w &= ^uint64(0) << (uint(rLo) & 63)
				}
				if wi == (rHi-1)>>6 {
					if rem := uint(rHi) & 63; rem != 0 {
						w &= (1 << rem) - 1
					}
				}
				if w == 0 {
					continue
				}
				dBit := cBase + wi<<6 - lo
				if dBit < 0 {
					b.orWord(0, w>>uint(-dBit))
					continue
				}
				sh := uint(dBit & 63)
				b.orWord(dBit>>6, w<<sh)
				if sh != 0 {
					if hw := w >> (64 - sh); hw != 0 {
						b.orWord(dBit>>6+1, hw)
					}
				}
			}
		}
	}
	return b
}

// SliceRange extracts the bit range [lo, hi) as a new bitset of capacity
// hi-lo.
func (b *Bitset) SliceRange(lo, hi int) *Bitset {
	if hi < lo {
		hi = lo
	}
	return NewBitset(hi-lo).OrSliceOf(b, lo, hi)
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

// MapWords returns the set fn maps the receiver into word by word: for
// each nonzero 64-bit word w, whose bit 0 is bit base, the result holds
// fn(base, w) ∩ w. Each output container is written once — an array
// walked by member, a bitmap or run word by word — so a scan pays one
// call per candidate word, not a closure call and a Set per bit.
func (b *Bitset) MapWords(fn func(base int, w uint64) uint64) *Bitset {
	out := NewBitset(b.n)
	var scratch []uint64 // on the heap: an 8 KB frame would grow every fan-out goroutine's stack
	for ci := range b.cs {
		c, o, base := &b.cs[ci], &out.cs[ci], ci<<16
		if c.typ == ctArray {
			o.arr = make([]uint16, 0, c.card)
			for i := 0; i < len(c.arr); {
				wi, w := c.arr[i]>>6, uint64(0)
				for ; i < len(c.arr) && c.arr[i]>>6 == wi; i++ {
					w |= 1 << (c.arr[i] & 63)
				}
				for m := fn(base+int(wi)<<6, w) & w; m != 0; m &= m - 1 {
					o.arr = append(o.arr, wi<<6|uint16(bits.TrailingZeros64(m)))
				}
			}
			o.card = len(o.arr)
		} else {
			if scratch == nil {
				scratch = make([]uint64, containerWords)
			}
			for wi, w := range c.words(scratch) {
				if w == 0 {
					continue
				}
				if m := fn(base+wi<<6, w) & w; m != 0 {
					if o.bmp == nil {
						o.typ, o.bmp = ctBitmap, make([]uint64, containerWords)
					}
					o.bmp[wi] = m
					o.card += bits.OnesCount64(m)
				}
			}
		}
		o.optimize()
	}
	return out
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
