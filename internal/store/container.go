package store

// Roaring-style bitmap containers. A Bitset's ordinal space is split into
// aligned 65,536-bit chunks, each held in whichever of three physical
// forms is cheapest for its density:
//
//   - array:  sorted []uint16 of the set positions — sparse chunks
//     (≤ arrayMaxCard members) cost 2 bytes per member instead of 8 KiB.
//   - bitmap: 1024 packed words — dense chunks keep the flat-word speed.
//   - run:    sorted, non-overlapping [lo, hi] intervals — contiguous
//     chunks (cohort results over ordinal-clustered populations, All()
//     masks) collapse to a few 4-byte pairs.
//
// And/Or/AndNot dispatch on the container-type pair, so a sparse ∧ sparse
// intersection is a two-pointer merge over a few hundred uint16s rather
// than 1024 word ops, and Count reads cached per-container cardinalities
// instead of popcounting. Containers promote (array→bitmap above
// arrayMaxCard) and demote (bitmap→array at or below it) as members come
// and go; run containers appear where complements and the wire decoder
// find contiguity, and mutation of a run falls back to bitmap form first.

import (
	"math/bits"
	"sort"
)

// Container geometry and thresholds.
const (
	containerBits  = 1 << 16            // ordinals per container
	containerWords = containerBits / 64 // 1024
	arrayMaxCard   = 4096               // above this an array promotes to bitmap
	notRunMaxCard  = arrayMaxCard / 2   // array complement stays runs below this
	containerMask  = containerBits - 1
)

// Container physical types. The zero value is an empty array container,
// so a freshly allocated []container is a valid all-empty bitset.
const (
	ctArray = iota
	ctBitmap
	ctRun
)

// interval16 is one run of set bits, inclusive on both ends.
type interval16 struct{ lo, hi uint16 }

// container is one 65,536-bit chunk. card caches the exact cardinality
// and is maintained by every mutation, so Count never re-popcounts.
type container struct {
	typ  uint8
	card int
	arr  []uint16
	bmp  []uint64
	runs []interval16
}

// clone returns a deep copy; the result shares no memory with c.
func (c *container) clone() container {
	out := container{typ: c.typ, card: c.card}
	switch c.typ {
	case ctArray:
		if len(c.arr) > 0 {
			out.arr = append([]uint16(nil), c.arr...)
		}
	case ctBitmap:
		out.bmp = append([]uint64(nil), c.bmp...)
	case ctRun:
		out.runs = append([]interval16(nil), c.runs...)
	}
	return out
}

// isFull reports whether the container holds every one of its 65,536
// positions. (The tail container of a non-multiple capacity can never be
// full: bits beyond the capacity are always zero.)
func (c *container) isFull() bool { return c.card == containerBits }

// full returns the canonical full container: one run covering everything.
func fullContainer() container {
	return container{typ: ctRun, card: containerBits, runs: []interval16{{0, containerBits - 1}}}
}

// get reports whether position x is set.
func (c *container) get(x uint16) bool {
	switch c.typ {
	case ctArray:
		i := sort.Search(len(c.arr), func(i int) bool { return c.arr[i] >= x })
		return i < len(c.arr) && c.arr[i] == x
	case ctBitmap:
		return c.bmp[x>>6]&(1<<(x&63)) != 0
	default:
		i := sort.Search(len(c.runs), func(i int) bool { return c.runs[i].hi >= x })
		return i < len(c.runs) && c.runs[i].lo <= x
	}
}

// set marks position x, promoting array→bitmap past arrayMaxCard. Runs
// are mutation-hostile: a set that changes anything converts to bitmap.
func (c *container) set(x uint16) {
	switch c.typ {
	case ctArray:
		n := len(c.arr)
		// Fast path: ascending insertion (index builds walk ordinals in
		// order), which keeps posting construction O(1) amortized.
		if n == 0 || c.arr[n-1] < x {
			c.arr = append(c.arr, x)
		} else {
			i := sort.Search(n, func(i int) bool { return c.arr[i] >= x })
			if i < n && c.arr[i] == x {
				return
			}
			c.arr = append(c.arr, 0)
			copy(c.arr[i+1:], c.arr[i:])
			c.arr[i] = x
		}
		c.card++
		if c.card > arrayMaxCard {
			c.toBitmap()
		}
	case ctBitmap:
		w := &c.bmp[x>>6]
		bit := uint64(1) << (x & 63)
		if *w&bit == 0 {
			*w |= bit
			c.card++
		}
	default:
		if c.get(x) {
			return
		}
		c.toBitmap()
		c.set(x)
	}
}

// toBitmap converts any container to bitmap form in place.
func (c *container) toBitmap() {
	if c.typ == ctBitmap {
		return
	}
	bmp := make([]uint64, containerWords)
	switch c.typ {
	case ctArray:
		for _, v := range c.arr {
			bmp[v>>6] |= 1 << (v & 63)
		}
	case ctRun:
		for _, r := range c.runs {
			fillWords(bmp, int(r.lo), int(r.hi)+1)
		}
	}
	c.typ, c.bmp, c.arr, c.runs = ctBitmap, bmp, nil, nil
}

// toArray converts any container to array form in place. The caller is
// responsible for card being array-sized.
func (c *container) toArray() {
	if c.typ == ctArray {
		return
	}
	arr := make([]uint16, 0, c.card)
	switch c.typ {
	case ctBitmap:
		for wi, w := range c.bmp {
			for w != 0 {
				arr = append(arr, uint16(wi<<6+bits.TrailingZeros64(w)))
				w &= w - 1
			}
		}
	case ctRun:
		for _, r := range c.runs {
			for v := int(r.lo); v <= int(r.hi); v++ {
				arr = append(arr, uint16(v))
			}
		}
	}
	c.typ, c.arr, c.bmp, c.runs = ctArray, arr, nil, nil
}

// optimize demotes a bitmap that has drifted into array range; used by
// kernels that compute cardinality anyway.
func (c *container) optimize() {
	if c.card == 0 {
		*c = container{}
		return
	}
	if c.typ == ctBitmap && c.card <= arrayMaxCard {
		c.toArray()
	}
}

// fillWords sets bits [lo, hi) of a word slice.
func fillWords(w []uint64, lo, hi int) {
	if lo >= hi {
		return
	}
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		w[loW] |= loMask & hiMask
		return
	}
	w[loW] |= loMask
	for i := loW + 1; i < hiW; i++ {
		w[i] = ^uint64(0)
	}
	w[hiW] |= hiMask
}

// zeroWords clears bits [lo, hi) of a word slice and returns how many set
// bits were removed.
func zeroWords(w []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	removed := 0
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	if loW == hiW {
		m := loMask & hiMask
		removed = bits.OnesCount64(w[loW] & m)
		w[loW] &^= m
		return removed
	}
	removed += bits.OnesCount64(w[loW] & loMask)
	w[loW] &^= loMask
	for i := loW + 1; i < hiW; i++ {
		removed += bits.OnesCount64(w[i])
		w[i] = 0
	}
	removed += bits.OnesCount64(w[hiW] & hiMask)
	w[hiW] &^= hiMask
	return removed
}

// words materializes the container as 1024 packed words. Bitmap
// containers return their own storage — callers must treat the result as
// read-only; the others render into scratch (which must hold 1024 words).
func (c *container) words(scratch []uint64) []uint64 {
	if c.typ == ctBitmap {
		return c.bmp
	}
	for i := range scratch {
		scratch[i] = 0
	}
	switch c.typ {
	case ctArray:
		for _, v := range c.arr {
			scratch[v>>6] |= 1 << (v & 63)
		}
	case ctRun:
		for _, r := range c.runs {
			fillWords(scratch, int(r.lo), int(r.hi)+1)
		}
	}
	return scratch
}

// arrRange returns an array container's members in [lo, hi).
func (c *container) arrRange(lo, hi int) []uint16 {
	i := sort.Search(len(c.arr), func(i int) bool { return int(c.arr[i]) >= lo })
	j := i + sort.Search(len(c.arr)-i, func(j int) bool { return int(c.arr[i+j]) >= hi })
	return c.arr[i:j]
}

// wordIn returns word wi of bmp with its bits outside [lo, hi) cleared.
func wordIn(bmp []uint64, wi, lo, hi int) uint64 {
	w := bmp[wi]
	if wi == lo>>6 {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if rem := uint(hi) & 63; wi == (hi-1)>>6 && rem != 0 {
		w &= (1 << rem) - 1
	}
	return w
}

// orShiftedInto ORs the container's positions [lo, hi), position p moved to
// p+s, into the 1,024 words ws; every moved position must fall inside them.
func (c *container) orShiftedInto(ws []uint64, lo, hi, s int) {
	switch c.typ {
	case ctArray:
		for _, v := range c.arrRange(lo, hi) {
			p := int(v) + s
			ws[p>>6] |= 1 << (p & 63)
		}
	case ctRun:
		for _, r := range c.runs {
			fillWords(ws, max(int(r.lo), lo)+s, min(int(r.hi)+1, hi)+s)
		}
	default:
		for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
			w := wordIn(c.bmp, wi, lo, hi)
			// w's bit 0 moves to p; below 0 (lw = -1) only masked-off bits land.
			p := wi<<6 + s
			lw, sh := p>>6, uint(p&63)
			if lw >= 0 {
				ws[lw] |= w << sh
			}
			if hw := w >> (64 - sh); hw != 0 { // 0 when sh is 0
				ws[lw+1] |= hw
			}
		}
	}
}

// fromWords returns the set held in the 1,024 words ws as a fresh
// container, sharing nothing with ws, in its smallest form.
func fromWords(ws []uint64) container {
	c := container{typ: ctBitmap, bmp: ws}
	for _, w := range ws {
		c.card += bits.OnesCount64(w)
	}
	if c.card == 0 {
		return container{}
	}
	switch typ, _ := c.smallestForm(); typ {
	case ctRun:
		return container{typ: ctRun, card: c.card, runs: c.toRuns()}
	case ctArray:
		c.toArray()
	default:
		c.bmp = append([]uint64(nil), ws...)
	}
	return c
}

// iterate calls fn(base+position) for every set position in ascending
// order; a false return stops the walk and propagates.
func (c *container) iterate(base int, fn func(int) bool) bool {
	switch c.typ {
	case ctArray:
		for _, v := range c.arr {
			if !fn(base + int(v)) {
				return false
			}
		}
	case ctBitmap:
		for wi, w := range c.bmp {
			for w != 0 {
				if !fn(base + wi<<6 + bits.TrailingZeros64(w)) {
					return false
				}
				w &= w - 1
			}
		}
	default:
		for _, r := range c.runs {
			for v := int(r.lo); v <= int(r.hi); v++ {
				if !fn(base + v) {
					return false
				}
			}
		}
	}
	return true
}

// anyInRange reports whether any position in [lo, hi) is set.
func (c *container) anyInRange(lo, hi int) bool {
	if lo >= hi || c.card == 0 {
		return false
	}
	if lo == 0 && hi == containerBits {
		return true
	}
	switch c.typ {
	case ctArray:
		return len(c.arrRange(lo, hi)) > 0
	case ctBitmap:
		for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
			if wordIn(c.bmp, wi, lo, hi) != 0 {
				return true
			}
		}
		return false
	default:
		i := sort.Search(len(c.runs), func(i int) bool { return int(c.runs[i].hi) >= lo })
		return i < len(c.runs) && int(c.runs[i].lo) < hi
	}
}

// --- pairwise kernels --------------------------------------------------

// andContainers returns a ∩ b as a fresh container.
func andContainers(a, b *container) container {
	if a.card == 0 || b.card == 0 {
		return container{}
	}
	if a.isFull() {
		return b.clone()
	}
	if b.isFull() {
		return a.clone()
	}
	// Normalize so the dispatch below only sees (typ(a) ≤ typ(b)) pairs;
	// intersection is symmetric.
	if a.typ > b.typ {
		a, b = b, a
	}
	switch {
	case a.typ == ctArray && b.typ == ctArray:
		out := make([]uint16, 0, min(len(a.arr), len(b.arr)))
		i, j := 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] < b.arr[j]:
				i++
			case a.arr[i] > b.arr[j]:
				j++
			default:
				out = append(out, a.arr[i])
				i++
				j++
			}
		}
		return container{typ: ctArray, card: len(out), arr: out}
	case a.typ == ctArray: // array ∩ bitmap | array ∩ run
		out := make([]uint16, 0, len(a.arr))
		for _, v := range a.arr {
			if b.get(v) {
				out = append(out, v)
			}
		}
		return container{typ: ctArray, card: len(out), arr: out}
	case a.typ == ctBitmap && b.typ == ctBitmap:
		out := make([]uint64, containerWords)
		card := 0
		for i, w := range a.bmp {
			w &= b.bmp[i]
			out[i] = w
			card += bits.OnesCount64(w)
		}
		c := container{typ: ctBitmap, card: card, bmp: out}
		c.optimize()
		return c
	case a.typ == ctBitmap: // bitmap ∩ run
		out := make([]uint64, containerWords)
		card := 0
		for _, r := range b.runs {
			lo, hi := int(r.lo), int(r.hi)+1
			for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
				if w := wordIn(a.bmp, wi, lo, hi); w != 0 {
					prev := out[wi]
					out[wi] = prev | w
					card += bits.OnesCount64(w &^ prev)
				}
			}
		}
		c := container{typ: ctBitmap, card: card, bmp: out}
		c.optimize()
		return c
	default: // run ∩ run
		var out []interval16
		card := 0
		i, j := 0, 0
		for i < len(a.runs) && j < len(b.runs) {
			lo := maxU16(a.runs[i].lo, b.runs[j].lo)
			hi := minU16(a.runs[i].hi, b.runs[j].hi)
			if lo <= hi {
				out = append(out, interval16{lo, hi})
				card += int(hi) - int(lo) + 1
			}
			if a.runs[i].hi < b.runs[j].hi {
				i++
			} else {
				j++
			}
		}
		return container{typ: ctRun, card: card, runs: out}
	}
}

// orContainers returns a ∪ b as a fresh container.
func orContainers(a, b *container) container {
	if a.card == 0 {
		return b.clone()
	}
	if b.card == 0 {
		return a.clone()
	}
	if a.isFull() || b.isFull() {
		return fullContainer()
	}
	if a.typ > b.typ {
		a, b = b, a
	}
	switch {
	case a.typ == ctArray && b.typ == ctArray:
		out := make([]uint16, 0, len(a.arr)+len(b.arr))
		i, j := 0, 0
		for i < len(a.arr) && j < len(b.arr) {
			switch {
			case a.arr[i] < b.arr[j]:
				out = append(out, a.arr[i])
				i++
			case a.arr[i] > b.arr[j]:
				out = append(out, b.arr[j])
				j++
			default:
				out = append(out, a.arr[i])
				i++
				j++
			}
		}
		out = append(out, a.arr[i:]...)
		out = append(out, b.arr[j:]...)
		c := container{typ: ctArray, card: len(out), arr: out}
		if c.card > arrayMaxCard {
			c.toBitmap()
		}
		return c
	case a.typ == ctArray && b.typ == ctBitmap:
		c := b.clone()
		for _, v := range a.arr {
			w := &c.bmp[v>>6]
			bit := uint64(1) << (v & 63)
			if *w&bit == 0 {
				*w |= bit
				c.card++
			}
		}
		return c
	case a.typ == ctArray: // array ∪ run
		c := b.clone()
		c.toBitmap()
		for _, v := range a.arr {
			w := &c.bmp[v>>6]
			bit := uint64(1) << (v & 63)
			if *w&bit == 0 {
				*w |= bit
				c.card++
			}
		}
		return c
	case a.typ == ctBitmap && b.typ == ctBitmap:
		out := make([]uint64, containerWords)
		card := 0
		for i, w := range a.bmp {
			w |= b.bmp[i]
			out[i] = w
			card += bits.OnesCount64(w)
		}
		return container{typ: ctBitmap, card: card, bmp: out}
	case a.typ == ctBitmap: // bitmap ∪ run
		c := a.clone()
		for _, r := range b.runs {
			c.card += zeroFill(c.bmp, int(r.lo), int(r.hi)+1)
		}
		return c
	default: // run ∪ run
		out := mergeRuns(a.runs, b.runs)
		card := 0
		for _, r := range out {
			card += int(r.hi) - int(r.lo) + 1
		}
		if card == containerBits {
			return fullContainer()
		}
		return container{typ: ctRun, card: card, runs: out}
	}
}

// zeroFill sets bits [lo, hi) of w and returns how many were newly set.
func zeroFill(w []uint64, lo, hi int) int {
	if lo >= hi {
		return 0
	}
	added := 0
	loW, hiW := lo>>6, (hi-1)>>6
	loMask := ^uint64(0) << (uint(lo) & 63)
	hiMask := ^uint64(0) >> (63 - (uint(hi-1) & 63))
	apply := func(wi int, m uint64) {
		added += bits.OnesCount64(m &^ w[wi])
		w[wi] |= m
	}
	if loW == hiW {
		apply(loW, loMask&hiMask)
		return added
	}
	apply(loW, loMask)
	for i := loW + 1; i < hiW; i++ {
		apply(i, ^uint64(0))
	}
	apply(hiW, hiMask)
	return added
}

// mergeRuns unions two canonical run lists into a canonical one
// (adjacent and overlapping runs coalesce).
func mergeRuns(a, b []interval16) []interval16 {
	out := make([]interval16, 0, len(a)+len(b))
	i, j := 0, 0
	push := func(r interval16) {
		if n := len(out); n > 0 && int(r.lo) <= int(out[n-1].hi)+1 {
			if r.hi > out[n-1].hi {
				out[n-1].hi = r.hi
			}
			return
		}
		out = append(out, r)
	}
	for i < len(a) || j < len(b) {
		if j >= len(b) || (i < len(a) && a[i].lo <= b[j].lo) {
			push(a[i])
			i++
		} else {
			push(b[j])
			j++
		}
	}
	return out
}

// andNotContainers returns a \ b as a fresh container.
func andNotContainers(a, b *container) container {
	if a.card == 0 || b.isFull() {
		return container{}
	}
	if b.card == 0 {
		return a.clone()
	}
	switch a.typ {
	case ctArray:
		out := make([]uint16, 0, len(a.arr))
		for _, v := range a.arr {
			if !b.get(v) {
				out = append(out, v)
			}
		}
		return container{typ: ctArray, card: len(out), arr: out}
	case ctBitmap:
		c := a.clone()
		switch b.typ {
		case ctArray:
			for _, v := range b.arr {
				w := &c.bmp[v>>6]
				bit := uint64(1) << (v & 63)
				if *w&bit != 0 {
					*w &^= bit
					c.card--
				}
			}
		case ctBitmap:
			card := 0
			for i := range c.bmp {
				c.bmp[i] &^= b.bmp[i]
				card += bits.OnesCount64(c.bmp[i])
			}
			c.card = card
		default:
			for _, r := range b.runs {
				c.card -= zeroWords(c.bmp, int(r.lo), int(r.hi)+1)
			}
		}
		c.optimize()
		return c
	default: // run \ x: go through bitmap form
		c := a.clone()
		c.toBitmap()
		return andNotContainers(&c, b)
	}
}

// notContainer complements c within its first `bits` positions (bits is
// containerBits except for the capacity-truncated tail container).
func notContainer(c *container, numBits int) container {
	if numBits <= 0 {
		return container{}
	}
	switch c.typ {
	case ctArray:
		if c.card == 0 {
			if numBits == containerBits {
				return fullContainer()
			}
			return container{typ: ctRun, card: numBits, runs: []interval16{{0, uint16(numBits - 1)}}}
		}
		if c.card <= notRunMaxCard {
			// Sparse complement: the gaps between members form few runs.
			out := make([]interval16, 0, c.card+1)
			card := 0
			next := 0
			for _, v := range c.arr {
				if int(v) >= numBits {
					break
				}
				if next < int(v) {
					out = append(out, interval16{uint16(next), v - 1})
					card += int(v) - next
				}
				next = int(v) + 1
			}
			if next < numBits {
				out = append(out, interval16{uint16(next), uint16(numBits - 1)})
				card += numBits - next
			}
			return container{typ: ctRun, card: card, runs: out}
		}
		fallthrough
	default:
		tmp := c.clone()
		tmp.toBitmap()
		card := 0
		for i := range tmp.bmp {
			tmp.bmp[i] = ^tmp.bmp[i]
		}
		maskTailWords(tmp.bmp, numBits)
		for _, w := range tmp.bmp {
			card += bits.OnesCount64(w)
		}
		tmp.card = card
		tmp.optimize()
		return tmp
	}
}

// maskTailWords zeroes every bit at or above position numBits.
func maskTailWords(w []uint64, numBits int) {
	if numBits >= containerBits {
		return
	}
	wi := numBits >> 6
	if rem := uint(numBits) & 63; rem != 0 {
		w[wi] &= (1 << rem) - 1
		wi++
	}
	for ; wi < len(w); wi++ {
		w[wi] = 0
	}
}

// eqContainers reports whether two containers hold the same set.
func eqContainers(a, b *container) bool {
	if a.card != b.card {
		return false
	}
	if a.card == 0 {
		return true
	}
	if a.typ == b.typ {
		switch a.typ {
		case ctArray:
			for i, v := range a.arr {
				if b.arr[i] != v {
					return false
				}
			}
			return true
		case ctBitmap:
			for i, w := range a.bmp {
				if b.bmp[i] != w {
					return false
				}
			}
			return true
		default:
			// Run lists are canonical (sorted, coalesced), so equal sets
			// have identical runs.
			if len(a.runs) != len(b.runs) {
				return false
			}
			for i, r := range a.runs {
				if b.runs[i] != r {
					return false
				}
			}
			return true
		}
	}
	eq := true
	a.iterate(0, func(i int) bool {
		if !b.get(uint16(i)) {
			eq = false
			return false
		}
		return true
	})
	return eq
}

// numRuns counts the runs of consecutive set bits — the run-encoding size
// driver — without materializing anything.
func (c *container) numRuns() int {
	switch c.typ {
	case ctRun:
		return len(c.runs)
	case ctArray:
		n := 0
		for i, v := range c.arr {
			if i == 0 || v != c.arr[i-1]+1 {
				n++
			}
		}
		return n
	default:
		n := 0
		var prev uint64 // bit 63 of the previous word
		for _, w := range c.bmp {
			// A run starts at every 0→1 transition.
			n += bits.OnesCount64(w &^ (w<<1 | prev))
			prev = w >> 63
		}
		return n
	}
}

// toRuns renders the container as a canonical run list.
func (c *container) toRuns() []interval16 {
	switch c.typ {
	case ctRun:
		return c.runs
	case ctArray:
		var out []interval16
		for _, v := range c.arr {
			if n := len(out); n > 0 && out[n-1].hi+1 == v {
				out[n-1].hi = v
			} else {
				out = append(out, interval16{v, v})
			}
		}
		return out
	default:
		var out []interval16
		open := -1
		// One trailing zero word acts as a sentinel closing a run that
		// reaches position 65535.
		for wi := 0; wi <= containerWords; wi++ {
			var w uint64
			if wi < containerWords {
				w = c.bmp[wi]
			}
			base := wi << 6
			for pos := 0; pos < 64; {
				if open < 0 {
					ww := w >> uint(pos)
					if ww == 0 {
						break
					}
					pos += bits.TrailingZeros64(ww)
					open = base + pos
				} else {
					ww := ^w >> uint(pos)
					if ww == 0 {
						break // run spans the rest of this word
					}
					pos += bits.TrailingZeros64(ww)
					out = append(out, interval16{uint16(open), uint16(base + pos - 1)})
					open = -1
				}
			}
		}
		return out
	}
}

func minU16(a, b uint16) uint16 {
	if a < b {
		return a
	}
	return b
}

func maxU16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}
