package store

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Bitset wire codec.
//
// The wire form opens with a 0x00 tag byte, then the bit capacity as a
// uvarint, then one record per 65,536-bit container (an empty set of
// capacity 0 is the two bytes 00 00). Each
// container is written in whichever physical encoding is smallest for its
// contents — the wire form need not match the in-memory form:
//
//	0x00  empty   (no payload)
//	0x01  array   uvarint cardinality, then sorted uint16 positions (LE)
//	0x02  bitmap  1024 words = 8192 bytes (LE)
//	0x03  run     uvarint run count, then [lo, hi] uint16 pairs (LE)
//
// There is no other form: coordinator and shard servers ship as one
// binary, so UnmarshalBinary refuses a payload that lacks the tag.

// Wire container types.
const (
	wireEmpty  = 0x00
	wireArray  = 0x01
	wireBitmap = 0x02
	wireRun    = 0x03
)

const bitmapWireBytes = containerWords * 8

// ContainerStats describes the physical composition of a bitset (or, when
// aggregated with Add, of a whole index): how many containers of each
// kind it holds and how many bytes its wire encoding takes. Snapshot
// inspection reports these per shard so compression wins are observable.
type ContainerStats struct {
	Containers  int // total 65,536-bit chunks
	Empties     int
	Arrays      int
	Bitmaps     int
	Runs        int
	Cardinality int // total set bits
	WireBytes   int // size under MarshalBinary (smallest encoding per chunk)
}

// Add accumulates other into s.
func (s *ContainerStats) Add(other ContainerStats) {
	s.Containers += other.Containers
	s.Empties += other.Empties
	s.Arrays += other.Arrays
	s.Bitmaps += other.Bitmaps
	s.Runs += other.Runs
	s.Cardinality += other.Cardinality
	s.WireBytes += other.WireBytes
}

// ContainerStats reports the bitset's physical composition. The per-kind
// counts reflect the wire encoding MarshalBinary would choose — the
// number snapshot readers will observe — not the transient in-memory form.
func (b *Bitset) ContainerStats() ContainerStats {
	st := ContainerStats{
		Containers: len(b.cs),
		WireBytes:  1 + uvarintLen(uint64(b.n)),
	}
	for i := range b.cs {
		c := &b.cs[i]
		st.Cardinality += c.card
		if c.card == 0 {
			st.Empties++
			st.WireBytes++
			continue
		}
		switch typ, nr := c.smallestForm(); typ {
		case ctRun:
			st.Runs++
			st.WireBytes += 1 + uvarintLen(uint64(nr)) + 4*nr
		case ctArray:
			st.Arrays++
			st.WireBytes += 1 + uvarintLen(uint64(c.card)) + 2*c.card
		default:
			st.Bitmaps++
			st.WireBytes += 1 + bitmapWireBytes
		}
	}
	return st
}

// smallestForm returns the form whose encoding is smallest for the
// non-empty container c — run, array or bitmap — and c's run count: the
// form MarshalBinary writes and a gathered container takes.
func (c *container) smallestForm() (typ uint8, runs int) {
	nr := c.numRuns()
	switch {
	case 4*nr < 2*c.card && 4*nr < bitmapWireBytes:
		return ctRun, nr
	case 2*c.card <= bitmapWireBytes:
		return ctArray, nr
	}
	return ctBitmap, nr
}

// uvarintLen returns the encoded size of x as a uvarint.
func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// MarshalBinary encodes the bitset for the shard wire protocol and the
// snapshot postings block, choosing the smallest container encoding.
func (b *Bitset) MarshalBinary() ([]byte, error) {
	out := make([]byte, 0, 16+len(b.cs))
	out = append(out, wireEmpty) // format tag
	out = binary.AppendUvarint(out, uint64(b.n))
	var scratch []uint64
	for i := range b.cs {
		c := &b.cs[i]
		if c.card == 0 {
			out = append(out, wireEmpty)
			continue
		}
		switch typ, nr := c.smallestForm(); typ {
		case ctRun:
			runs := c.toRuns(nr)
			out = append(out, wireRun)
			out = binary.AppendUvarint(out, uint64(len(runs)))
			for _, r := range runs {
				out = binary.LittleEndian.AppendUint16(out, r.lo)
				out = binary.LittleEndian.AppendUint16(out, r.hi)
			}
		case ctArray:
			out = append(out, wireArray)
			out = binary.AppendUvarint(out, uint64(c.card))
			if c.typ == ctArray {
				for _, v := range c.arr {
					out = binary.LittleEndian.AppendUint16(out, v)
				}
			} else {
				c.iterate(0, func(v int) bool {
					out = binary.LittleEndian.AppendUint16(out, uint16(v))
					return true
				})
			}
		default:
			if scratch == nil {
				scratch = make([]uint64, containerWords)
			}
			out = append(out, wireBitmap)
			for _, w := range c.words(scratch) {
				out = binary.LittleEndian.AppendUint64(out, w)
			}
		}
	}
	return out, nil
}

// UnmarshalBinary decodes a bitset written by MarshalBinary. Every length
// is validated against the bytes actually present, every container
// against its capacity span, so a truncated or hostile payload errors
// instead of allocating from a lie or leaking bits beyond the declared
// capacity.
func (b *Bitset) UnmarshalBinary(data []byte) error {
	if len(data) == 0 || data[0] != wireEmpty {
		return fmt.Errorf("store: bitset: missing format tag")
	}
	data = data[1:]
	n, k := binary.Uvarint(data)
	if k <= 0 {
		return fmt.Errorf("store: bitset: truncated capacity")
	}
	data = data[k:]
	// Each container record is at least one byte, which bounds the
	// decodable capacity by the payload size: a 2^63-bit claim can
	// neither overflow nor allocate.
	if n > uint64(len(data))*containerBits {
		return fmt.Errorf("store: bitset: capacity %d exceeds %d payload bytes", n, len(data))
	}
	nc := int((n + containerBits - 1) / containerBits)
	cs := make([]container, 0, nc)
	for ci := 0; ci < nc; ci++ {
		span := int(n) - ci<<16
		if span > containerBits {
			span = containerBits
		}
		c, rest, err := decodeContainer(data, span)
		if err != nil {
			return err
		}
		cs = append(cs, c)
		data = rest
	}
	if len(data) != 0 {
		return fmt.Errorf("store: bitset: %d trailing bytes", len(data))
	}
	b.n = int(n)
	b.cs = cs
	return nil
}

// decodeContainer decodes one container record, enforcing that every set
// position is below span (the container's share of the bit capacity).
func decodeContainer(data []byte, span int) (container, []byte, error) {
	if len(data) == 0 {
		return container{}, nil, fmt.Errorf("store: bitset: truncated container header")
	}
	typ, data := data[0], data[1:]
	switch typ {
	case wireEmpty:
		return container{}, data, nil
	case wireArray:
		card, k := binary.Uvarint(data)
		if k <= 0 || card == 0 || card > arrayMaxCard {
			return container{}, nil, fmt.Errorf("store: bitset: bad array cardinality %d", card)
		}
		data = data[k:]
		if len(data) < 2*int(card) {
			return container{}, nil, fmt.Errorf("store: bitset: array container needs %d bytes, have %d", 2*card, len(data))
		}
		arr := make([]uint16, card)
		for i := range arr {
			arr[i] = binary.LittleEndian.Uint16(data[2*i:])
			if i > 0 && arr[i] <= arr[i-1] {
				return container{}, nil, fmt.Errorf("store: bitset: array container not strictly increasing")
			}
		}
		if int(arr[card-1]) >= span {
			return container{}, nil, fmt.Errorf("store: bitset: set bits beyond capacity")
		}
		return container{typ: ctArray, card: int(card), arr: arr}, data[2*card:], nil
	case wireBitmap:
		if len(data) < bitmapWireBytes {
			return container{}, nil, fmt.Errorf("store: bitset: bitmap container needs %d bytes, have %d", bitmapWireBytes, len(data))
		}
		bmp := make([]uint64, containerWords)
		card := 0
		for i := range bmp {
			bmp[i] = binary.LittleEndian.Uint64(data[8*i:])
			card += bits.OnesCount64(bmp[i])
		}
		if span < containerBits {
			tail := append([]uint64(nil), bmp...)
			maskTailWords(tail, span)
			for i, w := range tail {
				if w != bmp[i] {
					return container{}, nil, fmt.Errorf("store: bitset: set bits beyond capacity")
				}
			}
		}
		c := container{typ: ctBitmap, card: card, bmp: bmp}
		c.optimize() // hostile encoders may ship sparse bitmaps; demote
		return c, data[bitmapWireBytes:], nil
	case wireRun:
		nr, k := binary.Uvarint(data)
		if k <= 0 || nr == 0 || nr > containerBits/2 {
			return container{}, nil, fmt.Errorf("store: bitset: bad run count %d", nr)
		}
		data = data[k:]
		if len(data) < 4*int(nr) {
			return container{}, nil, fmt.Errorf("store: bitset: run container needs %d bytes, have %d", 4*nr, len(data))
		}
		runs := make([]interval16, nr)
		card := 0
		for i := range runs {
			runs[i].lo = binary.LittleEndian.Uint16(data[4*i:])
			runs[i].hi = binary.LittleEndian.Uint16(data[4*i+2:])
			if runs[i].hi < runs[i].lo {
				return container{}, nil, fmt.Errorf("store: bitset: inverted run")
			}
			if i > 0 && runs[i].lo <= runs[i-1].hi {
				return container{}, nil, fmt.Errorf("store: bitset: overlapping runs")
			}
			card += int(runs[i].hi) - int(runs[i].lo) + 1
		}
		if int(runs[nr-1].hi) >= span {
			return container{}, nil, fmt.Errorf("store: bitset: set bits beyond capacity")
		}
		return container{typ: ctRun, card: card, runs: runs}, data[4*nr:], nil
	default:
		return container{}, nil, fmt.Errorf("store: bitset: unknown container type 0x%02x", typ)
	}
}
