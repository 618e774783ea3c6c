package store

// The v2 per-shard segment codec. Each shard of a sharded snapshot is one
// independently decodable byte segment holding a contiguous run of
// histories, encoded with hand-rolled varints instead of gob: entry
// structure is fixed, so skipping gob's per-value reflection and type
// descriptors makes decode several times faster — which is what lets a
// reopened 168k workbench beat the legacy single-gob load even before the
// per-shard decode fan-out kicks in (and codes are dictionary-compressed
// on first occurrence, so the segment is smaller too).
//
// Wire form of a segment (all integers varint unless noted):
//
//	historyCount
//	per history:
//	  patientID  birth(signed)  sex(byte)  municipality(signed)
//	  entryCount
//	  per entry (chronological):
//	    flags(byte)  id  startΔ(signed, from previous start)  endΔ(signed, from start)
//	    source(byte)  type(byte)
//	    [code: dictionary ref; first occurrence inlines system+value]
//	    [value float64] [aux float64] [text string]  — present per flags
//
// Decoding is defensive end to end: every count and string length is
// validated against the bytes remaining before any allocation, so a
// crafted segment (the checksum only protects against corruption, not a
// hostile writer) errors instead of panicking or ballooning memory.

import (
	"encoding/binary"
	"fmt"
	"math"

	"pastas/internal/model"
)

// Entry flag bits.
const (
	segInterval = 1 << iota
	segHasCode
	segHasValue
	segHasAux
	segHasText
	segOpenEnd
)

// Minimum encoded sizes, used to bound count-driven preallocation by the
// bytes actually present.
const (
	minHistoryBytes = 5 // id + birth + sex + municipality + entryCount
	minEntryBytes   = 6 // flags + id + startΔ + endΔ + source + type
)

// segWriter accumulates one shard segment.
type segWriter struct {
	buf   []byte
	codes map[model.Code]uint64 // dictionary: code -> first-occurrence index
}

func (w *segWriter) uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }
func (w *segWriter) svarint(v int64)  { w.buf = binary.AppendVarint(w.buf, v) }
func (w *segWriter) byte(b byte)      { w.buf = append(w.buf, b) }

func (w *segWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *segWriter) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// code writes a dictionary reference; the first occurrence of a code
// inlines its strings so the decoder grows the same table in step.
func (w *segWriter) code(c model.Code) {
	if idx, ok := w.codes[c]; ok {
		w.uvarint(idx)
		return
	}
	idx := uint64(len(w.codes))
	w.codes[c] = idx
	w.uvarint(idx)
	w.str(c.System)
	w.str(c.Value)
}

// encodeSegment serializes a contiguous run of histories. Entries are
// written in chronological order via SortedEntries, which never reorders
// the shared live slice (save is read-only; see the store.Save fix). The
// buffer is sized from the run's entry count: the synthetic population
// encodes in about 21 bytes per entry, so it rarely grows, and then once.
func encodeSegment(hs []*model.History) []byte {
	n := 0
	for _, h := range hs {
		n += h.Len()
	}
	w := &segWriter{
		buf:   make([]byte, 0, 16*len(hs)+24*n),
		codes: make(map[model.Code]uint64),
	}
	w.uvarint(uint64(len(hs)))
	for _, h := range hs {
		p := h.Patient
		w.uvarint(uint64(p.ID))
		w.svarint(int64(p.Birth))
		w.byte(byte(p.Sex))
		w.svarint(int64(p.Municipality))
		entries := h.SortedEntries()
		w.uvarint(uint64(len(entries)))
		prev := int64(0)
		for i := range entries {
			e := &entries[i]
			var flags byte
			if e.Kind == model.Interval {
				flags |= segInterval
			}
			if !e.Code.IsZero() {
				flags |= segHasCode
			}
			// Presence is decided at the bit level so -0.0 (whose bits are
			// non-zero but which compares equal to 0) round-trips exactly.
			if math.Float64bits(e.Value) != 0 {
				flags |= segHasValue
			}
			if math.Float64bits(e.Aux) != 0 {
				flags |= segHasAux
			}
			if e.Text != "" {
				flags |= segHasText
			}
			if e.OpenEnd {
				flags |= segOpenEnd
			}
			w.byte(flags)
			w.uvarint(e.ID)
			w.svarint(int64(e.Start) - prev)
			prev = int64(e.Start)
			w.svarint(int64(e.End) - int64(e.Start))
			w.byte(byte(e.Source))
			w.byte(byte(e.Type))
			if flags&segHasCode != 0 {
				w.code(e.Code)
			}
			if flags&segHasValue != 0 {
				w.f64(e.Value)
			}
			if flags&segHasAux != 0 {
				w.f64(e.Aux)
			}
			if flags&segHasText != 0 {
				w.str(e.Text)
			}
		}
	}
	return w.buf
}

// segReader walks a segment with sticky error state; every read is
// bounds-checked so corrupt input can never index past the buffer.
type segReader struct {
	buf []byte
	off int
	err error
	// texts holds one copy of each distinct entry text read so far; it is
	// made on the first text.
	texts map[string]string
}

func (r *segReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *segReader) rem() int { return len(r.buf) - r.off }

func (r *segReader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) svarint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		r.fail("truncated varint at offset %d", r.off)
		return 0
	}
	r.off += n
	return v
}

func (r *segReader) byte() byte {
	if r.err != nil {
		return 0
	}
	if r.off >= len(r.buf) {
		r.fail("truncated byte at offset %d", r.off)
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// field reads a length-prefixed byte string, aliasing the buffer.
func (r *segReader) field() []byte {
	n := r.uvarint()
	if r.err != nil {
		return nil
	}
	if n > uint64(r.rem()) {
		r.fail("string length %d exceeds %d remaining bytes", n, r.rem())
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

func (r *segReader) str() string { return string(r.field()) }

// text reads a string like str, but returns the segment's one copy of it:
// the lookup converts without allocating, so only a text's first
// occurrence allocates.
func (r *segReader) text() string {
	b := r.field()
	if s, ok := r.texts[string(b)]; ok {
		return s
	}
	if r.texts == nil {
		r.texts = make(map[string]string)
	}
	s := string(b)
	r.texts[s] = s
	return s
}

func (r *segReader) f64() float64 {
	if r.err != nil {
		return 0
	}
	if r.rem() < 8 {
		r.fail("truncated float at offset %d", r.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	return v
}

// decodeSegment parses one shard segment back into histories. wantHist is
// the history count the snapshot header promised for this shard; a
// mismatch is a hard error so the header and payload can never disagree
// silently. Returns the histories and the total entry count.
func decodeSegment(buf []byte, wantHist int) ([]*model.History, int, error) {
	r := &segReader{buf: buf}
	nh := r.uvarint()
	if r.err != nil {
		return nil, 0, r.err
	}
	if nh != uint64(wantHist) {
		return nil, 0, fmt.Errorf("segment holds %d histories, header promised %d", nh, wantHist)
	}
	if nh > uint64(r.rem()/minHistoryBytes)+1 {
		return nil, 0, fmt.Errorf("history count %d exceeds segment size %d", nh, len(buf))
	}
	var codes []model.Code
	hs := make([]*model.History, 0, nh)
	totalEntries := 0
	for i := uint64(0); i < nh; i++ {
		p := model.Patient{
			ID:           model.PatientID(r.uvarint()),
			Birth:        model.Time(r.svarint()),
			Sex:          model.Sex(r.byte()),
			Municipality: int(r.svarint()),
		}
		ne := r.uvarint()
		if r.err != nil {
			return nil, 0, r.err
		}
		if ne > uint64(r.rem()/minEntryBytes)+1 {
			return nil, 0, fmt.Errorf("history %s: entry count %d exceeds %d remaining bytes", p.ID, ne, r.rem())
		}
		entries := make([]model.Entry, ne)
		prev := int64(0)
		for j := range entries {
			e := &entries[j]
			flags := r.byte()
			e.ID = r.uvarint()
			start := prev + r.svarint()
			prev = start
			e.Start = model.Time(start)
			e.End = model.Time(start + r.svarint())
			e.Source = model.Source(r.byte())
			e.Type = model.Type(r.byte())
			if flags&segInterval != 0 {
				e.Kind = model.Interval
			}
			if flags&segHasCode != 0 {
				idx := r.uvarint()
				switch {
				case r.err != nil:
				case idx < uint64(len(codes)):
					e.Code = codes[idx]
				case idx == uint64(len(codes)):
					e.Code = model.Code{System: r.str(), Value: r.str()}
					codes = append(codes, e.Code)
				default:
					r.fail("code index %d ahead of dictionary size %d", idx, len(codes))
				}
			}
			if flags&segHasValue != 0 {
				e.Value = r.f64()
			}
			if flags&segHasAux != 0 {
				e.Aux = r.f64()
			}
			if flags&segHasText != 0 {
				e.Text = r.text()
			}
			e.OpenEnd = flags&segOpenEnd != 0
			if r.err != nil {
				return nil, 0, r.err
			}
		}
		totalEntries += len(entries)
		hs = append(hs, model.RestoreHistory(p, entries))
	}
	if r.rem() != 0 {
		return nil, 0, fmt.Errorf("%d trailing bytes after last history", r.rem())
	}
	return hs, totalEntries, nil
}
