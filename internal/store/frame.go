package store

import (
	"math/bits"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pastas/internal/model"
	"pastas/internal/terminology"
)

// The analysis frame: a revision's histories as the scans and analyzer
// kinds read them. A model.Entry is 96 bytes behind two pointers, and a
// cohort is a percent of the population, so a pass over histories is one
// cold pointer chase per patient and another per entry slice. The frame
// holds the same entries as 24-byte pointer-free cells in one slab, in
// SortedEntries order, with the codes interned into a dictionary that
// resolves each code's chapter once. A field only some readers test is a
// column of its own — the values beside the cells, births and sexes beside
// the 12-byte run locators — so an age band streams 8 bytes a patient. It
// is derived state: built lazily by the first scan or analysis of a
// revision, carried forward by Append, never saved. Index-answered counts
// and refines never build it.

// Cell is one history entry in the form scans and analyses read: every
// field a criterion or an analyzer tests except the text, which only the
// emergency flag summarizes, and the value, which is a column of its own
// (Frame.Values). Sixteen bytes of times, then the code id and four
// one-byte fields fill 24 bytes with no padding.
type Cell struct {
	Start, End int64  // model.Time ticks; End == Start for a point
	Code       uint32 // index into Frame.Codes; 0 = uncoded
	Kind       model.Kind
	Type       model.Type
	Source     model.Source
	Flags      uint8
}

// CellEmergency flags a GP contact whose text says legevakt or akutt.
const CellEmergency = 1

// FrameCode is one dictionary slot: the code and its chapter ("" when the
// terminology does not know it).
type FrameCode struct {
	model.Code
	Chapter string
}

// Label is the abstraction episodes and scenarios key a code by: its
// chapter, falling back to the raw value.
func (c *FrameCode) Label() string {
	if c.Chapter != "" {
		return c.Chapter
	}
	return c.Value
}

// Row is one history as a map step receives it.
type Row struct {
	Birth int64
	Sex   model.Sex
	Cells []Cell
}

// Frame is the analysis form of a run of histories. Codes[0] is the zero
// code. A Frame value is immutable once published.
type Frame struct {
	Codes []FrameCode

	rows   []frameRow  // rows[i] locates history i's cell run
	births []int64     // births[i] is history i's model.Patient.Birth
	sexes  []model.Sex // sexes[i] is history i's model.Patient.Sex
	chunks [][]Cell    // chunks[0] is the build's slab; Append adds one per batch
	values [][]float64 // values[k][j] is the model.Entry.Value of chunks[k][j]
	dict   *frameDict  // shared by the frames one carries into the next
	cells  int         // cells in all chunks, superseded runs included
	dead   int         // cells of runs an update superseded
}

// frameRow locates a history's cell run without a pointer, so the row
// table costs the garbage collector nothing to hold.
type frameRow struct{ chunk, off, n uint32 }

// Len is the number of histories framed.
func (f *Frame) Len() int { return len(f.rows) }

// Row returns history i; a reader of one column calls its accessor.
func (f *Frame) Row(i int) Row {
	return Row{Birth: f.Birth(i), Sex: f.Sex(i), Cells: f.Cells(i)}
}

// Birth, Sex and Cells each read one column of history i. They are small
// enough to inline, so a reader pays for the columns it tests and builds
// no Row.
func (f *Frame) Birth(i int) int64 { return f.births[i] }

// Sex is history i's patient sex.
func (f *Frame) Sex(i int) model.Sex { return f.sexes[i] }

// Cells is history i's cell run, in SortedEntries order; the caller must
// not write it.
func (f *Frame) Cells(i int) []Cell {
	r := &f.rows[i]
	return f.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// Values is history i's value column, parallel to Cells(i); the caller
// must not write it.
func (f *Frame) Values(i int) []float64 {
	r := &f.rows[i]
	return f.values[r.chunk][r.off : r.off+r.n : r.off+r.n]
}

// ValueBand is the word kernel of a scan's value band: bit k of the result
// is set iff it is set in cand and row base+k holds at least need values
// in [lo, hi]. It reads the run locators and the value column, nothing else.
func (f *Frame) ValueBand(base int, cand uint64, need int, lo, hi float64) uint64 {
	rows, vals := f.rows[base:], f.values
	for w := cand; w != 0; w &= w - 1 {
		k, seen := bits.TrailingZeros64(w), 0
		r := &rows[k]
		for _, v := range vals[r.chunk][r.off : r.off+r.n] {
			if v >= lo && v <= hi {
				if seen++; seen >= need {
					break
				}
			}
		}
		if seen < need {
			cand &^= 1 << k
		}
	}
	return cand
}

// denseWord is the candidate count from which a demographic kernel tests
// all 64 rows of a word without a branch rather than walk its members: at
// about half a word (a 50 % match rate) the two cost the same.
const denseWord = 32

// AgeBand is the word kernel of an age band: bit k of the result is set
// iff it is set in cand and d = at − birth, wrapping as Patient.AgeAt
// subtracts, lies in [lo, lo+span−1] for row base+k — one unsigned
// compare, uint64(d − lo) < span. An age band [Lo, Hi] is lo = Lo·Year,
// span = (Hi−Lo+1)·Year: floor(d/Year) ≥ Lo ⇔ d ≥ Lo·Year. It reads the
// births, nothing else.
func (f *Frame) AgeBand(base int, cand uint64, at, lo int64, span uint64) uint64 {
	births, ref := f.births[base:], at-lo // at−b−lo is ref−b, wrapping alike
	if len(births) >= 64 && bits.OnesCount64(cand) >= denseWord {
		var in uint64
		for k, b := range births[:64] {
			_, below := bits.Sub64(uint64(ref-b), span, 0)
			in |= below << k
		}
		return cand & in
	}
	for w := cand; w != 0; w &= w - 1 {
		if k := bits.TrailingZeros64(w); uint64(ref-births[k]) >= span {
			cand &^= 1 << k
		}
	}
	return cand
}

// SexIs is the word kernel of a sex criterion, AgeBand's shape over the
// sex column: bit k of the result is set iff it is set in cand and row
// base+k's sex is sex.
func (f *Frame) SexIs(base int, cand uint64, sex model.Sex) uint64 {
	sexes := f.sexes[base:]
	if len(sexes) >= 64 && bits.OnesCount64(cand) >= denseWord {
		var in uint64
		for k, s := range sexes[:64] {
			in |= (uint64(s^sex) - 1) >> 63 << k // 1 iff s == sex
		}
		return cand & in
	}
	for w := cand; w != 0; w &= w - 1 {
		if k := bits.TrailingZeros64(w); sexes[k] != sex {
			cand &^= 1 << k
		}
	}
	return cand
}

// frameDict interns codes. Only the build and, under the store's write
// lock, Append's carry-forward touch it; a published frame reads the
// prefix of codes its Codes slice header covers, which later insertions
// never rewrite.
type frameDict struct {
	codes []FrameCode
	ids   map[model.Code]uint32
}

func newFrameDict() *frameDict {
	return &frameDict{codes: make([]FrameCode, 1), ids: make(map[model.Code]uint32)}
}

func (d *frameDict) id(c model.Code) uint32 {
	if c.IsZero() {
		return 0
	}
	id, ok := d.ids[c]
	if !ok {
		id = uint32(len(d.codes))
		d.ids[c] = id
		chapter := ""
		if cs := terminology.For(terminology.System(c.System)); cs != nil {
			chapter = cs.Chapter(c.Value)
		}
		d.codes = append(d.codes, FrameCode{Code: c, Chapter: chapter})
	}
	return id
}

// appendCells frames one history onto dst and vals, in SortedEntries order.
func (d *frameDict) appendCells(dst []Cell, vals []float64, h *model.History) ([]Cell, []float64) {
	entries := h.SortedEntries()
	for i := range entries {
		e := &entries[i]
		c := Cell{Start: int64(e.Start), End: int64(e.Start), Code: d.id(e.Code),
			Kind: e.Kind, Type: e.Type, Source: e.Source}
		if e.Kind != model.Point {
			c.End = int64(e.End)
		}
		if e.Type == model.TypeContact && e.Source == model.SourceGP &&
			(strings.Contains(e.Text, "legevakt") || strings.Contains(e.Text, "akutt")) {
			c.Flags = CellEmergency
		}
		dst, vals = append(dst, c), append(vals, e.Value)
	}
	return dst, vals
}

// frameInto frames h as row i, its cells at the end of the frame's newest
// chunk, which the caller sized for it.
func (f *Frame) frameInto(i int, h *model.History) {
	k := len(f.chunks) - 1
	off := len(f.chunks[k])
	f.chunks[k], f.values[k] = f.dict.appendCells(f.chunks[k], f.values[k], h)
	f.rows[i] = frameRow{chunk: uint32(k), off: uint32(off), n: uint32(len(f.chunks[k]) - off)}
	f.births[i], f.sexes[i] = int64(h.Patient.Birth), h.Patient.Sex
}

// newRows sizes a frame's three per-row arrays for n histories.
func (f *Frame) newRows(n int) {
	f.rows, f.births, f.sexes = make([]frameRow, n), make([]int64, n), make([]model.Sex, n)
}

// BuildFrame frames the histories into one exactly-sized slab.
func BuildFrame(hists []*model.History) *Frame {
	total := 0
	for _, h := range hists {
		total += len(h.Entries)
	}
	f := &Frame{chunks: [][]Cell{make([]Cell, 0, total)},
		values: [][]float64{make([]float64, 0, total)}, dict: newFrameDict(), cells: total}
	f.newRows(len(hists))
	for i, h := range hists {
		f.frameInto(i, h)
	}
	f.Codes = f.dict.codes
	return f
}

// FrameHistory frames a single history — the adapter under the exported
// *model.History forms of the analyzer kernels.
func FrameHistory(h *model.History) (Row, []FrameCode) {
	f := BuildFrame([]*model.History{h})
	return f.Row(0), f.Codes
}

// carry is the frame of the revision an Append publishes: the per-row
// arrays are copied, as hists is, only the touched ordinals (updated or new) are
// framed again, into one new chunk per column, and every other run is
// shared. It returns nil once superseded runs outweigh the live ones, so a
// store under sustained updates pays one rebuild per doubling, not a leak.
func (f *Frame) carry(hists []*model.History, touched []int) *Frame {
	slices.Sort(touched)
	touched = slices.Compact(touched)
	fresh, dead := 0, f.dead
	for _, i := range touched {
		fresh += len(hists[i].Entries)
		if i < len(f.rows) {
			dead += int(f.rows[i].n)
		}
	}
	if 2*dead > f.cells+fresh {
		return nil
	}
	next := &Frame{dict: f.dict, cells: f.cells + fresh, dead: dead,
		chunks: append(f.chunks[:len(f.chunks):len(f.chunks)], make([]Cell, 0, fresh)),
		values: append(f.values[:len(f.values):len(f.values)], make([]float64, 0, fresh))}
	next.newRows(len(hists))
	copy(next.rows, f.rows)
	copy(next.births, f.births)
	copy(next.sexes, f.sexes)
	for _, i := range touched {
		next.frameInto(i, hists[i])
	}
	next.Codes = f.dict.codes
	return next
}

// frameHolder builds a revision's frame on first use. Revisions with the
// same histories share one holder, so Compact neither rebuilds a frame nor
// reads one that is still being built.
type frameHolder struct {
	mu sync.Mutex
	f  atomic.Pointer[Frame]
}

func (h *frameHolder) get(hists []*model.History) *Frame {
	if f := h.f.Load(); f != nil {
		return f
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	f := h.f.Load()
	if f == nil {
		f = BuildFrame(hists)
		h.f.Store(f)
	}
	return f
}

// carry is the holder of the next revision: holding the carried frame when
// this one is built, empty (build on first use) when it is not.
func (h *frameHolder) carry(hists []*model.History, touched []int) *frameHolder {
	next := new(frameHolder)
	if f := h.f.Load(); f != nil {
		next.f.Store(f.carry(hists, touched))
	}
	return next
}

// Frame returns the analysis frame of the view's histories, building the
// revision's on first use.
func (v *View) Frame() Frame {
	f := *v.r.frame.get(v.r.hists)
	f.rows, f.births, f.sexes = f.rows[v.lo:v.hi], f.births[v.lo:v.hi], f.sexes[v.lo:v.hi]
	return f
}
