package store

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"pastas/internal/model"
	"pastas/internal/terminology"
)

// The analysis frame: a revision's histories as the analyzer kinds read
// them. A model.Entry is 96 bytes behind two pointers, and a cohort is a
// percent of the population, so a map step over histories is one cold
// pointer chase per patient and another per entry slice. The frame holds
// the same entries as 24-byte pointer-free cells in one slab, in
// SortedEntries order, with the codes interned into a dictionary that
// resolves each code's chapter once. It is derived state: built lazily by
// the first analysis of a revision, carried forward by Append, never
// saved, and never built by a path that only counts, refines or draws.

// Cell is one history entry in analysis form.
type Cell struct {
	Start, End int64  // model.Time ticks; End == Start unless Kind is Interval
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

	rows   []frameRow
	chunks [][]Cell   // chunks[0] is the build's slab; Append adds one per batch
	dict   *frameDict // shared by the frames one carries into the next
	cells  int        // cells in all chunks, superseded runs included
	dead   int        // cells of runs an update superseded
}

// frameRow locates a history's cell run without a pointer, so the row
// table costs the garbage collector nothing to hold.
type frameRow struct {
	birth         int64
	chunk, off, n uint32
	sex           model.Sex
}

// Len is the number of histories framed.
func (f *Frame) Len() int { return len(f.rows) }

// Row returns history i.
func (f *Frame) Row(i int) Row {
	r := &f.rows[i]
	return Row{Birth: r.birth, Sex: r.sex, Cells: f.chunks[r.chunk][r.off : r.off+r.n : r.off+r.n]}
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

// appendCells frames one history onto dst, in SortedEntries order.
func (d *frameDict) appendCells(dst []Cell, h *model.History) []Cell {
	entries := h.SortedEntries()
	for i := range entries {
		e := &entries[i]
		c := Cell{Start: int64(e.Start), End: int64(e.Start), Code: d.id(e.Code),
			Kind: e.Kind, Type: e.Type, Source: e.Source}
		if e.Kind == model.Interval {
			c.End = int64(e.End)
		}
		if e.Type == model.TypeContact && e.Source == model.SourceGP &&
			(strings.Contains(e.Text, "legevakt") || strings.Contains(e.Text, "akutt")) {
			c.Flags = CellEmergency
		}
		dst = append(dst, c)
	}
	return dst
}

// frameInto frames h at the end of the frame's newest chunk, which the
// caller sized for it.
func (f *Frame) frameInto(h *model.History) frameRow {
	k := len(f.chunks) - 1
	off := len(f.chunks[k])
	f.chunks[k] = f.dict.appendCells(f.chunks[k], h)
	return frameRow{birth: int64(h.Patient.Birth), sex: h.Patient.Sex,
		chunk: uint32(k), off: uint32(off), n: uint32(len(f.chunks[k]) - off)}
}

// BuildFrame frames the histories into one exactly-sized slab.
func BuildFrame(hists []*model.History) *Frame {
	total := 0
	for _, h := range hists {
		total += len(h.Entries)
	}
	f := &Frame{rows: make([]frameRow, len(hists)), chunks: [][]Cell{make([]Cell, 0, total)},
		dict: newFrameDict(), cells: total}
	for i, h := range hists {
		f.rows[i] = f.frameInto(h)
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

// carry is the frame of the revision an Append publishes: the row table
// is copied, as hists is, only the touched ordinals (updated or new) are
// framed again, into one new chunk, and every other cell run is shared. It
// returns nil once superseded runs outweigh the live ones, so a store
// under sustained updates pays one rebuild per doubling, not a leak.
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
	next := &Frame{rows: make([]frameRow, len(hists)), dict: f.dict, cells: f.cells + fresh, dead: dead,
		chunks: append(f.chunks[:len(f.chunks):len(f.chunks)], make([]Cell, 0, fresh))}
	copy(next.rows, f.rows)
	for _, i := range touched {
		next.rows[i] = next.frameInto(hists[i])
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
	f.rows = f.rows[v.lo:v.hi]
	return f
}
