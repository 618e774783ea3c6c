package model

import (
	"cmp"
	"fmt"
	"slices"
)

// History is one patient's trajectory: the patient record plus every entry
// aggregated for them, kept sorted by start time (ties broken by end, type,
// then ID so orderings are deterministic).
type History struct {
	Patient Patient
	Entries []Entry
	sorted  bool
}

// NewHistory creates an empty history for a patient.
func NewHistory(p Patient) *History {
	return &History{Patient: p, sorted: true}
}

// Add appends an entry, invalidating sort order until Sort is called. The
// slice grows by append, so a history built entry by entry can carry up to
// twice its length in capacity; paths that know the final size build the
// slice themselves and hand it to RestoreHistory.
func (h *History) Add(e Entry) {
	h.Entries = append(h.Entries, e)
	h.sorted = false
}

// Len returns the number of entries.
func (h *History) Len() int { return len(h.Entries) }

// entryCompare is the chronological order of Sort: start, then end, type
// and ID as deterministic tie-breaks.
func entryCompare(a, b *Entry) int {
	if c := cmp.Compare(a.Start, b.Start); c != 0 {
		return c
	}
	if c := cmp.Compare(a.End, b.End); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Type, b.Type); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// sortEntries orders a slice of entries chronologically (stable).
func sortEntries(es []Entry) {
	slices.SortStableFunc(es, func(a, b Entry) int { return entryCompare(&a, &b) })
}

// entriesSorted reports whether the slice is already in chronological
// order (one linear pass, no allocation).
func entriesSorted(es []Entry) bool {
	for i := 1; i < len(es); i++ {
		if entryCompare(&es[i], &es[i-1]) < 0 {
			return false
		}
	}
	return true
}

// Sort orders entries chronologically; it is idempotent, and a history
// whose entries are already in order (one built by Add in time order, say)
// is only checked, not sorted, and allocates nothing.
func (h *History) Sort() {
	if h.sorted {
		return
	}
	if !entriesSorted(h.Entries) {
		sortEntries(h.Entries)
	}
	h.sorted = true
}

// Merged returns a new, sorted history of h's patient holding h's entries
// and add's, in exactly the order Sort gives h's followed by add's: add is
// stable-sorted in place, then merged with h's sorted entries in one
// linear pass, h's entry first on a tie. h is not modified; the result
// does not share add.
func (h *History) Merged(add []Entry) *History {
	old := h.SortedEntries()
	sortEntries(add)
	out := make([]Entry, 0, len(old)+len(add))
	for len(old) > 0 && len(add) > 0 {
		if entryCompare(&add[0], &old[0]) < 0 {
			out, add = append(out, add[0]), add[1:]
		} else {
			out, old = append(out, old[0]), old[1:]
		}
	}
	out = append(append(out, old...), add...)
	return &History{Patient: h.Patient, Entries: out, sorted: true}
}

// SortedEntries returns the entries in chronological order without
// mutating the history: the live slice when already sorted, otherwise a
// sorted copy. Readers that must not reorder a shared history (snapshot
// save, concurrent scans) go through this instead of Sort.
func (h *History) SortedEntries() []Entry {
	if h.sorted {
		return h.Entries
	}
	c := make([]Entry, len(h.Entries))
	copy(c, h.Entries)
	sortEntries(c)
	return c
}

// RestoreHistory rebuilds a history from a patient record and an entry
// slice, adopting the slice without copying: the entries belong to p by
// living in its history. The sorted flag is derived by a linear scan so a
// snapshot claiming order cannot smuggle an unsorted history past Sort's
// idempotence check.
func RestoreHistory(p Patient, entries []Entry) *History {
	return &History{Patient: p, Entries: entries, sorted: entriesSorted(entries)}
}

// Sorted reports whether the entries are currently in chronological order.
func (h *History) Sorted() bool { return h.sorted }

// Span returns the period from the first start to the last end (or last
// start for point events). Returns an empty period for empty histories.
func (h *History) Span() Period {
	if len(h.Entries) == 0 {
		return Period{}
	}
	h.Sort()
	start := h.Entries[0].Start
	end := start
	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Start > end {
			end = e.Start
		}
		if e.Kind == Interval && e.End > end {
			end = e.End
		}
	}
	return Period{Start: start, End: end}
}

// First returns the earliest entry matching pred, or nil.
func (h *History) First(pred func(*Entry) bool) *Entry {
	h.Sort()
	for i := range h.Entries {
		if pred(&h.Entries[i]) {
			return &h.Entries[i]
		}
	}
	return nil
}

// Nth returns the n-th (1-based) entry matching pred, or nil.
func (h *History) Nth(n int, pred func(*Entry) bool) *Entry {
	if n <= 0 {
		return nil
	}
	h.Sort()
	seen := 0
	for i := range h.Entries {
		if pred(&h.Entries[i]) {
			seen++
			if seen == n {
				return &h.Entries[i]
			}
		}
	}
	return nil
}

// Last returns the latest entry matching pred, or nil.
func (h *History) Last(pred func(*Entry) bool) *Entry {
	h.Sort()
	for i := len(h.Entries) - 1; i >= 0; i-- {
		if pred(&h.Entries[i]) {
			return &h.Entries[i]
		}
	}
	return nil
}

// Count returns how many entries match pred.
func (h *History) Count(pred func(*Entry) bool) int {
	n := 0
	for i := range h.Entries {
		if pred(&h.Entries[i]) {
			n++
		}
	}
	return n
}

// Within returns the entries whose period intersects p, preserving order.
func (h *History) Within(p Period) []*Entry {
	h.Sort()
	var out []*Entry
	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Kind == Point {
			if p.Contains(e.Start) {
				out = append(out, e)
			}
		} else if e.Period().Overlaps(p) {
			out = append(out, e)
		}
	}
	return out
}

// CodeSequence extracts the chronological sequence of code values for
// entries of the given type; this is the view NSEPter operated on
// ("the only information ... utilized was the diagnosis codes").
func (h *History) CodeSequence(t Type) []Code {
	h.Sort()
	return h.CodeSequenceStable(t)
}

// CodeSequenceStable is CodeSequence without mutating the history: it
// reads through SortedEntries, so concurrent readers of a shared history
// never reorder entries under each other.
func (h *History) CodeSequenceStable(t Type) []Code {
	var out []Code
	entries := h.SortedEntries()
	for i := range entries {
		e := &entries[i]
		if e.Type == t && !e.Code.IsZero() {
			out = append(out, e.Code)
		}
	}
	return out
}

// Clone returns a deep copy of the history.
func (h *History) Clone() *History {
	c := &History{Patient: h.Patient, sorted: h.sorted}
	c.Entries = make([]Entry, len(h.Entries))
	copy(c.Entries, h.Entries)
	return c
}

// Validate checks the history and every entry, including the paper's
// pre-birth rule: entries dated before the patient's birth are invalid.
// Ownership needs no check: an entry's patient is the history holding it.
func (h *History) Validate() error {
	if err := h.Patient.Validate(); err != nil {
		return err
	}
	for i := range h.Entries {
		e := &h.Entries[i]
		if err := e.Validate(); err != nil {
			return err
		}
		if e.Start < h.Patient.Birth {
			return fmt.Errorf("model: history %s: entry %d predates birth", h.Patient.ID, e.ID)
		}
	}
	return nil
}
