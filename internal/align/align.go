// Package align implements alignment of histories on an index event and
// the display orderings of the timeline view. "In an aligned diagram, the
// axis shows the number of months before and after the alignment point" —
// alignment turns absolute calendar time into time relative to a chosen
// event (e.g. first stroke), which is how cohort-level patterns around an
// index event become visible.
package align

import (
	"fmt"

	"pastas/internal/model"
	"pastas/internal/query"
)

// Anchor selects the alignment point within a history: the Occurrence-th
// entry matching Pred (1-based; -1 means the last occurrence).
type Anchor struct {
	Pred       query.EventPred
	Occurrence int
}

// First anchors at the first entry matching pred.
func First(pred query.EventPred) Anchor { return Anchor{Pred: pred, Occurrence: 1} }

// Time returns the anchor time within the history, ok=false if the history
// has no such event.
func (a Anchor) Time(h *model.History) (model.Time, bool) {
	match := func(e *model.Entry) bool { return a.Pred.Match(e) }
	var e *model.Entry
	switch {
	case a.Occurrence == -1:
		e = h.Last(match)
	case a.Occurrence <= 1:
		e = h.First(match)
	default:
		e = h.Nth(a.Occurrence, match)
	}
	if e == nil {
		return model.NoTime, false
	}
	return e.Start, true
}

func (a Anchor) String() string {
	switch {
	case a.Occurrence == -1:
		return fmt.Sprintf("last(%s)", a.Pred)
	case a.Occurrence <= 1:
		return fmt.Sprintf("first(%s)", a.Pred)
	default:
		return fmt.Sprintf("nth(%d, %s)", a.Occurrence, a.Pred)
	}
}

// Result is an aligned view over a collection: the sub-collection of
// histories that have the anchor, their per-patient offsets, and the ones
// left out.
type Result struct {
	Anchor  Anchor
	Col     *model.Collection
	Offsets map[model.PatientID]model.Time
	Missing []model.PatientID
}

// Align computes the aligned view of a collection.
func Align(col *model.Collection, anchor Anchor) *Result {
	r := &Result{
		Anchor:  anchor,
		Offsets: make(map[model.PatientID]model.Time),
	}
	kept := make([]*model.History, 0, col.Len())
	for _, h := range col.Histories() {
		t, ok := anchor.Time(h)
		if !ok {
			r.Missing = append(r.Missing, h.Patient.ID)
			continue
		}
		r.Offsets[h.Patient.ID] = t
		kept = append(kept, h)
	}
	r.Col = model.MustCollection(kept...)
	return r
}

// Rel converts an absolute time to time-relative-to-anchor for a patient.
func (r *Result) Rel(id model.PatientID, t model.Time) model.Time {
	return t - r.Offsets[id]
}

// Span returns the covering period in relative time: [min rel start,
// max rel end) over all kept histories.
func (r *Result) Span() model.Period {
	var span model.Period
	first := true
	for _, h := range r.Col.Histories() {
		off := r.Offsets[h.Patient.ID]
		s := h.Span()
		rel := model.Period{Start: s.Start - off, End: s.End - off}
		if first {
			span = rel
			first = false
			continue
		}
		if rel.Start < span.Start {
			span.Start = rel.Start
		}
		if rel.End > span.End {
			span.End = rel.End
		}
	}
	return span
}

// --- display orderings ------------------------------------------------------

// Less is a display-order comparator over histories.
type Less func(a, b *model.History) bool

// ByEntryCount orders densest history first.
func ByEntryCount() Less {
	return func(a, b *model.History) bool { return a.Len() > b.Len() }
}

// ByAnchor orders by the (absolute) anchor time, so aligned views stack
// early index events on top.
func (r *Result) ByAnchor() Less {
	return func(a, b *model.History) bool {
		return r.Offsets[a.Patient.ID] < r.Offsets[b.Patient.ID]
	}
}

// Sort applies an ordering to the aligned collection.
func (r *Result) Sort(less Less) { r.Col.SortBy(less) }
