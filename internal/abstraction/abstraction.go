// Package abstraction computes the higher-level views the paper layers over
// raw entries: code→chapter abstraction ("medications can be shown using a
// name for the group of drugs"), contact→episode derivation, and the
// medication-period interval concepts drawn as background colorings in
// Fig. 1. The previous project [7] "calculated abstractions over sequences
// of diagnosis instances"; this package is that machinery.
package abstraction

import (
	"cmp"
	"slices"
	"strings"

	"pastas/internal/model"
	"pastas/internal/store"
	"pastas/internal/terminology"
)

// ChapterOf abstracts a code to its chapter: ICPC-2 chapter letter, ICD-10
// chapter numeral, or ATC anatomical group. Returns "" for unknown codes.
func ChapterOf(c model.Code) string {
	cs := terminology.For(terminology.System(c.System))
	if cs == nil {
		return ""
	}
	return cs.Chapter(c.Value)
}

// GroupOf abstracts a code one level up its hierarchy (the parent), falling
// back to the code itself at the top.
func GroupOf(c model.Code) string {
	cs := terminology.For(terminology.System(c.System))
	if cs == nil {
		return c.Value
	}
	if p := cs.Parent(c.Value); p != "" {
		return p
	}
	return c.Value
}

// AbstractCodes maps a code sequence to chapter level, dropping unknowns.
// This is the abstraction NSEPter's merging benefits from: T89 and T90
// both become T, so near-miss histories merge.
func AbstractCodes(codes []model.Code) []string {
	out := make([]string, 0, len(codes))
	for _, c := range codes {
		if ch := ChapterOf(c); ch != "" {
			out = append(out, ch)
		}
	}
	return out
}

// Episode is a burst of care activity: entries whose starts are separated
// by no more than the gap parameter, summarized by period and dominant
// diagnosis code.
type Episode struct {
	Period model.Period
	// First and N locate the episode's entries in the history's
	// chronological order (SortedEntries, or a frame row's cells).
	First, N int
	// Dominant is the most frequent diagnosis code; ties go to the lower
	// code value, then the lower system name.
	Dominant model.Code
	// Label is what tallies and scenario steps key the episode by: the
	// dominant code's chapter, falling back to its raw value.
	Label string
}

// Episodes groups a history's entries into episodes separated by quiet
// gaps of at least gap. Interval entries extend an episode to their end.
// It sorts the history in place, so it is the single-threaded,
// direct-collection form; anything running concurrently over shared
// histories goes through EpisodesStable.
func Episodes(h *model.History, gap model.Time) []Episode {
	h.Sort()
	return EpisodesStable(h, gap)
}

// EpisodesStable is Episodes without mutating the history: the history is
// framed (through SortedEntries) and goes through the EpisodeScratch
// kernel the engine's map steps run over a store's frame.
func EpisodesStable(h *model.History, gap model.Time) []Episode {
	row, codes := store.FrameHistory(h)
	return new(EpisodeScratch).Episodes(row.Cells, codes, gap)
}

// EpisodeScratch is the working memory of the episode derivation, reused
// from one history to the next by a caller that visits many (a map step
// allocates nothing per history once it is warm). A scratch belongs to
// one goroutine; the zero value is ready.
type EpisodeScratch struct {
	eps    []Episode
	counts []int32  // per code id: diagnoses in the episode at hand
	ids    []uint32 // the code ids counts holds non-zero, first seen first
}

// Episodes derives the episodes of one framed history — the one
// derivation loop every entry point runs. codes is the dictionary the
// cells' code ids index. The result is valid until the next call.
func (s *EpisodeScratch) Episodes(cells []store.Cell, codes []store.FrameCode, gap model.Time) []Episode {
	if len(cells) == 0 {
		return nil
	}
	s.eps = s.eps[:0]
	first, period := 0, model.Period{}
	for i := range cells {
		start, end := model.Time(cells[i].Start), model.Time(cells[i].Start)
		if cells[i].Kind == model.Interval {
			end = model.Time(cells[i].End)
		}
		if i > 0 && start-period.End <= gap {
			if end > period.End {
				period.End = end
			}
			continue
		}
		if i > 0 {
			s.finish(period, cells, first, i, codes)
		}
		first, period = i, model.Period{Start: start, End: end}
	}
	s.finish(period, cells, first, len(cells), codes)
	return s.eps
}

// finish appends the completed episode cells[first:end].
func (s *EpisodeScratch) finish(period model.Period, cells []store.Cell, first, end int, codes []store.FrameCode) {
	// A point-only episode still covers its day.
	if period.Empty() {
		period.End = period.Start + model.Day
	}
	ep := Episode{Period: period, First: first, N: end - first}
	if id := s.dominant(cells[first:end], codes); id != 0 {
		ep.Dominant, ep.Label = codes[id].Code, codes[id].Label()
	}
	s.eps = append(s.eps, ep)
}

// dominant counts the episode's diagnosis code ids and takes the most
// frequent (0 when there is none). The order is total — count, then value,
// then system, compared as strings, never as ids — so two systems sharing
// a code value (ICPC-2 and ICD-10 both have K80, R05, …) cannot make the
// answer depend on anything but the entries.
func (s *EpisodeScratch) dominant(cells []store.Cell, codes []store.FrameCode) uint32 {
	if len(s.counts) < len(codes) {
		s.counts = make([]int32, len(codes))
	}
	s.ids = s.ids[:0]
	for i := range cells {
		if id := cells[i].Code; cells[i].Type == model.TypeDiagnosis && id != 0 {
			if s.counts[id] == 0 {
				s.ids = append(s.ids, id)
			}
			s.counts[id]++
		}
	}
	var best uint32
	var bestN int32
	for _, id := range s.ids {
		n := s.counts[id]
		if a, b := &codes[id], &codes[best]; n > bestN || n == bestN &&
			(a.Value < b.Value || a.Value == b.Value && a.System < b.System) {
			best, bestN = id, n
		}
		s.counts[id] = 0
	}
	return best
}

// Band is an interval concept for rendering: a class label with its merged
// period — e.g. "C07 Beta blocking agents" from 2010-02 to 2010-11.
type Band struct {
	Class  string // abstracted class code, e.g. "C07"
	Title  string // class title from the terminology
	Period model.Period
	// OpenEnd marks bands whose true end is unknown (still-running
	// services); renderers fade the tail instead of drawing a hard edge.
	OpenEnd bool
}

// ATCLevel names the abstraction level for medication bands.
type ATCLevel int

const (
	// ATCAnatomical is level 1 (C — cardiovascular system).
	ATCAnatomical ATCLevel = 1
	// ATCTherapeutic is level 2 (C07 — beta blocking agents), the class
	// granularity of Fig. 1's colors.
	ATCTherapeutic ATCLevel = 2
)

// classPrefix truncates an ATC code to the level's code length.
func classPrefix(atc string, level ATCLevel) string {
	n := 1
	if level == ATCTherapeutic {
		n = 3
	}
	if len(atc) < n {
		return atc
	}
	return atc[:n]
}

// MedicationBands merges a history's medication intervals into per-class
// bands: overlapping or touching (within bridge) periods of the same class
// become one band. The result is sorted by class then start.
func MedicationBands(h *model.History, level ATCLevel, bridge model.Time) []Band {
	h.Sort()
	isBand := func(e *model.Entry) bool {
		return e.Type == model.TypeMedication && e.Kind == model.Interval && e.Code.Value != ""
	}
	n := h.Count(isBand)
	if n == 0 {
		return nil
	}
	// One slice holds every interval as its own band, is sorted, and is
	// merged in place.
	out := make([]Band, 0, n)
	for i := range h.Entries {
		if e := &h.Entries[i]; isBand(e) {
			out = append(out, Band{Class: classPrefix(e.Code.Value, level), Period: e.Period()})
		}
	}
	slices.SortFunc(out, func(a, b Band) int {
		if c := strings.Compare(a.Class, b.Class); c != 0 {
			return c
		}
		return cmp.Compare(a.Period.Start, b.Period.Start)
	})
	atc := terminology.ForATC()
	merged := out[:0]
	for _, b := range out {
		if k := len(merged) - 1; k >= 0 && merged[k].Class == b.Class && b.Period.Start <= merged[k].Period.End+bridge {
			merged[k].Period.End = max(merged[k].Period.End, b.Period.End)
			continue
		}
		b.Title = atc.Title(b.Class)
		merged = append(merged, b)
	}
	return merged
}

// EpisodeTally is the mergeable map-step partial for distributed episode
// abstraction: integer sums over disjoint history sets, so per-shard
// partials merged in any grouping equal a sequential pass over the whole
// cohort — the same integral-tally discipline stats.CohortProfile uses.
type EpisodeTally struct {
	// Histories is how many histories were tallied; WithEpisodes how many
	// produced at least one episode.
	Histories    int
	WithEpisodes int
	// Episodes and Entries sum the derived episodes and the entries they
	// absorbed.
	Episodes int
	Entries  int
	// SpanTotal sums every episode's period length — the numerator of the
	// mean episode span.
	SpanTotal model.Time
	// ByDominant counts episodes by the chapter of their dominant
	// diagnosis ("-" when an episode has none).
	ByDominant map[string]int
}

// NewEpisodeTally creates an empty tally.
func NewEpisodeTally() *EpisodeTally {
	return &EpisodeTally{ByDominant: make(map[string]int)}
}

// AddHistory derives one history's episodes (without mutating it) and
// folds them into the tally.
func (t *EpisodeTally) AddHistory(h *model.History, gap model.Time) {
	t.AddEpisodes(EpisodesStable(h, gap))
}

// AddEpisodes folds one history's derived episodes into the tally.
func (t *EpisodeTally) AddEpisodes(eps []Episode) {
	t.Histories++
	if len(eps) == 0 {
		return
	}
	t.WithEpisodes++
	t.Episodes += len(eps)
	for i := range eps {
		t.Entries += eps[i].N
		t.SpanTotal += eps[i].Period.End - eps[i].Period.Start
		key := "-"
		if !eps[i].Dominant.IsZero() {
			key = eps[i].Label
		}
		t.ByDominant[key]++
	}
}

// Merge folds another partial into the receiver; integer sums over
// disjoint histories are exactly associative.
func (t *EpisodeTally) Merge(o *EpisodeTally) {
	if o == nil {
		return
	}
	t.Histories += o.Histories
	t.WithEpisodes += o.WithEpisodes
	t.Episodes += o.Episodes
	t.Entries += o.Entries
	t.SpanTotal += o.SpanTotal
	if t.ByDominant == nil {
		t.ByDominant = make(map[string]int, len(o.ByDominant))
	}
	for k, n := range o.ByDominant {
		t.ByDominant[k] += n
	}
}

// HistoryCount reports how many histories the partial tallied.
func (t *EpisodeTally) HistoryCount() int { return t.Histories }

// ServiceBands extracts stay/service intervals as bands labeled by source,
// for the admission and municipal-care background colorings.
func ServiceBands(h *model.History) []Band {
	h.Sort()
	var out []Band
	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Kind != model.Interval {
			continue
		}
		switch e.Type {
		case model.TypeStay, model.TypeService:
			label := e.Source.String() + " " + e.Type.String()
			out = append(out, Band{Class: label, Title: label, Period: e.Period(), OpenEnd: e.OpenEnd})
		}
	}
	return out
}
