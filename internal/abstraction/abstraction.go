// Package abstraction computes the higher-level views the paper layers over
// raw entries: code→chapter abstraction ("medications can be shown using a
// name for the group of drugs"), contact→episode derivation, and the
// medication-period interval concepts drawn as background colorings in
// Fig. 1. The previous project [7] "calculated abstractions over sequences
// of diagnosis instances"; this package is that machinery.
package abstraction

import (
	"slices"
	"sort"
	"strings"

	"pastas/internal/model"
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
	Period  model.Period
	Entries []*model.Entry
	// Dominant is the most frequent diagnosis code; ties go to the lower
	// code value, then the lower system name.
	Dominant model.Code
}

// Episodes groups a history's entries into episodes separated by quiet
// gaps of at least gap. Interval entries extend an episode to their end.
// It sorts the history in place, so it is the single-threaded,
// direct-collection form; distributed callers (and anything running
// concurrently over shared histories) go through EpisodesStable, which is
// what cohort-level tallies (core.Workbench.Episodes) use per shard.
func Episodes(h *model.History, gap model.Time) []Episode {
	h.Sort()
	return new(EpisodeScratch).derive(h.Entries, gap)
}

// EpisodesStable is Episodes without mutating the history: it reads the
// entries through SortedEntries, so concurrent map steps over shared
// histories (a shard server answering several Analyze RPCs at once)
// never reorder entries under each other.
func EpisodesStable(h *model.History, gap model.Time) []Episode {
	return new(EpisodeScratch).Episodes(h, gap)
}

// EpisodeScratch is the working memory of the episode derivation, reused
// from one history to the next by a caller that visits many (a map step
// allocates nothing per history once it is warm). A scratch belongs to
// one goroutine; the zero value is ready.
type EpisodeScratch struct {
	eps     []Episode
	entries []*model.Entry // every episode's Entries is a run of this
	codes   []model.Code   // one episode's diagnosis codes, sorted
}

// Episodes is EpisodesStable into the scratch: the result, and the Entries
// slices inside it, are valid until the next call.
func (s *EpisodeScratch) Episodes(h *model.History, gap model.Time) []Episode {
	return s.derive(h.SortedEntries(), gap)
}

// derive is the one episode-derivation loop every entry point runs;
// entries must already be in chronological order. An episode is a
// contiguous run of them, so all episodes share one backing slice.
func (s *EpisodeScratch) derive(entries []model.Entry, gap model.Time) []Episode {
	if len(entries) == 0 {
		return nil
	}
	if cap(s.entries) < len(entries) {
		s.entries = make([]*model.Entry, len(entries))
	}
	ptrs := s.entries[:len(entries)]
	s.eps = s.eps[:0]
	first, period := 0, model.Period{}
	for i := range entries {
		e := &entries[i]
		ptrs[i] = e
		end := e.Start
		if e.Kind == model.Interval {
			end = e.End
		}
		if i > 0 && e.Start-period.End <= gap {
			if end > period.End {
				period.End = end
			}
			continue
		}
		if i > 0 {
			s.finish(period, ptrs[first:i:i])
		}
		first, period = i, model.Period{Start: e.Start, End: end}
	}
	s.finish(period, ptrs[first:len(ptrs):len(ptrs)])
	return s.eps
}

// finish appends the completed episode.
func (s *EpisodeScratch) finish(period model.Period, entries []*model.Entry) {
	// A point-only episode still covers its day.
	if period.Empty() {
		period.End = period.Start + model.Day
	}
	s.eps = append(s.eps, Episode{Period: period, Entries: entries, Dominant: s.dominant(entries)})
}

// dominant sorts the episode's diagnosis codes and takes the longest run.
// The order is total — count, then value, then system — so two systems
// sharing a code value (ICPC-2 and ICD-10 both have K80, R05, …) cannot
// make the answer depend on anything but the entries.
func (s *EpisodeScratch) dominant(entries []*model.Entry) model.Code {
	s.codes = s.codes[:0]
	for _, e := range entries {
		if e.Type == model.TypeDiagnosis && !e.Code.IsZero() {
			s.codes = append(s.codes, e.Code)
		}
	}
	slices.SortFunc(s.codes, func(a, b model.Code) int {
		if c := strings.Compare(a.Value, b.Value); c != 0 {
			return c
		}
		return strings.Compare(a.System, b.System)
	})
	var best model.Code
	bestN := 0
	for i := 0; i < len(s.codes); {
		j := i + 1
		for j < len(s.codes) && s.codes[j] == s.codes[i] {
			j++
		}
		if j-i > bestN {
			best, bestN = s.codes[i], j-i
		}
		i = j
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
	periods := make(map[string][]model.Period)
	for i := range h.Entries {
		e := &h.Entries[i]
		if e.Type != model.TypeMedication || e.Kind != model.Interval {
			continue
		}
		cls := classPrefix(e.Code.Value, level)
		if cls == "" {
			continue
		}
		periods[cls] = append(periods[cls], e.Period())
	}

	classes := make([]string, 0, len(periods))
	for cls := range periods {
		classes = append(classes, cls)
	}
	sort.Strings(classes)

	atc := terminology.ForATC()
	var out []Band
	for _, cls := range classes {
		ps := periods[cls]
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
		merged := ps[:1]
		for _, p := range ps[1:] {
			last := &merged[len(merged)-1]
			if p.Start <= last.End+bridge {
				if p.End > last.End {
					last.End = p.End
				}
				continue
			}
			merged = append(merged, p)
		}
		for _, p := range merged {
			out = append(out, Band{Class: cls, Title: atc.Title(cls), Period: p})
		}
	}
	return out
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
		t.Entries += len(eps[i].Entries)
		t.SpanTotal += eps[i].Period.End - eps[i].Period.Start
		key := "-"
		if !eps[i].Dominant.IsZero() {
			if ch := ChapterOf(eps[i].Dominant); ch != "" {
				key = ch
			} else {
				key = eps[i].Dominant.Value
			}
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
