package store

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"math"

	"pastas/internal/model"
)

// Statistics and shard views.
//
// Stats are the exact per-index cardinalities a cost-based planner needs,
// collected once per store revision (one popcount per posting list at
// build time; appends maintain them incrementally). View is a contiguous
// ordinal slice pinned to one revision: it answers index lookups by
// slicing that revision's layered postings on the fly instead of
// rebuilding the inverted indexes per shard, and — because the revision is
// immutable — every call on a view answers from the same generation even
// while appends land on the owning store.

// Stats holds exact cardinalities over one store's population. All counts
// are patient-level (a patient with five T90 entries counts once), which
// is exactly the selectivity a cohort planner wants, and so are its counts
// per value bucket (ValueBucket) — the popcounts of the value postings —
// and per birth-year bucket (YearOf).
type Stats struct {
	// Patients is the population size.
	Patients int
	// Entries is the total entry count across all histories.
	Entries int
	// DistinctCodes is the size of the code vocabulary.
	DistinctCodes int

	codeCard   map[codeKey]int
	typeCard   map[model.Type]int
	sourceCard map[model.Source]int
	valueCard  map[uint16]int // patients with ≥ 1 entry value in the bucket
	birthCard  map[int64]int  // patients born in the year bucket
	codes      []model.Code   // shared with the owning revision; do not mutate
}

// collectStats popcounts every posting list of one layer once and adopts
// the codes and birth buckets its caller collected.
func collectStats(patients, entries int, codes []model.Code, births map[int64]int, p *postings) *Stats {
	st := &Stats{
		Patients:      patients,
		Entries:       entries,
		DistinctCodes: len(codes),
		codeCard:      make(map[codeKey]int, len(p.byCodeValue)),
		typeCard:      make(map[model.Type]int, len(p.byType)),
		sourceCard:    make(map[model.Source]int, len(p.bySource)),
		valueCard:     make(map[uint16]int, len(p.byValue)),
		birthCard:     births,
		codes:         codes,
	}
	addCounts(st.codeCard, p.byCodeValue)
	addCounts(st.typeCard, p.byType)
	addCounts(st.sourceCard, p.bySource)
	addCounts(st.valueCard, p.byValue)
	return st
}

// ValueBucket returns value v's bucket key, below 1<<15: its sign, exponent
// and top three mantissa bits, so a bucket is at most 12.5 % wide. Keys of
// one sign order buckets by magnitude: a band [lo, hi] with 0 < lo lies in
// buckets ValueBucket(lo) … ValueBucket(hi); +0 and -0 share no bucket.
func ValueBucket(v float64) uint16 { return uint16(math.Float64bits(v) >> 49) }

// YearOf splits t into its year bucket, ⌊t / Year⌋ (the unit of
// BirthCard), and the minutes past the bucket's start.
func YearOf(t model.Time) (year, rem int64) {
	year, rem = int64(t/model.Year), int64(t%model.Year)
	if rem < 0 {
		year, rem = year-1, rem+int64(model.Year)
	}
	return year, rem
}

func addCounts[K comparable](dst map[K]int, layer map[K]*Bitset) {
	for k, bs := range layer {
		if n := bs.Count(); n > 0 {
			dst[k] += n
		}
	}
}

// clone deep-copies the cardinality maps so an append can increment them
// without mutating the Stats published with the previous revision.
func (st *Stats) clone() *Stats {
	out := *st
	out.codeCard, out.typeCard, out.sourceCard = maps.Clone(st.codeCard), maps.Clone(st.typeCard), maps.Clone(st.sourceCard)
	out.valueCard, out.birthCard = maps.Clone(st.valueCard), maps.Clone(st.birthCard)
	return &out
}

// AvgEntries returns the mean entries per history — the calibration input
// for the planner's per-history scan cost.
func (st *Stats) AvgEntries() float64 {
	if st.Patients == 0 {
		return 0
	}
	return float64(st.Entries) / float64(st.Patients)
}

// TypeCard returns how many patients have at least one entry of the type.
func (st *Stats) TypeCard(t model.Type) int { return st.typeCard[t] }

// SourceCard returns how many patients have at least one entry from the
// source.
func (st *Stats) SourceCard(src model.Source) int { return st.sourceCard[src] }

// CodeCard returns how many patients carry the exact code (any system if
// system == "").
func (st *Stats) CodeCard(system, value string) int {
	if system != "" {
		return st.codeCard[codeKey{system, value}]
	}
	n := 0
	for k, c := range st.codeCard {
		if k.value == value {
			n += c
		}
	}
	return n
}

// CodePatternCard returns an upper bound on how many patients have a code
// (in the system; "" = any) matching the anchored pattern: the sum of the
// matching codes' cardinalities, capped at the population. It is exact
// when a single code matches, an independence-free union bound otherwise.
func (st *Stats) CodePatternCard(system, pattern string) (int, error) {
	n := 0
	err := matchCodes(st.codes, system, pattern, func(c model.Code) {
		n += st.codeCard[codeKey{c.System, c.Value}]
	})
	if err != nil {
		return 0, err
	}
	if n > st.Patients {
		n = st.Patients
	}
	return n, nil
}

// ValueBandCard returns an upper bound on how many patients have an entry
// value in [lo, hi]: the sum over the value buckets that overlap the band,
// capped at the population. It is 0 when lo > hi or either bound is NaN.
func (st *Stats) ValueBandCard(lo, hi float64) int {
	n := 0
	if lo <= hi {
		for k, c := range st.valueCard {
			a := math.Float64frombits(uint64(k) << 49)
			b := math.Float64frombits(uint64(k)<<49 | (1<<49 - 1))
			if math.IsNaN(b) { // ±Inf's bucket: the rest are NaNs
				b = a
			}
			if min(a, b) <= hi && max(a, b) >= lo {
				n += c
			}
		}
	}
	return min(n, st.Patients)
}

// ValueBucketCard returns how many patients have an entry value in the
// buckets [first, last] (see ValueBucket), capped at the population: the
// rows of a bound that unions those buckets' postings.
func (st *Stats) ValueBucketCard(first, last uint16) int {
	n := 0
	for k, c := range st.valueCard {
		if first <= k && k <= last {
			n += c
		}
	}
	return min(n, st.Patients)
}

// BirthCard returns how many patients were born in the year buckets
// [first, last] (see YearOf), capped at the population.
func (st *Stats) BirthCard(first, last int64) int {
	n := 0
	for k, c := range st.birthCard {
		if first <= k && k <= last {
			n += c
		}
	}
	return min(n, st.Patients)
}

// statsWire is the gob wire form of Stats: cardinalities keyed by the
// sorted code vocabulary so encode/decode is deterministic.
type statsWire struct {
	Patients, Entries int
	Codes             []model.Code
	CodeCard          []int // parallel to Codes
	TypeCard          map[model.Type]int
	SourceCard        map[model.Source]int
	ValueCard         map[uint16]int
	BirthCard         map[int64]int
}

// MarshalBinary encodes the statistics for the shard wire protocol, so a
// remote shard backend can hand its exact cardinalities to a coordinating
// planner.
func (st *Stats) MarshalBinary() ([]byte, error) {
	w := statsWire{
		Patients:   st.Patients,
		Entries:    st.Entries,
		Codes:      st.codes,
		CodeCard:   make([]int, len(st.codes)),
		TypeCard:   st.typeCard,
		SourceCard: st.sourceCard,
		ValueCard:  st.valueCard,
		BirthCard:  st.birthCard,
	}
	for i, c := range st.codes {
		w.CodeCard[i] = st.codeCard[codeKey{c.System, c.Value}]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("store: marshal stats: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary decodes statistics written by MarshalBinary. A count
// below zero or above the population is an error, not a plan: a shard
// server's counts go straight into the coordinator's rank sort.
func (st *Stats) UnmarshalBinary(data []byte) error {
	// The maps exist before decoding: gob sizes a nil map by the length the
	// bytes declare, before any element arrives.
	w := statsWire{TypeCard: map[model.Type]int{}, SourceCard: map[model.Source]int{}, ValueCard: map[uint16]int{}, BirthCard: map[int64]int{}}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return fmt.Errorf("store: unmarshal stats: %w", err)
	}
	if len(w.CodeCard) != len(w.Codes) {
		return fmt.Errorf("store: unmarshal stats: %d cardinalities for %d codes", len(w.CodeCard), len(w.Codes))
	}
	codeCard := make(map[codeKey]int, len(w.Codes))
	for i, c := range w.Codes {
		codeCard[codeKey{c.System, c.Value}] = w.CodeCard[i]
	}
	if n := w.Patients; n < 0 || w.Entries < 0 || !inRange(codeCard, n) || !inRange(w.TypeCard, n) ||
		!inRange(w.SourceCard, n) || !inRange(w.ValueCard, n) || !inRange(w.BirthCard, n) {
		return fmt.Errorf("store: unmarshal stats: a count outside [0, %d patients], or %d entries", n, w.Entries)
	}
	*st = Stats{Patients: w.Patients, Entries: w.Entries, DistinctCodes: len(w.Codes), codeCard: codeCard,
		typeCard: w.TypeCard, sourceCard: w.SourceCard, valueCard: w.ValueCard, birthCard: w.BirthCard,
		codes: append([]model.Code{}, w.Codes...)}
	return nil
}

// inRange reports whether every count in m lies in [0, n].
func inRange[K comparable](m map[K]int, n int) bool {
	for _, c := range m {
		if c < 0 || c > n {
			return false
		}
	}
	return true
}

// MergeStats combines statistics over disjoint populations (the shards of
// one collection) into statistics over their union. Patient-level counts
// are additive across disjoint shards, so the merge is exact — the
// coordinating planner estimates from the same cardinalities a single
// global store would have collected.
func MergeStats(parts ...*Stats) *Stats {
	out := &Stats{
		codeCard:   make(map[codeKey]int),
		typeCard:   make(map[model.Type]int),
		sourceCard: make(map[model.Source]int),
		valueCard:  make(map[uint16]int),
		birthCard:  make(map[int64]int),
	}
	for _, p := range parts {
		if p == nil {
			continue
		}
		out.Patients += p.Patients
		out.Entries += p.Entries
		for _, c := range p.codes {
			out.codeCard[codeKey{c.System, c.Value}] += p.codeCard[codeKey{c.System, c.Value}]
		}
		sumInto(out.typeCard, p.typeCard)
		sumInto(out.sourceCard, p.sourceCard)
		sumInto(out.valueCard, p.valueCard)
		sumInto(out.birthCard, p.birthCard)
	}
	out.codes = make([]model.Code, 0, len(out.codeCard))
	for k := range out.codeCard {
		out.codes = append(out.codes, model.Code{System: k.system, Value: k.value})
	}
	sortCodes(out.codes)
	out.DistinctCodes = len(out.codes)
	return out
}

func sumInto[K comparable](dst, src map[K]int) {
	for k, n := range src {
		dst[k] += n
	}
}

// View is a contiguous ordinal slice [Lo, Hi) of one store revision. It
// answers the same index lookups as a dedicated shard store, in the
// shard's local ordinal space (local bit i is revision bit Lo+i), by
// slicing the revision's layered postings — no per-shard index memory,
// and an empty slice of a posting list is detected in O(words) without
// materializing anything.
//
// A view is pinned: it keeps answering from the revision it was created
// on, untouched by later appends to the owning store. The engine rebuilds
// its views when the store generation advances, so one query always runs
// against one generation.
type View struct {
	r      *storeRev
	lo, hi int
}

// Sub returns a view over ordinals [lo, hi) of the same revision as v
// (absolute ordinals, independent of v's own range, clamped to the
// population): a shard of it, as LocalBackend serves one.
func (v *View) Sub(lo, hi int) *View {
	n := v.r.hists.n
	lo = min(max(lo, 0), n)
	return &View{r: v.r, lo: lo, hi: min(max(hi, lo), n)}
}

// Generation returns the generation of the revision the view is pinned to.
func (v *View) Generation() uint64 { return v.r.gen }

// Len returns the number of patients in the view.
func (v *View) Len() int { return v.hi - v.lo }

// Offset returns the view's first global ordinal.
func (v *View) Offset() int { return v.lo }

// Histories returns the view's histories in display order, in a slice of
// the caller's own; the histories themselves must not be mutated.
func (v *View) Histories() []*model.History {
	return v.r.hists.slice(v.lo, v.hi)
}

// Entries returns the total entry count inside the view.
func (v *View) Entries() int {
	if v.lo == 0 && v.hi == v.r.hists.n {
		return v.r.entries
	}
	n := 0
	for i := v.lo; i < v.hi; i++ {
		n += len(v.r.hists.at(i).Entries)
	}
	return n
}

// Empty returns a fresh empty bitset sized to the view.
func (v *View) Empty() *Bitset { return NewBitset(v.Len()) }

// PatientAt returns the patient ID at a local bit position.
func (v *View) PatientAt(local int) model.PatientID { return v.r.ids.at(v.lo + local) }

// Ordinal returns the local bit position of a patient within the view;
// ok=false when the patient is absent or lives outside the view's range.
func (v *View) Ordinal(id model.PatientID) (int, bool) {
	o, ok := v.r.ordinalOf(id)
	if !ok || o < v.lo || o >= v.hi {
		return 0, false
	}
	return o - v.lo, true
}

// HistoryAt returns the history at a local bit position.
func (v *View) HistoryAt(local int) *model.History {
	return v.r.hists.at(v.lo + local)
}

// Stats returns the view's exact cardinalities: the revision's own for
// the full population, and for a slice the popcounts of the revision's
// postings sliced to it, plus its births and entries — what a store built
// from its histories, a shard server's, collects.
func (v *View) Stats() *Stats {
	if v.lo == 0 && v.hi == v.r.hists.n {
		return v.r.stats
	}
	births, entries := map[int64]int{}, 0
	for i := v.lo; i < v.hi; i++ {
		h := v.r.hists.at(i)
		year, _ := YearOf(h.Patient.Birth)
		births[year]++
		entries += len(h.Entries)
	}
	p, codes := v.postings()
	return collectStats(v.Len(), entries, codes, births, p)
}

// postings slices the revision's layered postings (base ∪ delta) to the
// view as one layer in local ordinal space, keeping only the lists with
// a patient in range, and returns it with the codes it holds, sorted: the
// postings a store built from the view's histories holds, as Save writes
// them and Stats counts them.
func (v *View) postings() (*postings, []model.Code) {
	r := v.r
	p := &postings{
		byCodeValue: make(map[codeKey]*Bitset),
		byType:      sliceLayer(v, r.base.byType, r.delta.byType),
		bySource:    sliceLayer(v, r.base.bySource, r.delta.bySource),
		byValue:     sliceLayer(v, r.base.byValue, r.delta.byValue),
	}
	codes := make([]model.Code, 0, len(r.codes))
	for _, c := range r.codes {
		k := codeKey{c.System, c.Value}
		if bs := v.slice(r.codeBits(k)); bs.Count() > 0 {
			p.byCodeValue[k] = bs
			codes = append(codes, c)
		}
	}
	return p, codes
}

// sliceLayer slices one index's layered postings to the view, keeping
// the non-empty lists.
func sliceLayer[K comparable](v *View, base, delta map[K]*Bitset) map[K]*Bitset {
	out := make(map[K]*Bitset)
	for _, m := range []map[K]*Bitset{base, delta} {
		for k := range m {
			if _, done := out[k]; !done {
				if bs := v.slice(base[k], delta[k]); bs.Count() > 0 {
					out[k] = bs
				}
			}
		}
	}
	return out
}

// slice extracts a layered posting into local ordinal space, fast-pathing
// the empty range (the per-shard zero-cardinality skip).
func (v *View) slice(base, delta *Bitset) *Bitset {
	anyBase := layerAnyInRange(base, v.lo, v.hi)
	anyDelta := layerAnyInRange(delta, v.lo, v.hi)
	out := v.Empty()
	if !anyBase && !anyDelta {
		return out
	}
	if anyBase {
		layerOrSlice(out, base, v.lo, v.hi)
	}
	if anyDelta {
		layerOrSlice(out, delta, v.lo, v.hi)
	}
	return out
}

// WithType returns the view's patients having at least one entry of the
// type, in local ordinal space.
func (v *View) WithType(t model.Type) *Bitset {
	return v.slice(v.r.base.byType[t], v.r.delta.byType[t])
}

// WithSource returns the view's patients having at least one entry from
// the source, in local ordinal space.
func (v *View) WithSource(src model.Source) *Bitset {
	return v.slice(v.r.base.bySource[src], v.r.delta.bySource[src])
}

// WithValueBuckets returns the view's patients with an entry value in the
// buckets [first, last] (see ValueBucket), in local ordinal space: the
// union of those buckets' base and delta postings (unionSlices).
func (v *View) WithValueBuckets(first, last uint16) *Bitset {
	var srcs []*Bitset
	for k := int(first); k <= int(last); k++ {
		srcs = append(srcs, v.r.base.byValue[uint16(k)], v.r.delta.byValue[uint16(k)])
	}
	return unionSlices(srcs, v.lo, v.hi)
}

// WithCodeRegex returns the view's patients with a code (in the system;
// "" = any) matching the anchored pattern, in local ordinal space. The
// pattern is matched against the revision's distinct-code vocabulary;
// codes absent from the slice contribute no bits, so the result is
// identical to a dedicated shard index.
func (v *View) WithCodeRegex(system, pattern string) (*Bitset, error) {
	out := v.Empty()
	err := matchCodes(v.r.codes, system, pattern, func(c model.Code) {
		base, delta := v.r.codeBits(codeKey{c.System, c.Value})
		layerOrSlice(out, base, v.lo, v.hi)
		layerOrSlice(out, delta, v.lo, v.hi)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
