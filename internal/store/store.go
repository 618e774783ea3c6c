// Package store holds a loaded collection with the secondary indexes the
// interactive workbench needs. The paper pre-loads "all content to be
// visualized or queried ... into a data structure" precisely "to speed up
// drawing and to become more independent of the database schema"; Store is
// that structure plus code/type/source/value-bucket inverted indexes over
// patients, and snapshot persistence so a 168k-patient load survives
// process restarts.
//
// Since the live-ingest refactor the store is appendable: every batch of
// new entries/patients publishes a fresh immutable revision (see delta.go)
// under an atomic pointer, so readers never block behind writers and never
// observe a half-applied batch. Postings are layered — an immutable base
// fold plus a small mutable-tail delta absorbing appends — and background
// compaction (compact.go) folds the delta back into the base.
package store

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"pastas/internal/model"
	"pastas/internal/terminology"
)

// Store is an indexed collection. All read methods answer from one
// immutable revision loaded once per call; Append and Compact serialize on
// an internal mutex and publish new revisions atomically. A single method
// call is therefore always generation-consistent, but a *sequence* of
// calls may straddle an append — callers needing multi-call consistency
// (the engine, the reference interpreter under ingest) pin a revision with
// Pin or Freeze.
type Store struct {
	mu  sync.Mutex // serializes Append and Compact
	rev atomic.Pointer[storeRev]
}

// postings is one layer of inverted indexes: the patients with an entry
// of each code, type, source and value bucket (ValueBucket). Bitsets in a
// layer may have a smaller capacity than the current population (they
// were built when the population was smaller); bits past a bitset's
// capacity are implicitly zero, and every layered read clamps accordingly.
type postings struct {
	byCodeValue map[codeKey]*Bitset
	byType      map[model.Type]*Bitset
	bySource    map[model.Source]*Bitset
	byValue     map[uint16]*Bitset
}

func newPostings() *postings {
	return &postings{
		byCodeValue: make(map[codeKey]*Bitset),
		byType:      make(map[model.Type]*Bitset),
		bySource:    make(map[model.Source]*Bitset),
		byValue:     make(map[uint16]*Bitset),
	}
}

// lists returns the number of posting lists in the layer.
func (p *postings) lists() int {
	return len(p.byCodeValue) + len(p.byType) + len(p.bySource) + len(p.byValue)
}

// setIn marks patient i (of n) in key k's posting, made on first use.
func setIn[K comparable](m map[K]*Bitset, k K, n, i int) {
	bs := m[k]
	if bs == nil {
		bs = NewBitset(n)
		m[k] = bs
	}
	bs.Set(i)
}

// valueBuild collects value-bucket postings while a store is built: a
// slot per bucket key, so an entry costs no map lookup.
type valueBuild [1 << 15]*Bitset

// set marks patient i (of n) in the bucket of value v.
func (vb *valueBuild) set(v float64, n, i int) {
	k := ValueBucket(v)
	if vb[k] == nil {
		vb[k] = NewBitset(n)
	}
	vb[k].Set(i)
}

// postings returns the collected postings by bucket key.
func (vb *valueBuild) postings() map[uint16]*Bitset {
	m := make(map[uint16]*Bitset)
	for k, bs := range vb {
		if bs != nil {
			m[uint16(k)] = bs
		}
	}
	return m
}

// storeRev is one immutable published revision of the store. Everything a
// read needs hangs off the revision, so a reader that loaded it once can
// never see torn state — an in-flight append builds the next revision on
// the side and publishes it with a single pointer store. The per-patient
// arrays are paged: a revision shares every page its append did not write.
type storeRev struct {
	gen   uint64
	hists paged[*model.History]
	ids   paged[model.PatientID]

	// ordBase is the fold-time ordinal index: the ordinals below the fold's
	// population, sorted by patient ID and binary-searched through ids — 4
	// bytes a patient where a map took ≈40. It is shared across revisions
	// until the next compaction (appends only add ordinals past it);
	// ordDelta covers only patients appended since, and is small enough to
	// copy per batch.
	ordBase  []int32
	ordDelta map[model.PatientID]int

	entries int

	// base holds the compacted postings; delta absorbs appends since the
	// last compaction. A patient bit lives in exactly one layer (the
	// append path checks base ∪ delta before setting), so per-key
	// cardinalities are additive across layers. Either layer's bitsets may
	// be shorter than the population: every read clamps to their length.
	base  *postings
	delta *postings

	deltaEntries  int // entries absorbed into delta since last compaction
	deltaPatients int // patients appended since last compaction

	codes []model.Code // distinct codes, sorted
	stats *Stats       // exact cardinalities for this revision

	ingest     IngestStats
	compaction CompactionStats

	colOnce sync.Once
	col     *model.Collection

	// frame holds the lazily built analysis frame (frame.go); revisions
	// with the same hists share the holder.
	frame *frameHolder

	maxEntryID uint64 // the largest entry ID present
}

type codeKey struct {
	system string
	value  string
}

// loadRev returns the current revision.
func (s *Store) loadRev() *storeRev { return s.rev.Load() }

// collection lazily materializes the revision's histories as a Collection
// (no revision keeps the one it was built from, and most are never asked
// for one).
func (r *storeRev) collection() *model.Collection {
	r.colOnce.Do(func() {
		col, err := model.NewCollection(r.hists.slice(0, r.hists.n)...)
		if err != nil {
			// New and Append validated ID uniqueness before publishing.
			panic(fmt.Sprintf("store: corrupt revision: %v", err))
		}
		r.col = col
	})
	return r.col
}

// ordinalOf resolves a patient to its bit position within the revision.
func (r *storeRev) ordinalOf(id model.PatientID) (int, bool) {
	if o, ok := r.ordDelta[id]; ok {
		return o, true
	}
	k, ok := slices.BinarySearchFunc(r.ordBase, id, func(o int32, id model.PatientID) int {
		return cmp.Compare(r.ids.at(int(o)), id)
	})
	if !ok {
		return 0, false
	}
	return int(r.ordBase[k]), true
}

// ordinalIndex sorts the ordinals [0, ids.n) by patient ID. The sort is
// linear when the IDs already ascend, as integrated ones do.
func ordinalIndex(ids *paged[model.PatientID]) []int32 {
	ord := make([]int32, ids.n)
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int { return cmp.Compare(ids.at(int(a)), ids.at(int(b))) })
	return ord
}

// New indexes a collection, sorting each history's entries in place. The
// collection must not be mutated afterwards.
func New(col *model.Collection) *Store { return finishStore(col.Histories(), nil, nil) }

// finishStore builds a gen-0 revision over hists in the one walk over
// their entries. It builds the code, type and source postings and the
// sorted codes unless the caller passes them (a loaded shard's, decoded
// from its snapshot), and always the value postings, which a snapshot
// does not carry, the birth counts and the max entry ID. It sorts every
// history it adopts, once, so no reader that sorts a history (a sequence
// search, the model.History helpers) ever writes one a concurrent reader
// is framing. The collection itself, and its ID map, are not kept: the
// ordinal index answers lookups, and Collection rebuilds one on demand.
func finishStore(hists []*model.History, base *postings, codes []model.Code) *Store {
	n := len(hists)
	walk := base == nil
	if walk {
		base = newPostings()
	}
	r := &storeRev{
		ordDelta: map[model.PatientID]int{},
		base:     base,
		delta:    newPostings(),
		frame:    new(frameHolder),
	}
	vb := new(valueBuild)
	births := map[int64]int{}
	entries, maxID := 0, uint64(0)
	for i, h := range hists {
		h.Sort()
		r.hists.push(h)
		r.ids.push(h.Patient.ID)
		year, _ := YearOf(h.Patient.Birth)
		births[year]++
		entries += len(h.Entries)
		for j := range h.Entries {
			e := &h.Entries[j]
			maxID = max(maxID, e.ID)
			vb.set(e.Value, n, i)
			if !walk {
				continue
			}
			if !e.Code.IsZero() {
				setIn(base.byCodeValue, codeKey{e.Code.System, e.Code.Value}, n, i)
			}
			setIn(base.byType, e.Type, n, i)
			setIn(base.bySource, e.Source, n, i)
		}
	}
	base.byValue = vb.postings()
	if walk {
		codes = make([]model.Code, 0, len(base.byCodeValue))
		for k := range base.byCodeValue {
			codes = append(codes, model.Code{System: k.system, Value: k.value})
		}
		sortCodes(codes)
	}
	r.entries, r.maxEntryID, r.codes = entries, maxID, codes
	r.ordBase = ordinalIndex(&r.ids)
	r.stats = collectStats(n, entries, codes, births, base)
	s := &Store{}
	s.rev.Store(r)
	return s
}

func sortCodes(codes []model.Code) {
	sort.Slice(codes, func(i, j int) bool {
		if codes[i].System != codes[j].System {
			return codes[i].System < codes[j].System
		}
		return codes[i].Value < codes[j].Value
	})
}

// Stats returns the exact index cardinalities of the current revision
// (immutable once published; a later append publishes a new Stats rather
// than mutating this one).
func (s *Store) Stats() *Stats { return s.loadRev().stats }

// Collection returns the current revision's histories as a collection,
// built (with its ID map) on the revision's first call.
func (s *Store) Collection() *model.Collection { return s.loadRev().collection() }

// Len returns the number of patients.
func (s *Store) Len() int { return s.loadRev().hists.n }

// DistinctCodes returns every code present, sorted by system then value.
func (s *Store) DistinctCodes() []model.Code {
	r := s.loadRev()
	out := make([]model.Code, len(r.codes))
	copy(out, r.codes)
	return out
}

// Ordinal returns the bit position of a patient (ok=false if absent).
func (s *Store) Ordinal(id model.PatientID) (int, bool) {
	return s.loadRev().ordinalOf(id)
}

// PatientAt returns the patient ID at a bit position.
func (s *Store) PatientAt(ordinal int) model.PatientID { return s.loadRev().ids.at(ordinal) }

// IDsOf materializes a bitset as patient IDs in collection order.
func (s *Store) IDsOf(b *Bitset) []model.PatientID {
	r := s.loadRev()
	out := make([]model.PatientID, 0, b.Count())
	b.Range(func(i int) bool {
		out = append(out, r.ids.at(i))
		return true
	})
	return out
}

// Empty returns a fresh empty bitset sized to the store.
func (s *Store) Empty() *Bitset { return NewBitset(s.Len()) }

// All returns a bitset with every patient set.
func (s *Store) All() *Bitset { return s.Empty().Not() }

// codeBits returns both layers of one code's posting (either may be nil).
func (r *storeRev) codeBits(k codeKey) (base, delta *Bitset) {
	return r.base.byCodeValue[k], r.delta.byCodeValue[k]
}

// WithCode returns the patients carrying an exact code (any system if
// system == "").
func (s *Store) WithCode(system, value string) *Bitset {
	r := s.loadRev()
	out := NewBitset(r.hists.n)
	if system != "" {
		base, delta := r.codeBits(codeKey{system, value})
		layerOrInto(out, base)
		layerOrInto(out, delta)
		return out
	}
	for _, sys := range []string{"ICPC2", "ICD10", "ATC"} {
		base, delta := r.codeBits(codeKey{sys, value})
		layerOrInto(out, base)
		layerOrInto(out, delta)
	}
	return out
}

// matchCodes calls fn for every distinct code (in system; "" = any system)
// matching the anchored pattern. The single vocabulary-walk shared by the
// store, view and statistics lookups, so pattern semantics can never
// diverge between the executor's postings and the planner's cardinalities.
func matchCodes(codes []model.Code, system, pattern string, fn func(model.Code)) error {
	re, err := terminology.CompileCodePattern(pattern)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	for _, c := range codes {
		if system != "" && c.System != system {
			continue
		}
		if re.MatchString(c.Value) {
			fn(c)
		}
	}
	return nil
}

// WithCodeRegex returns the patients with at least one code (in the given
// system; "" = any) matching the anchored regular expression — the paper's
// cohort-identification primitive. It matches the pattern against the
// distinct-code vocabulary (a few hundred strings) and unions the
// pre-computed patient sets, rather than scanning millions of entries.
func (s *Store) WithCodeRegex(system, pattern string) (*Bitset, error) {
	r := s.loadRev()
	out := NewBitset(r.hists.n)
	err := matchCodes(r.codes, system, pattern, func(c model.Code) {
		base, delta := r.codeBits(codeKey{c.System, c.Value})
		layerOrInto(out, base)
		layerOrInto(out, delta)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// WithCodeRegexScan is the index-free variant: it scans every entry of
// every history. Kept for the E3 ablation benchmark quantifying what the
// inverted index buys at 100k+ histories.
func (s *Store) WithCodeRegexScan(system, pattern string) (*Bitset, error) {
	re, err := terminology.CompileCodePattern(pattern)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r := s.loadRev()
	out := NewBitset(r.hists.n)
	for i := range r.hists.n {
		h := r.hists.at(i)
		for j := range h.Entries {
			e := &h.Entries[j]
			if e.Code.IsZero() {
				continue
			}
			if system != "" && e.Code.System != system {
				continue
			}
			if re.MatchString(e.Code.Value) {
				out.Set(i)
				break
			}
		}
	}
	return out, nil
}

// WithType returns the patients having at least one entry of the type.
func (s *Store) WithType(t model.Type) *Bitset {
	r := s.loadRev()
	return growUnion(r.base.byType[t], r.delta.byType[t], r.hists.n)
}

// WithSource returns the patients having at least one entry from the source.
func (s *Store) WithSource(src model.Source) *Bitset {
	r := s.loadRev()
	return growUnion(r.base.bySource[src], r.delta.bySource[src], r.hists.n)
}

// Where returns the patients whose history satisfies pred; the general
// (scan) fallback for predicates the indexes cannot answer.
func (s *Store) Where(pred func(*model.History) bool) *Bitset {
	r := s.loadRev()
	out := NewBitset(r.hists.n)
	for i := range r.hists.n {
		if pred(r.hists.at(i)) {
			out.Set(i)
		}
	}
	return out
}

// Subset materializes a bitset as a sub-collection in display order — the
// paper's "extraction of sub-collections".
func (s *Store) Subset(b *Bitset) *model.Collection {
	r := s.loadRev()
	return r.collection().Subset(s.IDsOf(b))
}
