package store

import (
	"fmt"
	"slices"

	"pastas/internal/model"
)

// This file is the mutable-tail half of the live-ingest design: the
// append path that absorbs new entries and patients into per-key delta
// postings, the clamped layered-read helpers every consumer of
// base ∪ delta goes through, and the revision-pinning API (Pin / Freeze)
// that gives multi-call readers one consistent generation.

// HistoryUpdate appends entries to an existing patient's history.
type HistoryUpdate struct {
	ID      model.PatientID
	Entries []model.Entry
}

// AppendBatch is one unit of ingest: brand-new patients plus new entries
// for patients already in the store. Append takes ownership of the
// histories and entry slices (it sorts an update's entries in place);
// callers must not retain or mutate them.
type AppendBatch struct {
	NewHistories []*model.History
	Updates      []HistoryUpdate
}

// IngestStats reports cumulative append activity and the pending delta
// size. Snapshotted per revision — read it again after an Append to see
// the new numbers.
type IngestStats struct {
	Generation     uint64 `json:"generation"`
	Batches        uint64 `json:"batches"`
	EntriesApplied uint64 `json:"entries_applied"`
	PatientsAdded  uint64 `json:"patients_added"`
	DeltaEntries   int    `json:"delta_entries"`
	DeltaPatients  int    `json:"delta_patients"`
	DeltaLists     int    `json:"delta_lists"`
	Compactions    uint64 `json:"compactions"`
}

// Generation returns the store's generation counter. It advances on every
// Append (compaction is semantically invisible and does not advance it);
// everything derived from store contents — plan caches, memoized stats —
// is epoched by this value.
func (s *Store) Generation() uint64 { return s.loadRev().gen }

// Ingest returns cumulative ingest counters for the current revision.
func (s *Store) Ingest() IngestStats {
	r := s.loadRev()
	st := r.ingest
	st.Generation = r.gen
	st.DeltaEntries = r.deltaEntries
	st.DeltaPatients = r.deltaPatients
	st.DeltaLists = r.delta.lists()
	st.Compactions = r.compaction.Runs
	return st
}

// LastCompaction reports background-compaction statistics.
func (s *Store) LastCompaction() CompactionStats { return s.loadRev().compaction }

// Pin returns a full-population View over the current revision. Unlike
// the Store's ad-hoc read methods, every call on the returned view
// answers from the same generation.
func (s *Store) Pin() *View {
	r := s.loadRev()
	return &View{r: r, lo: 0, hi: r.hists.n}
}

// Freeze returns a Store pinned to the current revision — appends to the
// original are invisible to it. Used where an API needs a *Store but the
// caller needs generation consistency across calls (the reference
// interpreter under concurrent ingest). Appending to a frozen store forks
// it: an append writes only pages it copied, so neither store's appends
// change what the other's pins read. The two share the frame's code
// dictionary, so their appends must not run at the same time.
func (s *Store) Freeze() *Store {
	out := &Store{}
	out.rev.Store(s.loadRev())
	return out
}

// MaxEntryID returns the largest entry ID present, so an incremental
// consumer can seed its ID counter past everything batch-built. Computed
// lazily per revision (appends track it incrementally).
func (s *Store) MaxEntryID() uint64 { return s.loadRev().computeMaxEntryID() }

// computeMaxEntryID scans for the max entry ID the first time it is
// asked for on a revision whose constructor did not stamp it (snapshot
// loads); constructor- and append-built revisions consume the Once at
// build time so the scan never runs.
func (r *storeRev) computeMaxEntryID() uint64 {
	r.maxIDOnce.Do(func() {
		var max uint64
		for i := range r.hists.n {
			h := r.hists.at(i)
			for j := range h.Entries {
				if h.Entries[j].ID > max {
					max = h.Entries[j].ID
				}
			}
		}
		r.maxEntryID = max
	})
	return r.maxEntryID
}

// --- layered read helpers -------------------------------------------------
//
// Bitsets in a layer may be shorter than the current population (they were
// created at an older revision's size), so every helper clamps the range it
// touches to the bitset's own capacity; bits past it are implicitly zero.

// layerOrInto ORs a whole layer bitset into out (out at least as long).
func layerOrInto(out, bs *Bitset) {
	if bs != nil {
		out.OrAt(bs, 0)
	}
}

// layerGet reports bit i across one layer bitset.
func layerGet(bs *Bitset, i int) bool {
	return bs != nil && i < bs.Len() && bs.Get(i)
}

// layeredHas reports bit i across both layers.
func layeredHas(base, delta *Bitset, i int) bool {
	return layerGet(base, i) || layerGet(delta, i)
}

// layerAnyInRange reports whether any bit in [lo, hi) is set in one layer.
func layerAnyInRange(bs *Bitset, lo, hi int) bool {
	if bs == nil {
		return false
	}
	if n := bs.Len(); hi > n {
		hi = n
	}
	return lo < hi && bs.AnyInRange(lo, hi)
}

// layerOrSlice ORs bits [lo, hi) of one layer bitset into out, where out's
// bit 0 corresponds to absolute ordinal lo.
func layerOrSlice(out, bs *Bitset, lo, hi int) {
	if bs == nil {
		return
	}
	if n := bs.Len(); hi > n {
		hi = n
	}
	if lo < hi {
		out.OrSliceOf(bs, lo, hi)
	}
}

// growUnion returns a ∪ b at capacity n (either may be nil or short),
// each container allocated once; b nil makes it a growing clone of a.
func growUnion(a, b *Bitset, n int) *Bitset {
	out := NewBitset(n)
	for i := range out.cs {
		var x, y container
		if a != nil && i < len(a.cs) {
			x = a.cs[i]
		}
		if b != nil && i < len(b.cs) {
			y = b.cs[i]
		}
		out.cs[i] = orContainers(&x, &y)
	}
	return out
}

// --- append ---------------------------------------------------------------

// mapCOW copy-on-writes one delta posting map for an append batch: the
// map itself is cloned up front (shallow — bitset pointers shared with the
// previous revision), and each key's bitset is cloned-with-growth the
// first time the batch touches it.
type mapCOW[K comparable] struct {
	base   map[K]*Bitset // the revision's base layer, read only
	m      map[K]*Bitset
	card   map[K]int // the new revision's counts
	cloned map[K]bool
	n      int // capacity for grown bitsets
	at     int // the ordinal last marked, and up to 16 keys marked for it
	seen   []K
}

func newMapCOW[K comparable](base, delta map[K]*Bitset, card map[K]int, n int) *mapCOW[K] {
	m := make(map[K]*Bitset, len(delta)+8)
	for k, v := range delta {
		m[k] = v
	}
	return &mapCOW[K]{base: base, m: m, card: card, cloned: make(map[K]bool), n: n, at: -1}
}

// mark sets bit i for key k, cloning the key's bitset on first touch, and
// counts the patient — unless base ∪ delta holds it already. That keeps
// the disjointness invariant (a patient bit lives in one layer), which
// also makes the counts exact.
func (c *mapCOW[K]) mark(k K, i int) {
	if i != c.at { // a history's entries repeat their keys: look each up once
		c.at, c.seen = i, c.seen[:0]
	} else if slices.Contains(c.seen, k) {
		return
	}
	if len(c.seen) < 16 { // bounded: a history may hold thousands of codes
		c.seen = append(c.seen, k)
	}
	if layeredHas(c.base[k], c.m[k], i) {
		return
	}
	if !c.cloned[k] {
		c.m[k] = growUnion(c.m[k], nil, c.n)
		c.cloned[k] = true
	}
	c.m[k].Set(i)
	c.card[k]++
}

// Append applies one batch and publishes a new revision with the
// generation advanced by one. New-patient IDs must be absent from the
// store and unique within the batch; update IDs must be present. The
// batch is validated before anything is published, so a failed Append
// leaves the store untouched. Readers are never blocked: they keep
// answering from the previous revision until the atomic publish. The new
// revision forks the per-patient arrays and copies only the pages it
// writes — the updated patients' and the tail — and an update merges its
// entries into the history, which is already sorted.
func (s *Store) Append(b AppendBatch) (uint64, error) {
	if len(b.NewHistories) == 0 && !slices.ContainsFunc(b.Updates, func(u HistoryUpdate) bool { return len(u.Entries) > 0 }) {
		return s.Generation(), nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.loadRev()
	n2 := cur.hists.n + len(b.NewHistories)

	// Validate the whole batch before building anything.
	seen := make(map[model.PatientID]bool, len(b.NewHistories))
	for _, h := range b.NewHistories {
		if h == nil {
			return cur.gen, fmt.Errorf("store: append: nil history")
		}
		id := h.Patient.ID
		if _, ok := cur.ordinalOf(id); ok {
			return cur.gen, fmt.Errorf("store: append: patient %d already present", id)
		}
		if seen[id] {
			return cur.gen, fmt.Errorf("store: append: duplicate new patient %d in batch", id)
		}
		seen[id] = true
	}
	for _, u := range b.Updates {
		if _, ok := cur.ordinalOf(u.ID); !ok {
			return cur.gen, fmt.Errorf("store: append: update for unknown patient %d", u.ID)
		}
	}

	hists2, ids2 := cur.hists.fork(), cur.ids.fork()
	ordDelta2 := make(map[model.PatientID]int, len(cur.ordDelta)+len(b.NewHistories))
	for k, v := range cur.ordDelta {
		ordDelta2[k] = v
	}

	stats2 := cur.stats.clone()
	codeCOW := newMapCOW(cur.base.byCodeValue, cur.delta.byCodeValue, stats2.codeCard, n2)
	typeCOW := newMapCOW(cur.base.byType, cur.delta.byType, stats2.typeCard, n2)
	sourceCOW := newMapCOW(cur.base.bySource, cur.delta.bySource, stats2.sourceCard, n2)
	valueCOW := newMapCOW(cur.base.byValue, cur.delta.byValue, stats2.valueCard, n2)

	codes2 := cur.codes
	codesGrown := false
	maxID := cur.computeMaxEntryID()

	added := 0
	var touched []int // ordinals whose history this batch replaces or adds
	// mark indexes one entry at ordinal i, and grows the vocabulary by a
	// code neither layer knows.
	mark := func(i int, e *model.Entry) {
		if e.ID > maxID {
			maxID = e.ID
		}
		if !e.Code.IsZero() {
			k := codeKey{e.Code.System, e.Code.Value}
			_, inDelta := codeCOW.m[k]
			if _, inBase := cur.base.byCodeValue[k]; !inDelta && !inBase {
				if !codesGrown {
					codes2 = append([]model.Code(nil), cur.codes...)
					codesGrown = true
				}
				codes2 = append(codes2, model.Code{System: k.system, Value: k.value})
			}
			codeCOW.mark(k, i)
		}
		typeCOW.mark(e.Type, i)
		sourceCOW.mark(e.Source, i)
		valueCOW.mark(ValueBucket(e.Value), i)
	}

	for _, u := range b.Updates {
		if len(u.Entries) == 0 {
			continue
		}
		i, _ := cur.ordinalOf(u.ID)
		// A published history has its sorted flag set, or concurrent
		// readers calling Sort would race: Merged returns one.
		hists2.set(i, hists2.at(i).Merged(u.Entries))
		for j := range u.Entries {
			mark(i, &u.Entries[j])
		}
		touched = append(touched, i)
		added += len(u.Entries)
	}

	for _, h := range b.NewHistories {
		i := hists2.n
		h.Sort()
		hists2.push(h)
		ids2.push(h.Patient.ID)
		ordDelta2[h.Patient.ID] = i
		touched = append(touched, i)
		for j := range h.Entries {
			mark(i, &h.Entries[j])
		}
		year, _ := YearOf(h.Patient.Birth)
		stats2.birthCard[year]++
		added += len(h.Entries)
	}

	if codesGrown {
		sortCodes(codes2)
	}
	stats2.Patients = n2
	stats2.Entries = cur.entries + added
	stats2.codes = codes2
	stats2.DistinctCodes = len(codes2)

	ingest2 := cur.ingest
	ingest2.Batches++
	ingest2.EntriesApplied += uint64(added)
	ingest2.PatientsAdded += uint64(len(b.NewHistories))

	next := &storeRev{
		gen:           cur.gen + 1,
		hists:         hists2,
		ids:           ids2,
		ordBase:       cur.ordBase,
		ordDelta:      ordDelta2,
		entries:       cur.entries + added,
		base:          cur.base,
		delta:         &postings{byCodeValue: codeCOW.m, byType: typeCOW.m, bySource: sourceCOW.m, byValue: valueCOW.m},
		deltaEntries:  cur.deltaEntries + added,
		deltaPatients: cur.deltaPatients + len(b.NewHistories),
		codes:         codes2,
		stats:         stats2,
		ingest:        ingest2,
		compaction:    cur.compaction,
		maxEntryID:    maxID,
		frame:         cur.frame.carry(&hists2, touched),
	}
	next.maxIDOnce.Do(func() {})
	s.rev.Store(next)
	return next.gen, nil
}
