package store

import (
	"time"

	"pastas/internal/model"
)

// CompactionStats describes the fold history of a store.
type CompactionStats struct {
	Runs         uint64        `json:"runs"`
	LastEntries  int           `json:"last_entries"`  // delta entries folded by the last run
	LastPatients int           `json:"last_patients"` // delta patients folded by the last run
	LastLists    int           `json:"last_lists"`    // delta posting lists folded by the last run
	LastDuration time.Duration `json:"last_duration_ns"`
}

// Compact folds the delta postings into a new base layer — copying only
// the keys the delta touched — and publishes the result. Queries keep running
// against the previous revision throughout — the fold happens entirely on
// the side, then lands with one atomic pointer store.
//
// Compaction does NOT advance the generation: the folded revision answers
// every query identically to the revision it replaces (base ∪ delta is an
// exact invariant), so caches and pinned views keyed by generation stay
// valid. Only Append advances the generation.
func (s *Store) Compact() CompactionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cur := s.loadRev()
	if cur.deltaEntries == 0 && cur.deltaPatients == 0 {
		return cur.compaction
	}
	t0 := time.Now()
	n := cur.hists.n

	comp := cur.compaction
	comp.Runs++
	comp.LastEntries = cur.deltaEntries
	comp.LastPatients = cur.deltaPatients
	comp.LastLists = cur.delta.lists()

	ordBase := ordinalIndex(&cur.ids)
	folded := &postings{
		byCodeValue: foldLayer(cur.base.byCodeValue, cur.delta.byCodeValue, n),
		byType:      foldLayer(cur.base.byType, cur.delta.byType, n),
		bySource:    foldLayer(cur.base.bySource, cur.delta.bySource, n),
		byValue:     foldLayer(cur.base.byValue, cur.delta.byValue, n),
	}

	comp.LastDuration = time.Since(t0)
	next := &storeRev{
		gen:        cur.gen, // unchanged: the fold is invisible to readers
		hists:      cur.hists,
		ids:        cur.ids,
		ordBase:    ordBase,
		ordDelta:   map[model.PatientID]int{},
		entries:    cur.entries,
		base:       folded,
		delta:      newPostings(),
		codes:      cur.codes,
		stats:      cur.stats,
		ingest:     cur.ingest,
		compaction: comp,
		// col deliberately left nil: reading cur.col here would race its
		// lazy Once-guarded build; the folded revision rebuilds on demand.
		// The frame's holder is shared instead: same hists, same frame.
		frame:      cur.frame,
		maxEntryID: cur.computeMaxEntryID(),
	}
	next.maxIDOnce.Do(func() {})
	s.rev.Store(next)
	return comp
}

// foldLayer merges base and delta posting maps into one layer. A key the
// delta never touched keeps sharing its base bitset, however short (every
// layered read clamps to a bitset's own length); a touched one becomes
// the union of its base and delta bitsets at capacity n.
func foldLayer[K comparable](base, delta map[K]*Bitset, n int) map[K]*Bitset {
	out := make(map[K]*Bitset, len(base)+len(delta))
	for k, bs := range base {
		out[k] = bs
	}
	for k, bs := range delta {
		out[k] = growUnion(out[k], bs, n)
	}
	return out
}
