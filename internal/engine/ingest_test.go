package engine

import (
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// appendPatient appends one patient carrying a measurement per value,
// advancing the store's generation.
func appendPatient(t *testing.T, st *store.Store, id model.PatientID, values ...float64) {
	t.Helper()
	base := model.Date(2012, 1, 1)
	h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1960, 1, 1)})
	for i, v := range values {
		h.Add(model.Entry{ID: uint64(id)*10 + uint64(i), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: v})
	}
	if _, err := st.Append(store.AppendBatch{NewHistories: []*model.History{h}}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanMemoEpochedByGeneration: a plan memoized before an append must
// never answer a query after it — the memo holds one store generation,
// so the post-append execution plans (and caches) afresh, and the engine's
// answer reflects the appended patient immediately. This is the
// no-stale-answers contract observed directly on the memo rather than
// through timing.
func TestPlanMemoEpochedByGeneration(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{Shards: 2, CacheSize: 8})
	q := query.And{valueScan(0, 50), valueScan(1000, 1040)}

	before, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.plans.values(0)) == 0 {
		t.Fatal("no plan memoized by the first execution")
	}

	// Append one patient matching both conjuncts.
	appendPatient(t, st, 10001, 25, 1020)

	after, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if after.Len() != st.Len() {
		t.Fatalf("post-append bitset spans %d patients, store has %d", after.Len(), st.Len())
	}
	if got, want := after.Count(), before.Count()+1; got != want {
		t.Fatalf("post-append count = %d, want %d — stale answer served", got, want)
	}
	i, ok := st.Ordinal(10001)
	if !ok || !after.Get(i) {
		t.Fatal("appended patient missing from the post-append answer")
	}

	if len(e.plans.values(1)) == 0 {
		t.Error("post-append execution did not memoize under generation 1")
	}
	if n := len(e.plans.values(0)); n != 0 {
		t.Errorf("the memo still answers %d plans at generation 0", n)
	}
}

// TestResultCacheEpochedByGeneration: the result cache keyed at the old
// generation must miss after an append even for the identical expression,
// and CacheStats must count only the entries that can still answer.
func TestResultCacheEpochedByGeneration(t *testing.T) {
	st := store.New(fbCollection(100))
	e := New(st, Options{Shards: 1, CacheSize: 8})
	q := valueScan(0, 30)

	first, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	// Warm hit at the same generation.
	again, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if again.Count() != first.Count() {
		t.Fatalf("warm re-execution diverged: %d vs %d", again.Count(), first.Count())
	}

	if got := e.CacheStats(); got != (CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("warm stats = %+v", got)
	}

	appendPatient(t, st, 20001, 10)
	// No cached entry can answer now; the lifetime counters stay.
	if got := e.CacheStats(); got != (CacheStats{Hits: 1, Misses: 1}) {
		t.Errorf("stats after append = %+v, want no live entries and the same counters", got)
	}

	fresh, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fresh.Count(), first.Count()+1; got != want {
		t.Fatalf("post-append count = %d, want %d — result cache served a stale generation", got, want)
	}
}
