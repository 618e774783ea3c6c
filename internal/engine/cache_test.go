package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// TestEpochLRU pins the one bounded map every generation-derived engine
// structure is built on. Each step is one call on a capacity-2 cache and
// its answer: get → val, ok (hit); put → ok (stored); remove → ok
// (existed); values → vals, most recently used first; stats → vals =
// hits, misses, live entries.
func TestEpochLRU(t *testing.T) {
	type step struct {
		op   string
		gen  uint64
		key  string
		val  int
		ok   bool
		vals []int
	}
	cases := map[string][]step{
		"newer generation drops everything": {
			{"put", 1, "a", 1, true, nil}, {"put", 1, "b", 2, true, nil},
			{"get", 2, "a", 0, false, nil}, {"values", 2, "", 0, false, nil}, {"get", 1, "b", 0, false, nil}},
		"stale get misses, stale put and remove do nothing": {
			{"put", 2, "a", 1, true, nil}, {"get", 1, "a", 0, false, nil}, {"put", 1, "b", 2, false, nil},
			{"remove", 1, "a", 0, false, nil}, {"values", 2, "", 0, false, []int{1}}},
		"least recently used is evicted at capacity": {
			{"put", 0, "a", 1, true, nil}, {"put", 0, "b", 2, true, nil}, {"get", 0, "a", 1, true, nil},
			{"put", 0, "c", 3, true, nil}, {"get", 0, "b", 0, false, nil}, {"values", 0, "", 0, false, []int{3, 1}}},
		"put on an existing key refreshes it": {
			{"put", 0, "a", 1, true, nil}, {"put", 0, "b", 2, true, nil}, {"put", 0, "a", 3, true, nil},
			{"put", 0, "c", 4, true, nil}, {"values", 0, "", 0, false, []int{4, 3}}},
		"remove at the current generation": {
			{"put", 0, "a", 1, true, nil}, {"remove", 0, "a", 0, true, nil}, {"remove", 0, "a", 0, false, nil},
			{"get", 0, "a", 0, false, nil}},
		"values and stats at the current generation only": {
			{"put", 1, "a", 1, true, nil}, {"get", 1, "a", 1, true, nil}, {"stats", 1, "", 0, false, []int{1, 0, 1}},
			{"put", 2, "b", 2, true, nil}, {"values", 1, "", 0, false, nil}, {"values", 2, "", 0, false, []int{2}},
			{"stats", 3, "", 0, false, []int{1, 0, 0}}},
		"reset zeroes the counters": {
			{"put", 0, "a", 1, true, nil}, {"get", 0, "a", 1, true, nil}, {"get", 0, "b", 0, false, nil},
			{"reset", 0, "", 0, false, nil}, {"stats", 0, "", 0, false, []int{0, 0, 0}}},
	}
	for name, steps := range cases {
		c := newEpochLRU[string, int](2)
		for i, s := range steps {
			val, ok, vals := 0, false, []int(nil)
			switch s.op {
			case "get":
				val, ok = c.get(s.gen, s.key)
			case "put":
				val, ok = s.val, c.put(s.gen, s.key, s.val)
			case "remove":
				ok = c.remove(s.gen, s.key)
			case "values":
				vals = c.values(s.gen)
			case "stats":
				st := c.stats(s.gen)
				vals = []int{int(st.Hits), int(st.Misses), st.Entries}
			case "reset":
				c.reset()
			}
			if val != s.val || ok != s.ok || !slices.Equal(vals, s.vals) {
				t.Errorf("%s, step %d: %s(%d, %q) = %d, %v, %v; want %d, %v, %v",
					name, i, s.op, s.gen, s.key, val, ok, vals, s.val, s.ok, s.vals)
			}
		}
	}

	// Under -race: every method from many goroutines, across generations.
	c := newEpochLRU[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				gen, key := uint64(i/100), fmt.Sprintf("k%d", (g+i)%16)
				if v, ok := c.get(gen, key); ok && v != len(key) {
					t.Errorf("get(%q) = %d", key, v)
				}
				c.put(gen, key, len(key))
				c.values(gen)
				c.stats(gen)
				if i%50 == 0 {
					c.remove(gen, key)
					c.reset()
				}
			}
		}(g)
	}
	wg.Wait()
	if n := c.stats(4).Entries; n > 8 {
		t.Errorf("LRU grew past capacity: %d entries", n)
	}
}

// TestPlanCacheCloneIsolation: every bitset the engine hands out is the
// caller's — mutating what Execute, CohortBits and a refinement return,
// and the scan bound evalScan narrows by its mask, never corrupts what the
// result cache, the workspace or the bound cache answer next.
func TestPlanCacheCloneIsolation(t *testing.T) {
	_, st, _ := parityEngines(t)
	e := New(st, Options{Shards: 4, Workers: 4, CacheSize: 32})
	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	narrow := query.And{parent, query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2}}
	bounded := query.Has{Pred: query.MustCode("", `T90|K86`), MinCount: 2}
	// check reads q's answer three times — from Execute, or from the named
	// cohort — mutating each answer once compared.
	check := func(q query.Expr, cohort string) {
		t.Helper()
		want, err := query.EvalIndexed(st, q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			var b *store.Bitset
			if cohort == "" {
				b, err = e.Execute(q)
			} else {
				b, _, err = e.CohortBits(cohort)
			}
			if err != nil || !b.Equal(want) {
				t.Fatalf("%s: call %d diverges from EvalIndexed (%v)", q, i, err)
			}
			b.Not()
		}
	}

	check(parent, "")
	if _, err := e.Materialize(context.Background(), "p", parent); err != nil {
		t.Fatal(err)
	}
	check(parent, "p")
	if _, ref, err := e.Refine(context.Background(), "n", narrow); err != nil || ref.Mode != RefineNarrow {
		t.Fatalf("Refine: %+v, %v", ref, err)
	}
	check(narrow, "n")
	check(narrow, "")
	// The first mask narrows the scan's cached bound; the second, once
	// bounded is cached, intersects the cached result.
	check(query.And{query.Has{Pred: query.TypeIs(model.TypeStay)}, bounded}, "")
	check(bounded, "")
	check(query.And{query.Has{Pred: query.TypeIs(model.TypeMedication)}, bounded}, "")
	check(bounded, "")
}

// TestPlanCacheConcurrentGetPut hammers one engine's result cache from
// many goroutines — 8 expressions over capacity 4, so entries are evicted
// and replaced constantly — while every caller mutates what it got back
// and stats and resets interleave. Under -race this pins the invariant
// behind cloning outside the mutex: cached bitsets are never written again.
func TestPlanCacheConcurrentGetPut(t *testing.T) {
	_, st, _ := parityEngines(t)
	e := New(st, Options{Shards: 4, Workers: 4, CacheSize: 4})
	exprs := make([]query.Expr, len(parityPatterns))
	counts := make([]int, len(parityPatterns))
	for i, pat := range parityPatterns {
		exprs[i] = query.Has{Pred: query.MustCode("", pat), MinCount: 2}
		want, err := query.EvalIndexed(st, exprs[i])
		if err != nil {
			t.Fatal(err)
		}
		counts[i] = want.Count()
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				k := (g + i) % len(exprs)
				b, err := e.Execute(exprs[k])
				if err != nil || b.Count() != counts[k] {
					t.Errorf("Execute(%s): %v, want %d patients", exprs[k], err, counts[k])
					return
				}
				b.Not()
				switch i % 40 {
				case 0:
					e.CacheStats()
				case 1:
					e.ResetCache()
				}
			}
		}(g)
	}
	wg.Wait()
	if stats := e.CacheStats(); stats.Hits+stats.Misses == 0 || stats.Entries > 4 {
		t.Errorf("stats %+v: no cache traffic, or the LRU grew past capacity", stats)
	}
}
