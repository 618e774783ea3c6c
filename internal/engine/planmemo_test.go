package engine

// The plan memo (Engine.plan) holds optimized plans by canonical
// expression key; executing a plan never changes the next one.

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// fbCollection builds a population where every patient carries two
// measurements: one drawn from [0,100) (patient i gets i%100) and one
// from [1000,1100) on a decorrelated cycle — so ValueBetween predicates
// over the two bands give precisely controlled, independently tunable
// selectivities, which the cost model reads off the store's value buckets
// to within a bucket's width.
func fbCollection(n int) *model.Collection {
	base := model.Date(2012, 1, 1)
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1960, 1, 1)})
		h.Add(model.Entry{
			ID: uint64(2 * i), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: float64(i % 100),
		})
		h.Add(model.Entry{
			ID: uint64(2*i + 1), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: 1000 + float64((i*37)%100),
		})
		hs[i] = h
	}
	return model.MustCollection(hs...)
}

func valueScan(lo, hi float64) query.Expr {
	return query.Has{Pred: query.ValueBetween{Lo: lo, Hi: hi}}
}

// TestFeedbackEpochSettles: re-running one query plans it once; every
// repeat is a memo hit on the one entry.
func TestFeedbackEpochSettles(t *testing.T) {
	st := store.New(fbCollection(300))
	e := New(st, Options{CacheSize: 8})
	q := query.And{valueScan(0, 59), valueScan(30, 89)}
	const n = 5
	for i := 0; i < n; i++ {
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if s := e.plans.stats(0); s.Entries != 1 || s.Hits != n-1 {
		t.Errorf("plan memo after %d runs: %d entries, %d hits; want 1 and %d", n, s.Entries, s.Hits, n-1)
	}
}

// TestPlanMemoKeepsColdEntry: executing a plan leaves its memo entry as
// it was.
func TestPlanMemoKeepsColdEntry(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{CacheSize: 0})
	q := query.And{valueScan(0, 89), valueScan(95, 99)}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}

	cold := e.plan(e.topoNow(), p)
	if _, err := e.ExecutePlan(cold); err != nil {
		t.Fatal(err)
	}
	if got, ok := e.plans.get(0, p.Key()); !ok || got.String() != cold.String() {
		t.Errorf("memoized plan evicted or replaced (ok=%v)", ok)
	}
}

// TestFeedbackOpaqueScansStayFresh: a plan holding a TextMatch — the one
// scan that reads histories, not the frame — is memoized like any other,
// and re-planning it answers the same as Eval.
func TestFeedbackOpaqueScansStayFresh(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{CacheSize: 0})
	text, err := query.NewTextMatch("^$")
	if err != nil {
		t.Fatal(err)
	}
	q := query.And{valueScan(0, 89), query.Has{Pred: text}}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	memoBefore := e.plans.stats(0).Entries
	first := e.plan(e.topoNow(), p)
	bits1, err := e.ExecutePlan(first)
	if err != nil {
		t.Fatal(err)
	}
	if e.plans.stats(0).Entries != memoBefore+1 {
		t.Error("text plan was not memoized")
	}
	again := e.plan(e.topoNow(), p)
	if again.String() != first.String() || e.plans.stats(0).Hits != 1 {
		t.Errorf("re-plan missed the memo: %s after %s", again, first)
	}
	bits2, err := e.ExecutePlan(again)
	if err != nil {
		t.Fatal(err)
	}
	if want := st.Where(q.Eval); !bits1.Equal(want) || !bits2.Equal(want) {
		t.Errorf("text plan answered %d then %d, Eval says %d", bits1.Count(), bits2.Count(), want.Count())
	}
}

// TestFeedbackResetWithCache: ResetCache empties the plan memo and the
// result cache.
func TestFeedbackResetWithCache(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{CacheSize: 8})
	if _, err := e.Execute(query.And{valueScan(0, 89), valueScan(95, 99)}); err != nil {
		t.Fatal(err)
	}
	if e.plans.stats(0).Entries == 0 || e.CacheStats().Entries == 0 {
		t.Fatal("execution memoized no plan or cached no result")
	}
	e.ResetCache()
	if plans, results := e.plans.stats(0).Entries, e.CacheStats().Entries; plans != 0 || results != 0 {
		t.Errorf("ResetCache left state: plans=%d results=%d", plans, results)
	}
}

// TestValueBandsPlanNarrowFirst: in {0,90} ∧ {60,65}, the narrow band's
// value-bucket bound runs first and the wide band gets none, on a local
// engine, on coordinators over 1, 4 and 16 local shards, and on a
// coordinator over a shard server (its stats cross the Stats RPC); all
// print one plan tree and answer EvalIndexed's cohort.
func TestValueBandsPlanNarrowFirst(t *testing.T) {
	col := fbCollection(3000)
	st := store.New(col)
	q := query.And{valueScan(0, 90), valueScan(60, 65)}
	want, err := query.EvalIndexed(st, q)
	if err != nil {
		t.Fatal(err)
	}
	engines := map[string]*Engine{"local": New(st, Options{Workers: 2})}
	for _, k := range []int{1, 4, 16} {
		e, err := NewFromBackends(LocalShards(st.Pin(), k), Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		engines[fmt.Sprintf("%d local shards", k)] = e
	}
	engines["shard server"] = startShardServers(t, col, 4, 1, RemoteOptions{Timeout: 30 * time.Second}).eng

	narrow, ok, err := bound(valueScan(60, 65))
	if err != nil || !ok || !strings.HasPrefix(narrow.String(), "index:value") {
		t.Fatalf("the narrow band's bound is %v (%v, %v), want a value-bucket lookup", narrow, ok, err)
	}
	if b, ok, _ := bound(valueScan(0, 90)); ok {
		t.Fatalf("the wide band got the bound %s", b)
	}
	var tree string
	for name, e := range engines {
		x, err := e.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		and, ok := x.Plan.(And)
		if !ok || len(and.Children) != 3 || and.Children[0].Key() != narrow.Key() ||
			strings.Count(x.Plan.Key(), "index:value") != 1 {
			t.Errorf("%s: planned %s, want %s first and no other bound", name, x.Plan, narrow)
		}
		_, body, _ := strings.Cut(x.String(), "\n")
		if tree == "" {
			tree = body
		} else if body != tree {
			t.Errorf("%s: explains\n%s\nwant\n%s", name, body, tree)
		}
		got, err := e.Execute(q)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Errorf("%s: %d patients, EvalIndexed says %d", name, got.Count(), want.Count())
		}
	}
}
