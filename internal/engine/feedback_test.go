package engine

import (
	"fmt"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// fbCollection builds a population where every patient carries two
// measurements: one drawn from [0,100) (patient i gets i%100) and one
// from [1000,1100) on a decorrelated cycle — so ValueBetween predicates
// over the two bands give precisely controlled, independently tunable
// selectivities that the cost model's uniform prior (defaultSel = 0.5)
// knows nothing about.
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

// TestFeedbackReordersCorrelatedConjunction: two unbounded scans with
// identical priors but wildly different true selectivities. The cold
// plan cannot tell them apart (tie → compile order); after one
// execution the recorded cardinalities must re-order the conjunction
// cheapest-first, under a new feedback epoch, with identical results.
func TestFeedbackReordersCorrelatedConjunction(t *testing.T) {
	st := store.New(fbCollection(400))
	e := New(st, Options{Shards: 2, CacheSize: 0})

	wide := valueScan(0, 94)    // true sel 0.95
	narrow := valueScan(90, 94) // true sel 0.05, contained in wide
	q := query.And{wide, narrow}

	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	cold := e.plan(e.topoNow(), p).(And)
	if got := cold.Children[0].(Scan).Expr.String(); got != wide.String() {
		t.Fatalf("cold plan starts with %q, want compile order (tied priors)", got)
	}
	if e.FeedbackEpoch() != 0 {
		t.Fatalf("epoch before execution = %d", e.FeedbackEpoch())
	}

	coldBits, err := e.ExecutePlan(cold)
	if err != nil {
		t.Fatal(err)
	}
	if e.FeedbackEpoch() == 0 {
		t.Fatal("execution recorded no feedback")
	}

	warm := e.plan(e.topoNow(), p).(And)
	if got := warm.Children[0].(Scan).Expr.String(); got != narrow.String() {
		t.Errorf("feedback re-plan starts with %q, want the selective scan %q", got, narrow.String())
	}
	warmBits, err := e.ExecutePlan(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !coldBits.Equal(warmBits) {
		t.Error("re-ordered plan changed the cohort")
	}
	if want := 400 / 100 * 5; warmBits.Count() != want {
		t.Errorf("cohort = %d patients, want %d", warmBits.Count(), want)
	}
}

// TestFeedbackDPBeatsGreedy: three scans where the greedy order (leaf
// cardinalities only) is wrong because two children are anti-correlated
// — each matches half the population but their conjunction is 5%. Only
// the join-order DP, fed the observed prefix cardinality, can see that
// running them first beats leading with the individually-smallest child.
func TestFeedbackDPBeatsGreedy(t *testing.T) {
	st := store.New(fbCollection(1000))
	e := New(st, Options{Shards: 1, CacheSize: 0})

	a := valueScan(0, 49)      // 50%, band one
	b := valueScan(45, 94)     // 50%, band one: overlap with a is 5%
	c := valueScan(1000, 1039) // 40%, band two (independent)
	q := query.And{a, b, c}

	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}
	coldBits, err := e.ExecutePlan(e.plan(e.topoNow(), p))
	if err != nil {
		t.Fatal(err)
	}

	// Leaf feedback alone would put c (40%) first; the observed a∧b
	// prefix (5%) makes [a, b, c] cheaper: 1 + 0.5 + 0.05 < 1 + 0.4 +
	// 0.4·0.5 in scan units.
	warm := e.plan(e.topoNow(), p).(And)
	last := warm.Children[2].(Scan).Expr.String()
	if last != c.String() {
		t.Errorf("DP order = [%s, %s, %s], want the anti-correlated pair first",
			warm.Children[0], warm.Children[1], warm.Children[2])
	}
	warmBits, err := e.ExecutePlan(warm)
	if err != nil {
		t.Fatal(err)
	}
	if !coldBits.Equal(warmBits) {
		t.Error("DP-ordered plan changed the cohort")
	}
}

// TestFeedbackEpochSettles: re-running a stable workload must not keep
// advancing the epoch (observations within 10% are confirmations), so
// the plan memo converges to cache hits instead of re-planning forever.
func TestFeedbackEpochSettles(t *testing.T) {
	st := store.New(fbCollection(300))
	e := New(st, Options{Shards: 2, CacheSize: 8})
	q := query.And{valueScan(0, 59), valueScan(30, 89)}
	for i := 0; i < 2; i++ {
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	settled := e.FeedbackEpoch()
	for i := 0; i < 3; i++ {
		if _, err := e.Execute(q); err != nil {
			t.Fatal(err)
		}
	}
	if e.FeedbackEpoch() != settled {
		t.Errorf("epoch kept advancing on a stable workload: %d → %d", settled, e.FeedbackEpoch())
	}
	if e.plans.stats(0).Entries == 0 {
		t.Error("no plans memoized")
	}
}

// TestPlanMemoKeepsColdEntry: a feedback re-plan lands under the new
// epoch's key; the cold-stats plan stays retrievable under its own.
func TestPlanMemoKeepsColdEntry(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{Shards: 1, CacheSize: 0})
	q := query.And{valueScan(0, 89), valueScan(95, 99)}
	p, err := Compile(q)
	if err != nil {
		t.Fatal(err)
	}

	cold := e.plan(e.topoNow(), p)
	epoch0 := e.FeedbackEpoch()
	if _, err := e.ExecutePlan(cold); err != nil {
		t.Fatal(err)
	}
	epoch1 := e.FeedbackEpoch()
	if epoch1 == epoch0 {
		t.Fatal("execution did not advance the epoch")
	}
	warm := e.plan(e.topoNow(), p)
	if warm.String() == cold.String() {
		t.Fatal("re-plan produced the cold plan; feedback had no effect")
	}

	if got, ok := e.plans.get(0, planKey{epoch0, p.Key()}); !ok || got.String() != cold.String() {
		t.Errorf("cold-epoch plan evicted or replaced (ok=%v)", ok)
	}
	if got, ok := e.plans.get(0, planKey{epoch1, p.Key()}); !ok || got.String() != warm.String() {
		t.Errorf("warm-epoch plan missing (ok=%v)", ok)
	}
}

// TestFeedbackOpaqueScansStayFresh: opaque scans (per-compile keys) are
// never memoized across compilations, but within one compiled plan the
// key is stable, so feedback still improves a re-planned opaque plan.
func TestFeedbackOpaqueScansStayFresh(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{Shards: 1, CacheSize: 0})
	opaque := query.Has{Pred: opaquePred{
		name: "custom",
		fn:   func(en *model.Entry) bool { return en.Value < 10 },
	}}
	p, err := Compile(query.And{valueScan(0, 89), opaque})
	if err != nil {
		t.Fatal(err)
	}
	if cacheable(p) {
		t.Fatal("plan with an opaque predicate classified cacheable")
	}
	memoBefore := e.plans.stats(0).Entries
	bits1, err := e.ExecutePlan(e.plan(e.topoNow(), p))
	if err != nil {
		t.Fatal(err)
	}
	if e.plans.stats(0).Entries != memoBefore {
		t.Error("opaque plan was memoized")
	}
	// Same compiled plan, re-planned: feedback applies via the stable
	// per-compile key.
	bits2, err := e.ExecutePlan(e.plan(e.topoNow(), p))
	if err != nil {
		t.Fatal(err)
	}
	if !bits1.Equal(bits2) {
		t.Error("opaque re-plan changed the cohort")
	}
}

// TestFeedbackResetWithCache: ResetCache must drop feedback and memoized
// plans along with cached results, restoring truly cold planning.
func TestFeedbackResetWithCache(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{Shards: 1, CacheSize: 8})
	if _, err := e.Execute(query.And{valueScan(0, 89), valueScan(95, 99)}); err != nil {
		t.Fatal(err)
	}
	if e.FeedbackEpoch() == 0 {
		t.Fatal("no feedback recorded")
	}
	e.ResetCache()
	fb, plans := e.fb.obs.stats(0).Entries, e.plans.stats(0).Entries
	if e.FeedbackEpoch() != 0 || fb != 0 || plans != 0 {
		t.Errorf("ResetCache left state: epoch=%d fb=%d plans=%d", e.FeedbackEpoch(), fb, plans)
	}
}

// TestFeedbackLRUBounded: the observation store must evict, not grow.
func TestFeedbackLRUBounded(t *testing.T) {
	f := newFeedback(8)
	for i := 0; i < 100; i++ {
		f.observe(0, fmt.Sprintf("k%d", i), i)
	}
	if n := f.obs.stats(0).Entries; n != 8 {
		t.Fatalf("size = %d, want 8", n)
	}
	if _, ok := f.obs.get(0, "k0"); ok {
		t.Error("oldest entry survived eviction")
	}
	if rows, ok := f.obs.get(0, "k99"); !ok || rows != 99 {
		t.Errorf("newest entry = %d, %v", rows, ok)
	}
	// Confirmations within 10% neither replace the value nor advance the
	// epoch.
	before := f.epoch.Load()
	f.observe(0, "k99", 95)
	if rows, _ := f.obs.get(0, "k99"); f.epoch.Load() != before || rows != 99 {
		t.Errorf("a within-10%% confirmation advanced the epoch or replaced 99 by %d", rows)
	}
	f.observe(0, "k99", 9)
	if f.epoch.Load() == before {
		t.Error("a 10× cardinality shift did not advance the epoch")
	}
	// An observation at a superseded generation advances nothing.
	f.observe(1, "k1", 1)
	before = f.epoch.Load()
	f.observe(0, "k2", 2)
	if f.epoch.Load() != before {
		t.Error("a stale-generation observation advanced the epoch")
	}
}
