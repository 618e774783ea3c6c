package engine

// The in-process split across containers. Every other engine population
// fits one 65,536-row container, where a local engine's scans and tallies
// run on the calling goroutine alone; thinPopulation spans two full
// containers and a partial third, so spread hands out more than one unit.

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// thinPop is 140,000 patients: two full containers and 8,928 rows of a
// third.
const thinPop = 140_000

var thinFixture struct {
	once sync.Once
	col  *model.Collection
	st   *store.Store
}

// thinPopulation is thinPop hand-built patients of one to three entries
// each, every field drawn from a seeded source over the codes, types,
// sources, kinds, values and dates the parity leaves test, so that scans
// and analyses find matches in every container.
func thinPopulation(t testing.TB) (*model.Collection, *store.Store) {
	t.Helper()
	thinFixture.once.Do(func() {
		r := rand.New(rand.NewSource(140))
		codes := []model.Code{{System: "ICPC2", Value: "T90"}, {System: "ICPC2", Value: "K86"}, {System: "ICPC2", Value: "K87"},
			{System: "ICPC2", Value: "R74"}, {System: "ICPC2", Value: "A04"}, {System: "ICPC2", Value: "F92"},
			{System: "ICD10", Value: "E11.9"}, {System: "ICD10", Value: "I21"}, {System: "ATC", Value: "A10BA02"}, {System: "ATC", Value: "C07AB02"}}
		hs := make([]*model.History, thinPop)
		id := uint64(0)
		for i := range hs {
			h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1),
				Birth: model.Date(1925, 1, 1).AddDays(r.Intn(85 * 365)), Sex: model.Sex(r.Intn(3))})
			for k := 1 + r.Intn(3); k > 0; k-- {
				id++
				start := model.Date(2009, 1, 1).AddDays(r.Intn(4 * 365))
				e := model.Entry{ID: id, Start: start, End: start, Code: codes[r.Intn(len(codes))],
					Type: model.Type(1 + r.Intn(6)), Source: model.Source(1 + r.Intn(5)), Value: float64(100 + r.Intn(80))}
				if r.Intn(4) == 0 {
					e.Kind, e.End = model.Interval, start.AddDays(1+r.Intn(60))
				}
				if r.Intn(50) == 0 {
					e.Text = "akutt"
				}
				h.Add(e)
			}
			hs[i] = h
		}
		thinFixture.col = model.MustCollection(hs...)
		thinFixture.st = store.New(thinFixture.col)
	})
	return thinFixture.col, thinFixture.st
}

// TestContainerSplitParity: a local engine at Workers {1, 2, 4} over
// more than two containers answers the fixed parity expressions and 200
// random scan leaves as query.EvalIndexed does, and every analyzer kind,
// over the whole population and over a cohort, as its sequential
// reference does — so the one-worker answer and the split ones agree.
func TestContainerSplitParity(t *testing.T) {
	col, st := thinPopulation(t)
	var engines []*Engine
	for _, workers := range []int{1, 2, 4} {
		engines = append(engines, New(st, Options{Workers: workers}))
	}
	r := rand.New(rand.NewSource(42))
	exprs := fixedParityExprs()
	for range 200 {
		exprs = append(exprs, randScanLeaf(r, parityPatterns[r.Intn(len(parityPatterns))]))
	}
	for _, e := range exprs {
		want, err := query.EvalIndexed(st, e)
		if err != nil {
			t.Fatalf("EvalIndexed(%s): %v", e, err)
		}
		for _, eng := range engines {
			got, err := eng.Execute(e)
			if err != nil {
				t.Fatalf("workers=%d Execute(%s): %v", eng.workers, e, err)
			}
			if !got.Equal(want) {
				t.Fatalf("workers=%d %s: %d matches, EvalIndexed %d", eng.workers, e, got.Count(), want.Count())
			}
		}
	}
	cases := analyzeCases(t)
	for _, e := range []query.Expr{query.TrueExpr{}, query.Has{Pred: query.MustCode("", `T90|E11(\..*)?`)}} {
		bits, err := query.EvalIndexed(st, e)
		if err != nil {
			t.Fatal(err)
		}
		cohort := cohortOf(col, bits)
		for _, tc := range cases {
			want := tc.want(cohort)
			for _, eng := range engines {
				got, err := eng.Analyze(bits, tc.req)
				if err != nil {
					t.Fatalf("workers=%d %s over %s: %v", eng.workers, tc.name, e, err)
				}
				if !reflect.DeepEqual(tc.view(got), want) {
					t.Fatalf("workers=%d %s over %s: answer differs from the sequential reference\n got %+v\nwant %+v",
						eng.workers, tc.name, e, tc.view(got), want)
				}
			}
		}
	}
}

// TestLocalScansStopAtContext: under a cancelled or an expired context, a
// local ExecuteStatus — a bare scan, one under its index bound, or a run
// of scans fused into one pass — and a local AnalyzeStatus return the
// context's error, not a full answer; the
// result cache and the analysis memo stay empty, and no goroutine is
// left behind.
func TestLocalScansStopAtContext(t *testing.T) {
	_, st := thinPopulation(t)
	eng := New(st, Options{Workers: 4, CacheSize: 16})
	before := runtime.NumGoroutine()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	scans := []query.Expr{
		query.Has{Pred: query.ValueBetween{Lo: 120, Hi: 140}},
		query.Has{Pred: query.MustCode("", "T90"), MinCount: 2},
		query.And{query.Has{Pred: query.ValueBetween{Lo: 120, Hi: 140}}, query.AgeBetween{Lo: 20, Hi: 70, At: model.Date(2011, 1, 1)},
			query.SexIs(model.SexFemale), query.Has{Pred: scanText}},
	}
	for name, ctx := range map[string]context.Context{"cancelled": cancelled, "expired": expired} {
		for _, e := range scans {
			if b, _, err := eng.ExecuteStatus(ctx, e); b != nil || !errors.Is(err, ctx.Err()) {
				t.Errorf("%s ExecuteStatus(%s): answered %v, err %v; want %v", name, e, b != nil, err, ctx.Err())
			}
		}
		if p, _, err := eng.AnalyzeStatus(ctx, st.All(), utilizationRequest(caseWindow)); p != nil || !errors.Is(err, ctx.Err()) {
			t.Errorf("%s AnalyzeStatus: answered %v, err %v; want %v", name, p != nil, err, ctx.Err())
		}
	}
	gen := eng.Generation()
	if n := eng.cache.stats(gen).Entries; n != 0 {
		t.Errorf("result cache holds %d entries after cancelled queries", n)
	}
	if n := eng.analyses.stats(gen).Entries; n != 0 {
		t.Errorf("analysis memo holds %d entries after cancelled analyses", n)
	}
	settled(t, before)
}

// TestSpreadStopsAtContext: a context cancelled while units run stops
// every goroutine before its next unit; spread returns its error, having
// waited for all of them.
func TestSpreadStopsAtContext(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, workers := range []int{1, 2, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := spread(ctx, workers, 1000, func(int) func(int) {
			return func(int) {
				if ran.Add(1) == 3 {
					cancel()
				}
			}
		})
		cancel()
		if !errors.Is(err, context.Canceled) || ran.Load() >= 1000 || ran.Load() > int64(2+workers) {
			t.Errorf("workers=%d: spread ran %d of 1000 units after a cancel at the third, err %v", workers, ran.Load(), err)
		}
		if err := spread(context.Background(), workers, 1000, func(int) func(int) { return func(int) { ran.Add(1) } }); err != nil {
			t.Errorf("workers=%d: a live context: %v", workers, err)
		}
	}
	settled(t, before)
}

// settled waits up to a second for the goroutine count to fall back to
// before.
func settled(t *testing.T, before int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, %d before", runtime.NumGoroutine(), before)
		}
	}
}
