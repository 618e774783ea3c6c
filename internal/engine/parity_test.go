package engine

// Parity: the engine must return byte-identical bitsets to both the plain
// scan evaluator (query.Eval per history) and the legacy single-store
// interpreter (query.EvalIndexed), across randomized expressions and
// shard counts — including one shard and more shards than patients.

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// parityPop is small enough to keep the property test fast but large
// enough that every registry, code system and shard sees traffic.
const parityPop = 600

var parityFixture struct {
	col     *model.Collection
	st      *store.Store
	engines []*Engine // a local engine, then coordinators over 1, 4, 16 and parityPop+7 LocalShards
}

// shardedEngine is a coordinator over k contiguous LocalBackends of st
// (LocalShards): what a local engine answers, through the slice-and-merge
// path a coordinator runs over shard servers.
func shardedEngine(t testing.TB, st *store.Store, k int, opts Options) *Engine {
	t.Helper()
	e, err := NewFromBackends(LocalShards(st.Pin(), k), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func parityEngines(t testing.TB) (*model.Collection, *store.Store, []*Engine) {
	t.Helper()
	if parityFixture.st == nil {
		col, _, err := integrate.Build(synth.Generate(synth.DefaultConfig(parityPop)), integrate.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		st := store.New(col)
		parityFixture.col = col
		parityFixture.st = st
		opts := Options{Workers: 4, CacheSize: 32}
		parityFixture.engines = []*Engine{New(st, opts)}
		for _, shards := range []int{1, 4, 16, parityPop + 7} {
			parityFixture.engines = append(parityFixture.engines, shardedEngine(t, st, shards, opts))
		}
	}
	return parityFixture.col, parityFixture.st, parityFixture.engines
}

var (
	parityPatterns = []string{"T90", `K8.`, `F.*|H.*`, `E11(\..*)?`, `A0.`, `.*9`, "R74", `T90|K86`}
	paritySystems  = []string{"", "ICPC2", "ICD10", "ATC"}
)

// randScanLeaf draws one of the criteria only a scan answers, over every
// predicate the frame matcher compiles — and TextMatch, which it does not,
// so the history fallback is drawn too.
func randScanLeaf(r *rand.Rand, pat string) query.Expr {
	pred := func() query.EventPred {
		switch r.Intn(8) {
		case 0:
			lo := 110 + r.Intn(60) // systolic pressures; Hi < Lo one time in eight
			return query.AllOf{query.TypeIs(model.TypeMeasurement), query.ValueBetween{Lo: float64(lo), Hi: float64(lo - 5 + r.Intn(40))}}
		case 1:
			return query.KindIs(model.Kind(r.Intn(2)))
		case 2:
			from := model.Date(2009, 1, 1).AddDays(r.Intn(4 * 365))
			return query.InPeriod(model.Period{Start: from, End: from.AddDays(r.Intn(400))})
		case 3:
			return query.NotEv{P: query.TypeIs(model.Type(1 + r.Intn(6)))}
		case 4:
			union := query.AnyOf{query.SourceIs(model.Source(1 + r.Intn(5))), query.MustCode(paritySystems[r.Intn(len(paritySystems))], pat)}
			if r.Intn(2) == 0 { // an unbounded branch leaves the union unbounded
				union = append(union, query.KindIs(model.Kind(r.Intn(2))))
			}
			return union
		case 5:
			return scanText
		case 6:
			return query.TypeIs(model.Type(1 + r.Intn(6)))
		default:
			return query.MustCode(paritySystems[r.Intn(len(paritySystems))], pat)
		}
	}
	switch r.Intn(4) {
	case 0:
		return query.Sequence{Steps: []query.Step{{Pred: pred()},
			{Pred: pred(), MinGap: query.Days(r.Intn(30)), MaxGap: query.Days(r.Intn(400))}}}
	case 1:
		return query.During{Interval: query.AnyOf{query.TypeIs(model.TypeStay), query.TypeIs(model.TypeMedication)}, Event: pred()}
	case 2:
		return query.Has{Pred: []query.EventPred{query.TypeIs(model.Type(1 + r.Intn(6))), query.SourceIs(model.Source(1 + r.Intn(5)))}[r.Intn(2)],
			MinCount: 2 + r.Intn(8)}
	default:
		return query.Has{Pred: pred(), MinCount: r.Intn(3)}
	}
}

func randLeaf(r *rand.Rand) query.Expr {
	pat := parityPatterns[r.Intn(len(parityPatterns))]
	switch r.Intn(14) {
	case 9, 10, 11, 12, 13:
		return randScanLeaf(r, pat)
	case 0:
		return query.TrueExpr{}
	case 1:
		return query.Has{Pred: query.TypeIs(model.Type(1 + r.Intn(6)))}
	case 2:
		return query.Has{Pred: query.SourceIs(model.Source(1 + r.Intn(5)))}
	case 3:
		// MinCount > 1 forces the scan fallback.
		return query.Has{Pred: query.MustCode("", pat), MinCount: 2 + r.Intn(2)}
	case 4:
		return query.Has{Pred: query.AllOf{
			query.TypeIs(model.TypeDiagnosis),
			query.MustCode([]string{"", "ICPC2", "ICD10"}[r.Intn(3)], pat)}}
	case 5:
		return query.Has{Pred: query.AllOf{
			query.TypeIs(model.TypeMedication), query.MustCode("ATC", `A.*|C.*`)}}
	case 6:
		lo := 10 + r.Intn(50)
		return query.AgeBetween{Lo: lo, Hi: lo + r.Intn(40), At: model.Date(2011, 1, 1)}
	case 7:
		return query.SexIs(model.Sex(1 + r.Intn(2)))
	default:
		return query.Has{Pred: query.MustCode(paritySystems[r.Intn(len(paritySystems))], pat)}
	}
}

func randExpr(r *rand.Rand, depth int) query.Expr {
	if depth <= 0 {
		return randLeaf(r)
	}
	switch r.Intn(6) {
	case 0:
		n := 2 + r.Intn(2)
		out := make(query.And, n)
		for i := range out {
			out[i] = randExpr(r, depth-1)
		}
		return out
	case 1:
		n := 2 + r.Intn(2)
		out := make(query.Or, n)
		for i := range out {
			out[i] = randExpr(r, depth-1)
		}
		return out
	case 2:
		return query.Not{E: randExpr(r, depth-1)}
	default:
		return randLeaf(r)
	}
}

// scanBits evaluates e by plain per-history scan into ordinal space.
func scanBits(col *model.Collection, st *store.Store, e query.Expr) *store.Bitset {
	out := st.Empty()
	for i, h := range col.Histories() {
		if e.Eval(h) {
			out.Set(i)
		}
	}
	return out
}

func checkParity(t *testing.T, e query.Expr) {
	t.Helper()
	col, st, engines := parityEngines(t)
	checkParityOn(t, col, st, engines, e)
}

// checkParityOn holds every engine over st, and the scan site at each
// engine's shard count, to the per-history scan and EvalIndexed.
func checkParityOn(t *testing.T, col *model.Collection, st *store.Store, engines []*Engine, e query.Expr) {
	t.Helper()
	want := scanBits(col, st, e)

	legacy, err := query.EvalIndexed(st, e)
	if err != nil {
		t.Fatalf("EvalIndexed(%s): %v", e, err)
	}
	if !legacy.Equal(want) {
		t.Fatalf("legacy interpreter diverges from scan for %s: %d vs %d",
			e, legacy.Count(), want.Count())
	}
	for _, eng := range engines {
		got, err := eng.Execute(e)
		if err != nil {
			t.Fatalf("engine(shards=%d) Execute(%s): %v", eng.NumShards(), e, err)
		}
		if !got.Equal(want) {
			plan, _ := Explain(e)
			t.Fatalf("engine(shards=%d) diverges from scan for %s:\n plan %s\n got %d want %d",
				eng.NumShards(), e, plan, got.Count(), want.Count())
		}
		checkScanSite(t, st, eng.NumShards(), e, want)
	}
}

// checkScanSite runs the whole expression as one Scan leaf through the
// backends' scan site over every shard of an even split, unmasked and
// under a mask dropping one patient in three, against the reference.
func checkScanSite(t testing.TB, st *store.Store, shards int, e query.Expr, want *store.Bitset) {
	t.Helper()
	size := (st.Len() + shards - 1) / shards
	for lo := 0; lo < st.Len(); lo += size {
		hi := min(lo+size, st.Len())
		mask := store.NewBitset(hi - lo)
		for i := lo; i < hi; i++ {
			if i%3 != 1 {
				mask.Set(i - lo)
			}
		}
		for _, m := range []*store.Bitset{nil, mask} {
			ref := want.SliceRange(lo, hi)
			if m != nil {
				ref.And(m)
			}
			got, err := viewTree(context.Background(), st.Pin().Sub(lo, hi)).eval(Scan{Expr: e}, m)
			if err != nil {
				t.Fatalf("scan site [%d, %d) of %s: %v", lo, hi, e, err)
			}
			if !got.Equal(ref) {
				t.Fatalf("scan site [%d, %d) (masked %v) of %s: %v, want %v", lo, hi, m != nil, e, got.Ones(), ref.Ones())
			}
		}
	}
}

// TestEngineParityRandomExprs is the property test the acceptance
// criteria name: randomized expressions, shard counts {1, 4, 16, >N}.
func TestEngineParityRandomExprs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		checkParity(t, randExpr(r, 1+r.Intn(3)))
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestEngineParityFixedExprs pins the corner cases random generation may
// miss: empty results, full results, deep nesting, scans under Not, and
// scans whose candidate bound must keep every match — an AnyOf, Sequence
// or During with a part no index answers.
func TestEngineParityFixedExprs(t *testing.T) {
	for _, e := range fixedParityExprs() {
		checkParity(t, e)
	}
}

// fixedParityExprs are TestEngineParityFixedExprs' corner cases.
func fixedParityExprs() []query.Expr {
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	exprs := []query.Expr{
		query.TrueExpr{},
		query.Not{E: query.TrueExpr{}},
		query.And{},
		query.Or{},
		query.And{query.TrueExpr{}, query.TrueExpr{}},
		query.Has{Pred: query.MustCode("", "ZZZ99")}, // matches nothing
		query.Not{E: query.Has{Pred: query.MustCode("", "ZZZ99")}},
		query.And{
			query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}},
			query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
		},
		query.Or{
			query.Has{Pred: query.MustCode("ICPC2", "T90"), MinCount: 3},
			query.Has{Pred: query.TypeIs(model.TypeStay)},
		},
		query.Not{E: query.And{
			query.Has{Pred: query.SourceIs(model.SourceGP)},
			query.Not{E: query.Has{Pred: query.MustCode("", `A.*`), MinCount: 2}},
		}},
		query.And{
			query.AgeBetween{Lo: 30, Hi: 70, At: window.Start},
			query.Or{query.SexIs(model.SexFemale), query.Has{Pred: query.TypeIs(model.TypeMedication)}},
		},
		query.During{
			Interval: query.TypeIs(model.TypeStay),
			Event:    query.TypeIs(model.TypeDiagnosis),
		},
	}
	code, interval := query.MustCode("", `T90|I2.`), query.KindIs(model.Interval)
	for _, p := range []query.EventPred{
		query.AnyOf{code, interval},
		query.AllOf{code, query.NotEv{P: query.TypeIs(model.TypeStay)}},
		query.AnyOf{},
		query.AllOf{},
	} {
		exprs = append(exprs, query.Has{Pred: p}, query.Has{Pred: p, MinCount: 2})
	}
	exprs = append(exprs,
		query.Sequence{Steps: []query.Step{{Pred: code}, {Pred: interval}}},
		query.During{Interval: query.AnyOf{query.TypeIs(model.TypeStay), interval}, Event: code})
	return exprs
}

// FuzzEngineParity drives the same parity check from fuzzed seeds: with
// no picks, a randExpr; with picks, an And of the scan leaves they name
// (scanRunLeaf), which the optimizer leaves one run of scans — the fused
// pass randExpr reaches only by chance.
func FuzzEngineParity(f *testing.F) {
	for _, seed := range []int64{1, 7, 42, 1234, 99999} {
		f.Add(seed, []byte{})
	}
	const band, age, sex, sequence, text = 0, 1, 2, 4, 5
	for _, picks := range [][]byte{{band, band}, {band, age, sex}, {band, text}, {band, sequence}} {
		f.Add(int64(len(picks)), picks)
	}
	f.Fuzz(func(t *testing.T, seed int64, picks []byte) {
		r := rand.New(rand.NewSource(seed))
		if len(picks) == 0 {
			checkParity(t, randExpr(r, 1+r.Intn(3)))
			return
		}
		checkParity(t, scanRunExpr(r, picks[:min(len(picks), 6)]))
	})
}

// TestEngineCacheCorrectness: repeated execution returns equal bitsets,
// actually hits the cache, and mutation of a returned bitset cannot
// corrupt later answers.
func TestEngineCacheCorrectness(t *testing.T) {
	_, st, _ := parityEngines(t)
	eng := New(st, Options{Workers: 4, CacheSize: 16})
	e := query.And{
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", "T90")}},
		query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
	}
	first, err := eng.Execute(e)
	if err != nil {
		t.Fatal(err)
	}
	firstCount := first.Count()
	first.Not() // caller-owned: must not poison the cache

	second, err := eng.Execute(e)
	if err != nil {
		t.Fatal(err)
	}
	if second.Count() != firstCount {
		t.Fatalf("cached result changed: %d vs %d", second.Count(), firstCount)
	}
	if stats := eng.CacheStats(); stats.Hits == 0 {
		t.Errorf("expected cache hits, got %+v", stats)
	}
	eng.ResetCache()
	if stats := eng.CacheStats(); stats.Entries != 0 || stats.Hits != 0 {
		t.Errorf("reset left %+v", stats)
	}
}
