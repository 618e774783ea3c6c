package engine

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// costStore hand-builds a 20-patient collection with known cardinalities:
//   - code A01 (ICPC2, diagnosis): patients 1..4   (card 4, 2 entries each)
//   - code B02 (ICPC2, diagnosis): patients 1..10  (card 10)
//   - code C03 (ICD10, hospital):  patient  1      (card 1)
//   - type measurement:            patients 11..20 (card 10)
//
// Every patient also has 3 code-less GP contact entries.
func costStore(t testing.TB) *store.Store {
	t.Helper()
	base := model.Date(2010, 1, 1)
	hs := make([]*model.History, 20)
	for i := range hs {
		id := i + 1
		h := model.NewHistory(model.Patient{ID: model.PatientID(id), Birth: model.Date(1950, 1, 1)})
		eid := uint64(id * 100)
		add := func(typ model.Type, src model.Source, code model.Code) {
			eid++
			h.Add(model.Entry{ID: eid, Kind: model.Point, Start: base.AddDays(int(eid % 300)),
				End: base.AddDays(int(eid % 300)), Type: typ, Source: src, Code: code})
		}
		for j := 0; j < 3; j++ {
			add(model.TypeContact, model.SourceGP, model.Code{})
		}
		if id <= 4 {
			add(model.TypeDiagnosis, model.SourceGP, model.Code{System: "ICPC2", Value: "A01"})
			add(model.TypeDiagnosis, model.SourceGP, model.Code{System: "ICPC2", Value: "A01"})
		}
		if id <= 10 {
			add(model.TypeDiagnosis, model.SourceGP, model.Code{System: "ICPC2", Value: "B02"})
		}
		if id == 1 {
			add(model.TypeDiagnosis, model.SourceHospital, model.Code{System: "ICD10", Value: "C03"})
		}
		if id > 10 {
			add(model.TypeMeasurement, model.SourceGP, model.Code{})
		}
		hs[i] = h
	}
	return store.New(model.MustCollection(hs...))
}

func approx(got, want float64) bool { return math.Abs(got-want) < 1e-9 }

// TestEstimateSelectivities pins the cost model's row estimates on the
// hand-built collection: index leaves are exact, boolean nodes compose
// under independence.
func TestEstimateSelectivities(t *testing.T) {
	st := costStore(t)
	m := newCostModel(st.Stats())
	if m == nil {
		t.Fatal("no cost model over a 20-patient store")
	}

	est := func(e query.Expr) Estimate {
		t.Helper()
		p, err := Compile(e)
		if err != nil {
			t.Fatal(err)
		}
		return m.estimate(Optimize(p))
	}

	codeA := query.Has{Pred: query.MustCode("ICPC2", "A01")}
	codeB := query.Has{Pred: query.MustCode("ICPC2", "B02")}
	meas := query.Has{Pred: query.TypeIs(model.TypeMeasurement)}

	if got := est(codeA).Rows; !approx(got, 4) {
		t.Errorf("rows(A01) = %f, want 4 (exact cardinality)", got)
	}
	if got := est(query.Has{Pred: query.MustCode("ICPC2", `A01|B02`)}).Rows; !approx(got, 14) {
		t.Errorf("rows(A01|B02) = %f, want 14 (union bound)", got)
	}
	if got := est(query.Has{Pred: query.MustCode("", `.*`)}).Rows; !approx(got, 15) {
		t.Errorf("rows(.*) = %f, want 15 (capped at… sum 4+10+1)", got)
	}
	if got := est(meas).Rows; !approx(got, 10) {
		t.Errorf("rows(type=measurement) = %f, want 10", got)
	}
	if got := est(query.Has{Pred: query.SourceIs(model.SourceHospital)}).Rows; !approx(got, 1) {
		t.Errorf("rows(source=hospital) = %f, want 1", got)
	}
	// Independence: And multiplies selectivities, Or complements.
	if got := est(query.And{codeA, meas}).Rows; !approx(got, 20*(4.0/20)*(10.0/20)) {
		t.Errorf("rows(A01 ∧ meas) = %f, want 1 (independence)", got)
	}
	if got := est(query.Or{codeA, meas}).Rows; !approx(got, 20*(1-(1-4.0/20)*(1-10.0/20))) {
		t.Errorf("rows(A01 ∨ meas) = %f, want 12 (independence)", got)
	}
	if got := est(query.Not{E: codeB}).Rows; !approx(got, 10) {
		t.Errorf("rows(¬B02) = %f, want 10", got)
	}
	// MinCount scans keep the ≥1-entry cardinality as an upper bound.
	counted := query.Has{Pred: query.MustCode("ICPC2", "A01"), MinCount: 2}
	if got := est(counted).Rows; !approx(got, 4) {
		t.Errorf("rows(A01 ≥2) = %f, want ≤1-entry bound 4", got)
	}
	// The bounded scan must be estimated far cheaper than an unbounded one.
	opaque := query.Has{Pred: query.KindIs(model.Interval)}
	if bc, oc := est(counted).Cost, est(opaque).Cost; bc >= oc/2 {
		t.Errorf("bounded scan cost %f not clearly below unbounded %f", bc, oc)
	}
	// Sex: an even split.
	if got := est(query.SexIs(model.SexFemale)).Rows; !approx(got, 10) {
		t.Errorf("rows(sex=female) = %f, want 10", got)
	}
	// An age band over every age holds every birth bucket, even where
	// Hi−Lo+1 wraps.
	if got := est(query.AgeBetween{Lo: 0, Hi: math.MaxInt64}).Rows; !approx(got, 20) {
		t.Errorf("rows(age in [0, MaxInt64]) = %f, want 20", got)
	}
}

// TestAgeBandsFromBirths: the birth buckets bound an age band's patients
// from above on 20k synth patients, within a q-error of 2 on the old-age
// tail and 1.5 on broad bands, and keep compileScan's guards.
func TestAgeBandsFromBirths(t *testing.T) {
	cfg := synth.DefaultConfig(20000)
	col, _, err := integrate.Build(synth.Generate(cfg), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(col)
	m := newCostModel(st.Stats())
	for _, c := range []struct {
		lo, hi int
		qmax   float64
	}{{90, 120, 2}, {60, 80, 1.5}, {0, 17, 1.5}} {
		q := query.AgeBetween{Lo: c.lo, Hi: c.hi, At: cfg.WindowStart}
		est, truth := m.exprSel(q)*m.n, float64(st.Where(q.Eval).Count())
		if truth == 0 || est < truth || est > c.qmax*truth {
			t.Errorf("%s: estimated %.0f patients, %.0f match (q-error bound %.1f)", q, est, truth, c.qmax)
		}
	}
	for _, q := range []query.AgeBetween{
		{Lo: 5, Hi: 4}, {Lo: maxYears + 1, Hi: math.MaxInt}, {Lo: math.MinInt, Hi: -maxYears - 2},
	} {
		if got := m.exprSel(q); got != 0 {
			t.Errorf("%s: selectivity %v, want 0 (matches nobody)", q, got)
		}
	}
	if got := m.exprSel(query.AgeBetween{Lo: math.MinInt, Hi: math.MaxInt, At: math.MaxInt64}); got != 1 {
		t.Errorf("every age: selectivity %v, want 1", got)
	}
}

// TestOptimizeWithStatsOrdersAnd: And children come out most-selective
// first in the scan-free tier, which holds the scans' bounds too, with
// the scans after, themselves ordered by their selectivity given their
// bound — not in compile order.
func TestOptimizeWithStatsOrdersAnd(t *testing.T) {
	st := costStore(t)
	// Compile order: common index, common scan, rare scan, rare index.
	pointA01 := query.AllOf{query.MustCode("ICPC2", "A01"), query.KindIs(model.Point)}
	e := query.And{
		query.Has{Pred: query.MustCode("ICPC2", "B02")},              // index, card 10
		query.Has{Pred: query.MustCode("ICPC2", "B02"), MinCount: 2}, // scan, bound B02 (deduped), keeps it all
		query.Has{Pred: pointA01, MinCount: 2},                       // scan, bound A01, keeps half
		query.Has{Pred: query.MustCode("ICD10", "C03")},              // index, card 1
	}
	p, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	and, ok := OptimizeWithStats(p, st.Stats()).(And)
	if !ok || len(and.Children) != 5 {
		t.Fatalf("got %v", OptimizeWithStats(p, st.Stats()))
	}
	order := make([]string, 5)
	for i, c := range and.Children {
		order[i] = c.String()
	}
	// Tier 1: index leaves and bounds, most selective (C03, card 1) first.
	for i, want := range []string{`index:ICD10~"C03"`, `index:ICPC2~"A01"`, `index:ICPC2~"B02"`} {
		if order[i] != want {
			t.Errorf("index tier misordered: %v", order)
			break
		}
	}
	// Tier 2: scans, the one its bound narrows (A01, kind=point) first.
	if !strings.HasPrefix(order[3], "scan{") || !strings.Contains(order[3], "A01") || !strings.Contains(order[4], "B02") {
		t.Errorf("scan tier misordered: %v", order)
	}
}

// TestOptimizeWithStatsOrdersOrLargestFirst: Or children come out
// largest-first so later scans skip the already-covered majority.
func TestOptimizeWithStatsOrdersOrLargestFirst(t *testing.T) {
	st := costStore(t)
	e := query.Or{
		query.Has{Pred: query.MustCode("ICD10", "C03")},              // card 1
		query.Has{Pred: query.MustCode("ICPC2", "B02")},              // card 10
		query.Has{Pred: query.MustCode("ICPC2", "A01"), MinCount: 2}, // scan
		query.Has{Pred: query.MustCode("ICPC2", "A01")},              // card 4
	}
	p, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	or, ok := OptimizeWithStats(p, st.Stats()).(Or)
	if !ok || len(or.Children) != 4 {
		t.Fatalf("got %v", OptimizeWithStats(p, st.Stats()))
	}
	if !strings.Contains(or.Children[0].String(), "B02") ||
		!strings.Contains(or.Children[1].String(), "A01") ||
		!strings.Contains(or.Children[2].String(), "C03") {
		t.Errorf("Or not largest-first: %v", or)
	}
	if !hasScan(or.Children[3]) {
		t.Errorf("scan not last under Or: %v", or)
	}
}

// TestAndRankOrderIsOptimal: for random conjunctions of 2–6 children,
// scan-bearing and scan-free, the modeled cost of order's result is the
// least over every permutation of the children. The brute force over all
// orders is the oracle.
func TestAndRankOrderIsOptimal(t *testing.T) {
	at := model.Date(2010, 1, 1)
	code := func(sys, pat string, min int) query.Expr {
		return query.Has{Pred: query.MustCode(sys, pat), MinCount: min}
	}
	has := func(p query.EventPred) query.Expr { return query.Has{Pred: p} }
	pool := []query.Expr{
		// Scan-free.
		code("ICPC2", "A01", 1), code("ICPC2", "B02", 1), has(query.TypeIs(model.TypeMeasurement)),
		has(query.SourceIs(model.SourceGP)), query.Not{E: code("ICD10", "C03", 1)},
		query.Or{code("ICPC2", "A01", 1), has(query.TypeIs(model.TypeMeasurement))},
		// Scan-bearing: bounded, unbounded, keeping everyone (sel = 1) and
		// nested under Not, Or and And.
		code("ICPC2", "B02", 2), code("ICPC2", "A01", 2),
		query.AgeBetween{Lo: 40, Hi: 70, At: at}, query.AgeBetween{Lo: 0, Hi: 200, At: at},
		query.SexIs(model.SexFemale), valueScan(0, 49),
		has(query.AllOf{query.TypeIs(model.TypeMeasurement), query.ValueBetween{Lo: 0, Hi: 50}}),
		query.Not{E: code("ICPC2", "B02", 2)},
		query.Sequence{Steps: []query.Step{{Pred: query.TypeIs(model.TypeContact)}, {Pred: query.TypeIs(model.TypeMeasurement)}}},
		query.Or{code("ICD10", "C03", 1), code("ICPC2", "A01", 2)},
		query.And{code("ICPC2", "B02", 1), query.AgeBetween{Lo: 20, Hi: 50, At: at}},
	}
	plans := make([]Plan, len(pool))
	for i, e := range pool {
		plans[i] = mustPlan(t, e)
	}
	rng := rand.New(rand.NewSource(11))
	for _, st := range []*store.Store{store.New(fbCollection(400)), costStore(t)} {
		m := newCostModel(st.Stats())
		cost := func(children []Plan) float64 { return m.estimate(And{Children: children}).Cost }
		for trial := 0; trial < 150; trial++ {
			children := make([]Plan, 2+rng.Intn(5))
			for i, j := range rng.Perm(len(plans))[:len(children)] {
				children[i] = plans[j]
			}
			best := math.Inf(1)
			permute(append([]Plan(nil), children...), 0, func(p []Plan) { best = math.Min(best, cost(p)) })
			m.order(children, true)
			if got := cost(children); got > best*(1+1e-9) {
				t.Errorf("order %v costs %g, the best permutation %g", children, got, best)
			}
		}
	}
}

// permute calls visit with every ordering of ps[k:] behind ps[:k].
func permute(ps []Plan, k int, visit func([]Plan)) {
	if k == len(ps) {
		visit(ps)
		return
	}
	for i := k; i < len(ps); i++ {
		ps[k], ps[i] = ps[i], ps[k]
		permute(ps, k+1, visit)
		ps[k], ps[i] = ps[i], ps[k]
	}
}

// TestOptimizeWithStatsKeepsCanonicalKeys: cost-based reordering must not
// change the canonical cache key (And/Or keys are order-insensitive).
func TestOptimizeWithStatsKeepsCanonicalKeys(t *testing.T) {
	st := costStore(t)
	e := query.And{
		query.Has{Pred: query.MustCode("ICPC2", "B02"), MinCount: 2},
		query.Has{Pred: query.MustCode("ICD10", "C03")},
	}
	p1, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Compile(e)
	if err != nil {
		t.Fatal(err)
	}
	if a, b := Optimize(p1).Key(), OptimizeWithStats(p2, st.Stats()).Key(); a != b {
		t.Errorf("reordering changed the cache key:\n static %s\n cost   %s", a, b)
	}
}

// TestEmptyStoreFallsBackToStatic: no population means no cost model; the
// engine must keep working on the static path.
func TestEmptyStoreFallsBackToStatic(t *testing.T) {
	if m := newCostModel(store.New(model.MustCollection()).Stats()); m != nil {
		t.Error("cost model over an empty store")
	}
	eng := New(store.New(model.MustCollection()), Options{})
	b, err := eng.Execute(query.Has{Pred: query.MustCode("", "T90")})
	if err != nil || b.Count() != 0 {
		t.Errorf("empty store execute = %v, %v", b, err)
	}
}

// TestExplainAnnotatesPlan: the annotated plan mirrors the executed tree,
// a bounded scan's index bound included, and carries non-zero estimates
// in execution order.
func TestExplainAnnotatesPlan(t *testing.T) {
	eng := New(costStore(t), Options{CacheSize: 8})
	e := query.And{
		query.Has{Pred: query.MustCode("ICPC2", "B02"), MinCount: 2},
		query.Has{Pred: query.MustCode("ICD10", "C03")},
	}
	ex, err := eng.Explain(e)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Patients != 20 {
		t.Errorf("patients = %d", ex.Patients)
	}
	if ex.Root.Label != "and" || len(ex.Root.Children) != 3 {
		t.Fatalf("root = %+v", ex.Root)
	}
	// Execution order: the selective index leaf (C03) drives.
	if !strings.Contains(ex.Root.Children[0].Label, "C03") {
		t.Errorf("explain not in execution order: %+v", ex.Root.Children)
	}
	if ex.Root.Est.Rows <= 0 || ex.Root.Est.Cost <= 0 {
		t.Errorf("missing estimates: %+v", ex.Root.Est)
	}
	if ex.Root.Children[0].Est.Rows != 1 {
		t.Errorf("C03 leaf rows = %f, want exact 1", ex.Root.Children[0].Est.Rows)
	}
	// The scan's bound is a node of its own, then the scan.
	if b := ex.Root.Children[1]; b.Label != `index:ICPC2~"B02"` || b.Est.Rows != 10 {
		t.Errorf("bound = %+v, want index:ICPC2~\"B02\" with exact rows 10", b)
	}
	if !strings.HasPrefix(ex.Root.Children[2].Label, "scan{") {
		t.Errorf("scan not last: %+v", ex.Root.Children)
	}
	s := ex.String()
	if !strings.Contains(s, "est_rows") || !strings.Contains(s, "  index:") {
		t.Errorf("rendering missing annotations or indentation:\n%s", s)
	}
	// The invalid-regex path still errors cleanly.
	if _, err := eng.Explain(query.Has{Pred: &query.Code{System: "ICPC2", Pattern: "("}}); err == nil {
		t.Error("Explain accepted a bad pattern")
	}
}

// TestShardStatsAccumulate: scan fan-out records per-shard timings.
func TestShardStatsAccumulate(t *testing.T) {
	eng := New(costStore(t), Options{Workers: 2, CacheSize: 0})
	if _, err := eng.Execute(query.Has{Pred: query.KindIs(model.Point)}); err != nil {
		t.Fatal(err)
	}
	stats := eng.ShardStats()
	if len(stats) != eng.NumShards() {
		t.Fatalf("stats for %d of %d shards", len(stats), eng.NumShards())
	}
	total := 0
	queries := uint64(0)
	for i, s := range stats {
		if s.Shard != i {
			t.Errorf("shard %d labeled %d", i, s.Shard)
		}
		total += s.Patients
		queries += s.Queries
	}
	if total != 20 {
		t.Errorf("shards cover %d of 20 patients", total)
	}
	if queries == 0 {
		t.Error("no shard recorded the scan")
	}
}

// TestCostOptimizedParity is the acceptance-criteria property test:
// cost-reordered plans return bitsets identical to the reference
// interpreter (and the static plans) over random expressions, on every
// shard-count engine.
func TestCostOptimizedParity(t *testing.T) {
	col, st, engines := parityEngines(t)
	_ = col
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randExpr(r, 1+r.Intn(3))
		p, err := Compile(e)
		if err != nil {
			t.Fatalf("Compile(%s): %v", e, err)
			return false
		}
		want, err := query.EvalIndexed(st, e)
		if err != nil {
			t.Fatalf("EvalIndexed(%s): %v", e, err)
			return false
		}
		costPlan := OptimizeWithStats(p, st.Stats())
		for _, eng := range engines {
			got, err := eng.ExecutePlan(costPlan)
			if err != nil {
				t.Fatalf("ExecutePlan(%s) shards=%d: %v", e, eng.NumShards(), err)
				return false
			}
			if !got.Equal(want) {
				t.Fatalf("cost plan diverges for %s (shards=%d):\n plan %s\n got %d want %d",
					e, eng.NumShards(), costPlan, got.Count(), want.Count())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
