package engine

// The scan ≡ histories property: compileScan's matcher over a store's
// frame answers what query.Expr.Eval answers over the histories the store
// adopted, and the scan site (scanView, under viewTree) agrees sliced and
// masked, for histories and expressions drawn from bytes — one checker for
// the seeded test and the fuzz target. The fixed cases pin the boundaries random
// draws rarely land on; the budget pins allocation per call.

import (
	"context"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

var scanText, _ = query.NewTextMatch("legevakt|akutt")

// edgeYears and edgeTimes are where age arithmetic wraps or its products
// stop fitting a model.Time: ±MaxInt64/Year, one either side, the ends.
var (
	edgeYears = []int{math.MinInt, -maxYears - 1, -maxYears, -maxYears + 1, -1, 0, maxYears - 1, maxYears, maxYears + 1, math.MaxInt}
	edgeTimes = []model.Time{math.MinInt64, math.MinInt64 + 1, -model.Time(maxYears) * model.Year, -1, 0,
		model.Time(maxYears)*model.Year - 1, model.Time(maxYears) * model.Year, math.MaxInt64}
)

// drawExpr draws an expression: every predicate the matcher compiles, and
// TextMatch, which it must refuse. Its times are the drawn entries' starts
// and ends and the patients' births, a minute either side or exact, so
// periods, gaps and age references land on the boundaries they test.
func drawExpr(src *byteSource, hs []*model.History) query.Expr {
	times := []model.Time{model.Date(2008, 1, 1)}
	for _, h := range hs {
		times = append(times, h.Patient.Birth)
		for _, e := range h.Entries {
			times = append(times, e.Start, e.End)
		}
	}
	at := func() model.Time { return times[src.next()%len(times)] + model.Time(src.next()%3-1) }
	value := func() float64 { return frameValues[src.next()%len(frameValues)] }
	var pred func(depth int) query.EventPred
	pred = func(depth int) query.EventPred {
		switch k := src.next() % 10; {
		case depth > 0 && (k == 7 || k == 8):
			ps := make([]query.EventPred, src.next()%3)
			for i := range ps {
				ps[i] = pred(depth - 1)
			}
			if k == 7 {
				return query.AllOf(ps)
			}
			return query.AnyOf(ps)
		case depth > 0 && k == 9:
			return query.NotEv{P: pred(depth - 1)}
		case k%7 == 0:
			return query.TypeIs(src.enum(7))
		case k%7 == 1:
			return query.SourceIs(src.enum(6))
		case k%7 == 2:
			return query.KindIs(src.next() % 3)
		case k%7 == 3: // NaN bounds and Lo > Hi included
			return query.ValueBetween{Lo: value(), Hi: value()}
		case k%7 == 4:
			return query.InPeriod(model.Period{Start: at(), End: at()})
		case k%7 == 5:
			return query.MustCode([]string{"", "ICPC2", "ICD10", "LOCAL"}[src.next()%4],
				[]string{"T90", `K8.`, `.*`, `R05|E11\..*`, "x1", "bare", ""}[src.next()%7])
		default:
			return scanText
		}
	}
	var expr func(depth int) query.Expr
	expr = func(depth int) query.Expr {
		switch k := src.next() % 9; {
		case depth > 0 && (k == 6 || k == 7):
			es := make([]query.Expr, src.next()%4)
			for i := range es {
				es[i] = expr(depth - 1)
			}
			if k == 6 {
				return query.And(es)
			}
			return query.Or(es)
		case depth > 0 && k == 8:
			return query.Not{E: expr(depth - 1)}
		case k%6 == 0:
			return query.TrueExpr{}
		case k%6 == 1: // MinCount -1 to 3
			return query.Has{Pred: pred(2), MinCount: src.next()%5 - 1}
		case k%6 == 2: // k years after a drawn time, the band about k; or the edges
			years := src.next()%90 - 10
			lo := years + src.next()%3 - 1
			e := query.AgeBetween{Lo: lo, Hi: lo + src.next()%4 - 1, At: at() + model.Year*model.Time(years)}
			if k := src.next(); k%3 == 0 {
				e.At = edgeTimes[k/3%len(edgeTimes)] + model.Time(src.next()%3-1)
			}
			if k := src.next(); k%3 == 0 {
				e.Lo = edgeYears[k/3%len(edgeYears)]
			}
			if k := src.next(); k%3 == 0 {
				e.Hi = edgeYears[k/3%len(edgeYears)]
			}
			return e
		case k%6 == 3:
			return query.SexIs(src.next() % 4)
		case k%6 == 4:
			steps := make([]query.Step, src.next()%4)
			for i := range steps {
				steps[i] = query.Step{Pred: pred(1), MinGap: at() - at(), MaxGap: at() - at()}
			}
			return query.Sequence{Steps: steps}
		default:
			return query.During{Interval: pred(1), Event: pred(1)}
		}
	}
	return expr(3)
}

// drawScanHistories draws the histories the property runs over, some
// born where At − birth wraps.
func drawScanHistories(src *byteSource) []*model.History {
	hs := drawHistories(src)
	for _, h := range hs {
		if k := src.next(); k%4 == 0 {
			h.Patient.Birth = edgeTimes[k/4%len(edgeTimes)] + model.Time(src.next()%3-1)
		}
	}
	return hs
}

// checkScanAgainstHistories is the property on one input: up to eight
// expressions over one drawn store.
func checkScanAgainstHistories(t testing.TB, data []byte) {
	t.Helper()
	src := &byteSource{data: data}
	hs := drawScanHistories(src)
	adopted := make([]*model.History, len(hs)) // the store sorts what it adopts; hs stay as drawn
	for i, h := range hs {
		adopted[i] = h.Clone()
	}
	st := store.New(model.MustCollection(adopted...))
	f := st.Pin().Frame()
	for n := 1 + src.next()%8; n > 0; n-- {
		e := drawExpr(src, hs)
		want := store.NewBitset(len(hs))
		for i, h := range hs {
			if e.Eval(h) {
				want.Set(i)
			}
		}
		match, ok := compileScan(e, &f)
		if ok == strings.Contains(e.String(), "text~") {
			t.Fatalf("compileScan(%s): ok = %v", e, ok)
		}
		// One drawn candidate word per 64 rows, empty and full among them.
		for base := 0; ok && base < len(hs); base += 64 {
			var cand uint64
			switch k := src.next(); k % 4 {
			case 1:
				cand = ^uint64(0)
			case 2, 3:
				cand = uint64(k<<8|src.next()) * 0x9e3779b97f4a7c15
			}
			checkWord(t, e, match, want, base, cand)
		}
		checkScanSite(t, st, 1+src.next()%3, e, want)
	}
}

// checkWord holds a compiled matcher to the reference on the word of rows
// from base under cand, cut to the rows there are: it keeps exactly the
// candidates that match, so a kernel that ignores cand, or an Or or Not
// that leaks bits outside it, fails here.
func checkWord(t testing.TB, e query.Expr, match wordMatch, want *store.Bitset, base int, cand uint64) {
	t.Helper()
	var wantWord uint64
	for k := 0; k < 64; k++ {
		if base+k >= want.Len() {
			cand &= 1<<k - 1
			break
		}
		if want.Get(base + k) {
			wantWord |= 1 << k
		}
	}
	if got := match(base, cand); got != cand&wantWord {
		t.Fatalf("%s on rows %d+ under candidates %b: compiled %b, Eval %b", e, base, cand, got, cand&wantWord)
	}
}

func TestFrameScanMatchesHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 2000; i++ {
		data := make([]byte, 32+rng.Intn(1200))
		rng.Read(data)
		checkScanAgainstHistories(t, data)
	}
	checkScanAgainstHistories(t, nil) // no history at all
}

func FuzzFrameScanMatchesHistories(f *testing.F) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{0, 16, 200, 900} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	// During seeds: drawn bytes whose first expression is a During over
	// histories holding both points and intervals.
	for seeds := 0; seeds < 4; {
		data := make([]byte, 200+rng.Intn(800))
		rng.Read(data)
		src := &byteSource{data: data}
		hs := drawScanHistories(src)
		src.next() // the expression count
		kinds := map[model.Kind]bool{}
		for _, h := range hs {
			for _, e := range h.Entries {
				kinds[e.Kind] = true
			}
		}
		if _, during := drawExpr(src, hs).(query.During); during && kinds[model.Point] && kinds[model.Interval] {
			f.Add(data)
			seeds++
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkScanAgainstHistories(t, data) })
}

// TestDuringMatchesEval: the one sweep During compiles to answers what
// query.During.Eval's test of every interval against every point answers,
// on histories of up to eight entries over five days: equal starts,
// intervals empty, inverted or open-ended, and points on an interval's
// exclusive end.
func TestDuringMatchesEval(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	day, horizon := model.Date(2010, 1, 1), model.Date(2012, 1, 1)
	hs := make([]*model.History, 5000)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1)})
		for j := r.Intn(9); j > 0; j-- {
			start := day.AddDays(r.Intn(5))
			e := model.Entry{ID: uint64(10*i + j), Kind: model.Point, Start: start, End: start,
				Type: model.Type(1 + r.Intn(2)), Source: model.SourceGP, Value: float64(r.Intn(3))}
			switch r.Intn(4) {
			case 0:
				e.Kind, e.End, e.OpenEnd = model.Interval, horizon, true
			case 1:
				e.Kind, e.End = model.Interval, start.AddDays(r.Intn(4)-1)
			}
			h.Add(e)
		}
		hs[i] = h
	}
	col := model.MustCollection(hs...)
	st := store.New(col)
	f := st.Pin().Frame()
	one, two := query.TypeIs(1), query.TypeIs(2)
	for _, e := range []query.Expr{
		query.During{Interval: one, Event: two},
		query.During{Interval: two, Event: one},
		query.During{Interval: one, Event: one},
		query.During{Interval: query.KindIs(model.Interval), Event: query.ValueBetween{Lo: 1, Hi: 2}},
	} {
		want := scanBits(col, st, e)
		if want.Count() == 0 || want.Count() == len(hs) {
			t.Fatalf("%s matches %d of %d histories: the draw tests nothing", e, want.Count(), len(hs))
		}
		match, ok := compileScan(e, &f)
		if !ok {
			t.Fatalf("%s does not compile", e)
		}
		for base := 0; base < f.Len(); base += 64 {
			checkWord(t, e, match, want, base, ^uint64(0))
		}
	}
}

// TestScanParityEdgeCases: engine ≡ scan ≡ EvalIndexed at shard counts
// {1, 4, 16, N+7}, and the scan site masked and unmasked, on what the
// synthetic population never holds: NaN and infinite values, empty
// histories, open intervals, histories added newest first, an unknown
// kind, patients born after the age reference — and times on the
// boundaries the predicates test.
func TestScanParityEdgeCases(t *testing.T) {
	const n = 40
	horizon := model.Date(2012, 1, 1)
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(1000 - 7*i), Birth: model.Date(1940+i, 1, 1).AddDays(29 * i), Sex: model.Sex(i % 3)})
		for j := i % 5; j > 0; j-- { // i%5 == 0: an empty history
			at := model.Date(2010, 1, 1).AddDays(37*j + i) // 37 days apart
			h.Add(model.Entry{ID: uint64(10*i + j), Kind: model.Point, Start: at, End: at, Source: model.SourceGP, Type: model.TypeMeasurement,
				Value: []float64{math.NaN(), 120, math.Inf(1), 150, math.Copysign(0, -1)}[(i+j)%5]})
			if j%2 == 1 {
				h.Add(model.Entry{ID: uint64(10*i + j + 5), Kind: model.Interval, Start: at, End: horizon, OpenEnd: true,
					Source: model.SourceMunicipal, Type: model.TypeService})
			}
		}
		switch i % 5 {
		case 3: // an unknown kind overlaps by its own end, as an interval does
			h.Add(model.Entry{ID: uint64(10 * i), Kind: 2, Start: model.Date(2011, 1, 1), End: model.Date(2011, 3, 1), Type: model.TypeStay})
		case 4: // at the open intervals' end, which During must not count
			h.Add(model.Entry{ID: uint64(10 * i), Kind: model.Point, Start: horizon, End: horizon, Value: 77,
				Source: model.SourceGP, Type: model.TypeMeasurement, Code: model.Code{System: "ICD10", Value: "T90"}})
		}
		hs[i] = h
	}
	col := model.MustCollection(hs...)
	st := store.New(col)
	engines := []*Engine{New(st, Options{Workers: 2, CacheSize: 16})}
	for _, shards := range []int{1, 4, 16, n + 7} {
		engines = append(engines, shardedEngine(t, st, shards, Options{Workers: 2, CacheSize: 16}))
		defer engines[len(engines)-1].Close()
	}
	has := func(p query.EventPred, min int) query.Expr { return query.Has{Pred: p, MinCount: min} }
	band := func(lo, hi float64) query.EventPred { return query.ValueBetween{Lo: lo, Hi: hi} }
	period := func(from model.Time, days int) query.EventPred {
		return query.InPeriod(model.Period{Start: from, End: from.AddDays(days)})
	}
	measured := query.TypeIs(model.TypeMeasurement)
	twice := func(min, max int) query.Expr {
		return query.Sequence{Steps: []query.Step{{Pred: measured}, {Pred: measured, MinGap: query.Days(min), MaxGap: query.Days(max)}}}
	}
	for _, e := range []query.Expr{
		has(band(math.NaN(), 200), 1), has(band(0, math.NaN()), 1), has(band(150, 100), 1),
		has(band(math.Inf(-1), math.Inf(1)), 2), has(band(0, 0), 1), // -0 == 0
		has(query.NotEv{P: band(100, 160)}, 1), // NaN values match the complement
		has(measured, 0), has(measured, -3), has(measured, 4), query.Not{E: has(query.SourceIs(model.SourceGP), 0)},
		// Only the open intervals reach the horizon; a period starting on a
		// point contains it; the unknown kind overlaps by its end.
		has(period(horizon.AddDays(-1), 30), 1),
		has(query.AllOf{period(model.Date(2010, 1, 1).AddDays(38), 20), query.KindIs(model.Point)}, 1),
		has(query.AllOf{period(model.Date(2011, 2, 1), 1), query.KindIs(2)}, 1),
		has(query.MustCode("ICPC2", "T90"), 1), // the horizon points are ICD10 T90
		query.During{Interval: query.TypeIs(model.TypeService), Event: band(100, 130)},
		query.During{Interval: query.TypeIs(model.TypeService), Event: band(77, 77)},
		query.Sequence{}, twice(0, 0), // one measurement cannot witness two steps
		twice(37, 0), twice(1, 37), twice(1, 36),
		query.Sequence{Steps: []query.Step{{Pred: query.TypeIs(model.TypeService)}, {Pred: band(100, 200), MinGap: query.Days(30), MaxGap: query.Days(80)}}},
		query.AgeBetween{Lo: 70, Hi: 60, At: horizon},
		query.AgeBetween{Lo: -1, Hi: -1, At: model.Date(1965, 6, 1)}, // floor: the year before birth is -1
		query.AgeBetween{Lo: -3, Hi: 0, At: model.Date(1965, 6, 1)},
		query.And{query.AgeBetween{Lo: 60, Hi: 70, At: horizon}, query.Not{E: has(band(120, 120), 1)}},
		query.Or{query.SexIs(model.SexUnknown), has(query.AnyOf{}, 1), has(query.AllOf{}, 3)},
	} {
		checkParityOn(t, col, st, engines, e)
	}

	// Age arithmetic at its edges, over more than a word of patients: births
	// k·Year, k·Year ± 1 before each reference, so At − birth lands on the
	// floor boundaries and, across references, wraps; bands at and past
	// ±MaxInt64/Year, negative ages and Lo > Hi. Each band is held to Eval
	// word by word — empty, full, dense and sparse candidates, the tail
	// word included — and then through every engine.
	ats := []model.Time{horizon, math.MinInt64, math.MaxInt64}
	var ageHs []*model.History
	for _, at := range ats {
		for _, k := range []int{0, 1, -1, 60, 81, maxYears, -maxYears, maxYears - 1} {
			for d := -1; d <= 1; d++ {
				birth := at - model.Time(k)*model.Year + model.Time(d)
				ageHs = append(ageHs, model.NewHistory(model.Patient{ID: model.PatientID(len(ageHs) + 1), Birth: birth, Sex: model.Sex(len(ageHs) % 4)}))
			}
		}
	}
	ageCol := model.MustCollection(ageHs...)
	ageSt := store.New(ageCol)
	f := ageSt.Pin().Frame()
	engines = []*Engine{New(ageSt, Options{Workers: 2})}
	for _, shards := range []int{1, 4, 16, len(ageHs) + 7} {
		engines = append(engines, shardedEngine(t, ageSt, shards, Options{Workers: 2}))
		defer engines[len(engines)-1].Close()
	}
	bands := [][2]int{{60, 80}, {0, 0}, {-1, -1}, {-3, 0}, {81, 60}, {0, math.MaxInt}, {math.MinInt, math.MaxInt}, {math.MinInt, -maxYears - 2}}
	for _, lo := range edgeYears[1:9] {
		bands = append(bands, [2]int{lo, lo}, [2]int{lo, maxYears - 1}, [2]int{-maxYears, lo})
	}
	exprs := []query.Expr{query.SexIs(0), query.SexIs(1), query.SexIs(2), query.SexIs(3)} // the sex kernel's two shapes too
	for _, at := range ats {
		for _, b := range bands {
			exprs = append(exprs, query.AgeBetween{Lo: b[0], Hi: b[1], At: at})
		}
	}
	for _, e := range exprs {
		want := scanBits(ageCol, ageSt, e)
		match, _ := compileScan(e, &f)
		for base := 0; base < f.Len(); base += 64 {
			for _, cand := range []uint64{0, ^uint64(0), 0x9e3779b97f4a7c15, 1<<3 | 1<<40} {
				checkWord(t, e, match, want, base, cand)
			}
		}
		checkParityOn(t, ageCol, ageSt, engines, e)
	}
}

// TestScanAllocatesPerCallNotPerRow: a frame scan of a 10,000-patient
// view allocates for the compiled matcher and the result's containers,
// the same handful at any row count; one per row would read 10,000.
func TestScanAllocatesPerCallNotPerRow(t *testing.T) {
	hs := make([]*model.History, 10000)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1930+i%70, 1, 1), Sex: model.Sex(1 + i%2)})
		at := model.Date(2010, 6, 1)
		h.Add(model.Entry{ID: uint64(3 * i), Kind: model.Point, Start: at, End: at, Value: float64(i % 100), Type: model.TypeMeasurement})
		h.Add(model.Entry{ID: uint64(3*i + 1), Kind: model.Point, Start: at.AddDays(40), End: at.AddDays(40), Type: model.TypeDiagnosis,
			Code: model.Code{System: "ICPC2", Value: []string{"T90", "K86", "R05"}[i%3]}})
		h.Add(model.Entry{ID: uint64(3*i + 2), Kind: model.Interval, Start: at.AddDays(-10), End: at.AddDays(60), Type: model.TypeStay})
		hs[i] = h
	}
	v := store.New(model.MustCollection(hs...)).Pin()
	v.Frame() // built once per revision, outside the measurement
	mask := v.Empty()
	for i := 0; i < v.Len(); i += 3 {
		mask.Set(i)
	}
	for _, e := range []query.Expr{
		query.Has{Pred: query.ValueBetween{Lo: 40, Hi: 45}},
		query.And{query.AgeBetween{Lo: 40, Hi: 60, At: model.Date(2011, 1, 1)},
			query.Has{Pred: query.AnyOf{query.MustCode("ICPC2", "T90|K86"), query.KindIs(model.Interval)}, MinCount: 2}},
		query.Sequence{Steps: []query.Step{{Pred: query.TypeIs(model.TypeMeasurement)}, {Pred: query.MustCode("", "T.*"), MaxGap: query.Days(60)}}},
		query.During{Interval: query.TypeIs(model.TypeStay), Event: query.ValueBetween{Lo: 0, Hi: 10}},
	} {
		for _, m := range []*store.Bitset{nil, mask} {
			allocs := testing.AllocsPerRun(5, func() {
				if _, err := viewTree(context.Background(), v).eval(Scan{Expr: e}, m); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > 48 {
				t.Errorf("%s (masked %v): %.0f allocations per scan of %d rows", e, m != nil, allocs, v.Len())
			}
		}
	}
}
