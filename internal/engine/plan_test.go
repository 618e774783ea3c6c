package engine

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

func mustPlan(t *testing.T, e query.Expr) Plan {
	t.Helper()
	p, err := Compile(e)
	if err != nil {
		t.Fatalf("Compile(%s): %v", e, err)
	}
	return p
}

var (
	idxDiag  = query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICPC2", "T90")}}
	idxStay  = query.Has{Pred: query.TypeIs(model.TypeStay)}
	scanOnly = query.Has{Pred: query.KindIs(model.Interval), MinCount: 3} // no index bounds it
)

func TestCompileClassification(t *testing.T) {
	cases := []struct {
		expr      query.Expr
		wantIndex bool
	}{
		{query.Has{Pred: query.MustCode("ICPC2", "T90")}, true},
		{query.Has{Pred: query.MustCode("", "T90")}, true},
		{idxDiag, true},
		{idxStay, true},
		{query.Has{Pred: query.SourceIs(model.SourceGP)}, true},
		{query.Has{Pred: query.AllOf{query.TypeIs(model.TypeMedication), query.MustCode("", "A10")}}, true},
		{scanOnly, false},
		{query.Has{Pred: query.AllOf{query.TypeIs(model.TypeStay), query.MustCode("", "I21")}}, false},
		{query.Has{Pred: query.KindIs(model.Interval)}, false},
		{query.SexIs(model.SexFemale), false},
	}
	for _, c := range cases {
		p := mustPlan(t, c.expr)
		_, isIndex := p.(IndexScan)
		if isIndex != c.wantIndex {
			t.Errorf("Compile(%s) = %s, want index=%v", c.expr, p, c.wantIndex)
		}
	}
}

// TestCompileRejectsBadPattern: an invalid pattern fails at Compile
// whether an index leaf or a scan's bound reads it.
func TestCompileRejectsBadPattern(t *testing.T) {
	eng := New(store.New(model.MustCollection()), Options{})
	bad := &query.Code{System: "ICPC2", Pattern: "("}
	for _, e := range []query.Expr{query.Has{Pred: bad}, query.Has{Pred: bad, MinCount: 2}} {
		if _, err := Compile(e); err == nil {
			t.Errorf("Compile(%s) accepted an invalid regex", e)
		}
		if _, err := eng.Execute(e); err == nil {
			t.Errorf("Execute(%s) accepted an invalid regex", e)
		}
	}
}

// TestCompileLowersScanBounds: Compile puts a scan behind its bound
// exactly where an index bounds it, and on the parity population every
// bound — of these shapes and of random scan leaves — is scan-free and
// keeps every patient Eval matches.
func TestCompileLowersScanBounds(t *testing.T) {
	code, interval := query.MustCode("ICPC2", "T90"), query.KindIs(model.Interval)
	stay := query.TypeIs(model.TypeStay)
	cases := []struct {
		expr query.Expr
		want string
	}{
		{query.Has{Pred: code, MinCount: 2}, `and(index:ICPC2~"T90",scan{has>=2(ICPC2~"T90")})`},
		{query.Has{Pred: query.AnyOf{code, query.SourceIs(model.SourceGP)}, MinCount: 2},
			`and(or(index:ICPC2~"T90",index:source=gp),scan{has>=2((ICPC2~"T90" | source=gp))})`},
		{query.Has{Pred: query.AnyOf{code, interval}}, `scan{has((ICPC2~"T90" | kind=interval))}`},
		{query.Has{Pred: query.AllOf{code, query.NotEv{P: stay}}}, `and(index:ICPC2~"T90",scan{has((ICPC2~"T90" & !type=stay))})`},
		{query.Has{Pred: query.AllOf{stay, code}}, `and(and(index:type=stay,index:ICPC2~"T90"),scan{has((type=stay & ICPC2~"T90"))})`},
		{query.Has{Pred: query.AnyOf{}}, `scan{has((|))}`},
		{query.Has{Pred: query.AllOf{}, MinCount: 2}, `scan{has>=2((&))}`},
		{query.Sequence{Steps: []query.Step{{Pred: code}, {Pred: interval}}}, `and(index:ICPC2~"T90",scan{seq(ICPC2~"T90" -> kind=interval)})`},
		{query.During{Interval: query.AnyOf{stay, interval}, Event: code}, `and(index:ICPC2~"T90",scan{during((type=stay | kind=interval), ICPC2~"T90")})`},
		{query.During{Interval: stay, Event: code}, `and(and(index:type=stay,index:ICPC2~"T90"),scan{during(type=stay, ICPC2~"T90")})`},
		{query.SexIs(model.SexFemale), `scan{sex=F}`},
		{query.Has{Pred: query.NotEv{P: stay}}, `scan{has(!type=stay)}`},
	}
	exprs := make([]query.Expr, 0, len(cases)+200)
	for _, c := range cases {
		if got := mustPlan(t, c.expr).String(); got != c.want {
			t.Errorf("Compile(%s) = %s, want %s", c.expr, got, c.want)
		}
		exprs = append(exprs, c.expr)
	}
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		exprs = append(exprs, randScanLeaf(r, parityPatterns[r.Intn(len(parityPatterns))]))
	}
	col, st, _ := parityEngines(t)
	for _, e := range exprs {
		and, bounded := mustPlan(t, e).(And)
		if !bounded {
			continue
		}
		if b := and.Children[0]; hasScan(b) {
			t.Errorf("bound of %s scans: %s", e, b)
		} else if got, err := viewTree(context.Background(), st.Pin().Sub(0, st.Len())).eval(b, nil); err != nil {
			t.Fatal(err)
		} else if lost := scanBits(col, st, e).AndNot(got); lost.Count() > 0 {
			t.Errorf("bound %s of %s drops %d matches", b, e, lost.Count())
		}
	}
}

func TestOptimizeFlattensNestedBooleans(t *testing.T) {
	p := Optimize(mustPlan(t, query.And{query.And{idxDiag, idxStay}, scanOnly}))
	and, ok := p.(And)
	if !ok || len(and.Children) != 3 {
		t.Fatalf("got %s, want flattened 3-child and", p)
	}
	p = Optimize(mustPlan(t, query.Or{query.Or{idxDiag, idxStay}, query.Or{scanOnly}}))
	or, ok := p.(Or)
	if !ok || len(or.Children) != 3 {
		t.Fatalf("got %s, want flattened 3-child or", p)
	}
}

func TestOptimizeConstantFolding(t *testing.T) {
	cases := []struct {
		expr query.Expr
		want Plan
	}{
		{query.Not{E: query.TrueExpr{}}, None{}},
		{query.Not{E: query.Not{E: query.TrueExpr{}}}, All{}},
		{query.And{query.TrueExpr{}, query.TrueExpr{}}, All{}},
		{query.And{idxStay, query.Not{E: query.TrueExpr{}}}, None{}},
		{query.Or{idxStay, query.TrueExpr{}}, All{}},
		{query.And{}, All{}},
		{query.Or{}, None{}},
	}
	for _, c := range cases {
		got := Optimize(mustPlan(t, c.expr))
		if got.Key() != c.want.Key() {
			t.Errorf("Optimize(%s) = %s, want %s", c.expr, got, c.want)
		}
	}
	// Neutral elements drop out without collapsing the node.
	p := Optimize(mustPlan(t, query.And{query.TrueExpr{}, idxStay}))
	if _, ok := p.(IndexScan); !ok {
		t.Errorf("And{true, x} should collapse to x, got %s", p)
	}
}

func TestOptimizeDedupesSiblings(t *testing.T) {
	p := Optimize(mustPlan(t, query.And{idxDiag, idxDiag, idxStay}))
	and, ok := p.(And)
	if !ok || len(and.Children) != 2 {
		t.Fatalf("duplicate sibling survived: %s", p)
	}
	if got := Optimize(mustPlan(t, query.Or{scanOnly, scanOnly})); hasScan(got) {
		if _, single := got.(Scan); !single {
			t.Errorf("Or of identical scans should collapse to one: %s", got)
		}
	}
}

func TestOptimizeHoistsIndexLeavesFirst(t *testing.T) {
	p := Optimize(mustPlan(t, query.And{scanOnly, idxDiag, idxStay}))
	and, ok := p.(And)
	if !ok {
		t.Fatalf("got %s", p)
	}
	if hasScan(and.Children[0]) || hasScan(and.Children[1]) || !hasScan(and.Children[2]) {
		t.Errorf("scan leaf not hoisted last: %s", p)
	}
	// Stable among the index leaves: idxDiag stays ahead of idxStay.
	if !strings.Contains(and.Children[0].String(), "ICPC2") {
		t.Errorf("hoist not stable: %s", p)
	}
}

func TestKeyIsOrderInsensitive(t *testing.T) {
	a := Optimize(mustPlan(t, query.And{idxDiag, scanOnly}))
	b := Optimize(mustPlan(t, query.And{scanOnly, idxDiag}))
	if a.Key() != b.Key() {
		t.Errorf("And keys differ by child order:\n %s\n %s", a.Key(), b.Key())
	}
	if a.String() != b.String() {
		// Execution order is canonicalized too (hoisting), so the
		// rendered plans should agree here as well.
		t.Errorf("hoisted plans differ: %s vs %s", a, b)
	}
	n1 := Optimize(mustPlan(t, query.Or{idxStay, idxDiag}))
	n2 := Optimize(mustPlan(t, query.Or{idxDiag, idxStay}))
	if n1.Key() != n2.Key() {
		t.Errorf("Or keys differ by child order")
	}
}

// aliasPairs are criteria that once shared a plan key and answer
// differently: a bare system "code" printed like any system, a system
// holding '|' like the ICPC2|ICD10 pair a typed diagnosis reaches, a
// system "text" like a text criterion, and both empty lists as "()".
func aliasPairs() [][2]query.Expr {
	text, err := query.NewTextMatch("T90")
	if err != nil {
		panic(err)
	}
	has := func(p query.EventPred) query.Has { return query.Has{Pred: p} }
	return [][2]query.Expr{
		{has(query.MustCode("", "T90")), has(query.MustCode("code", "T90"))},
		{has(query.AllOf{query.MustCode("", "T90"), query.TypeIs(model.TypeDiagnosis)}), has(query.MustCode("ICPC2|ICD10", "T90"))},
		{query.Has{Pred: text, MinCount: 2}, query.Has{Pred: query.MustCode("text", "T90"), MinCount: 2}},
		{has(query.AllOf{}), has(query.AnyOf{})},
	}
}

// TestOpaquePredicatesNeverConflate: neither the result cache, the plan
// memo nor the optimizer's sibling dedupe may treat two criteria that
// once rendered alike as one — each answers what Eval answers, whichever
// ran first.
func TestOpaquePredicatesNeverConflate(t *testing.T) {
	hs := make([]*model.History, 4)
	for i := range hs {
		hs[i] = model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, 1, 1)})
		for j := 0; j < 2; j++ {
			hs[i].Add(model.Entry{ID: uint64(2*i + j), Kind: model.Point, Start: model.Date(2010, 1, 1), End: model.Date(2010, 1, 1),
				Type: model.TypeDiagnosis, Code: model.Code{System: "ICPC2", Value: "T90"}, Text: "T90"})
		}
	}
	st := store.New(model.MustCollection(hs...))
	eng := New(st, Options{CacheSize: 16})
	for _, pair := range aliasPairs() {
		a, b := pair[0], pair[1]
		for _, e := range []query.Expr{a, b, query.And{a, b}, query.Or{b, a}} {
			got, err := eng.Execute(e)
			if err != nil {
				t.Fatal(err)
			}
			if want := st.Where(e.Eval); !got.Equal(want) {
				t.Errorf("%s: %d patients, Eval says %d", e, got.Count(), want.Count())
			}
		}
		p, err := Explain(query.And{a, b})
		if err != nil {
			t.Fatal(err)
		}
		kept := map[string]bool{}
		if and, ok := p.(And); ok {
			for _, c := range and.Children {
				kept[c.Key()] = true
			}
		}
		for _, x := range pair {
			leaf := mustPlan(t, x)
			if lowered, bounded := leaf.(And); bounded {
				leaf = lowered.Children[1] // the scan under its bound
			}
			if !kept[leaf.Key()] {
				t.Errorf("distinct siblings deduped: %s lost from %s", leaf, p)
			}
		}
	}
}

// TestSequenceGapsKeyAtFullResolution: sequence gap constraints are set
// in minutes; the rendered plan key must distinguish sub-day differences
// or the cache/dedupe would conflate semantically different patterns.
func TestSequenceGapsKeyAtFullResolution(t *testing.T) {
	seq := func(min model.Time) query.Expr {
		return query.Sequence{Steps: []query.Step{
			{Pred: query.TypeIs(model.TypeDiagnosis)},
			{Pred: query.TypeIs(model.TypeContact), MinGap: min},
		}}
	}
	a := mustPlan(t, seq(1*model.Hour))
	b := mustPlan(t, seq(23*model.Hour))
	if a.Key() == b.Key() {
		t.Fatalf("sub-day gap difference lost in key: %s", a.Key())
	}
	c := mustPlan(t, seq(2*model.Day))
	d := mustPlan(t, seq(3*model.Day))
	if c.Key() == d.Key() {
		t.Fatalf("whole-day gap difference lost in key: %s", c.Key())
	}
}

// FuzzEqualKeysEqualAnswers: the result cache and the plan memo hand one
// key's entry to every expression that renders to that key, so two leaves
// whose compiled keys are equal must select the same patients. The leaves
// cover every criterion with a rendered argument — sex, age, value band,
// period, type, source and kind — at out-of-range enum bytes, NaN and
// infinite bounds and times beyond the calendar's range, plus code
// criteria over every code system the synthetic sources use, the words
// "code" and "text", a system holding '|' and one made of fuzz bytes
// (alone, counted, and typed onto the index route), AllOf, AnyOf and
// NotEv lists of zero to two leaves, and narrow value bands on either
// side of zero. Two leaves whose candidate bounds share a key must also
// have bounds that select the same patients: bands on the same value
// buckets share one cached bound.
func FuzzEqualKeysEqualAnswers(f *testing.F) {
	f.Add(uint8(0), int64(3), int64(0), int64(0), uint8(0), int64(0), int64(0), int64(0))                  // SexIs(3) vs SexIs(0)
	f.Add(uint8(1), int64(60), int64(80), int64(math.MaxInt64), uint8(1), int64(60), int64(80), int64(-1)) // At wraps to 1999-12-31T23:59
	f.Add(uint8(3), int64(0), int64(math.MaxInt64), int64(0), uint8(3), int64(0), int64(-1), int64(0))     // End wraps likewise
	f.Add(uint8(2), int64(math.Float64bits(math.NaN())), int64(math.Float64bits(1)), int64(0),
		uint8(2), int64(math.Float64bits(math.Copysign(0, -1))), int64(math.Float64bits(math.Inf(1))), int64(0))
	f.Add(uint8(4), int64(9), int64(0), int64(0), uint8(5), int64(9), int64(0), int64(0))
	f.Add(uint8(6), int64(2), int64(0), int64(0), uint8(6), int64(258), int64(0), int64(0)) // 258 is kind 2 as a byte
	// The aliasing pairs aliasPairs names: any system vs "code", typed
	// any-system diagnosis vs a system "ICPC2|ICD10", counted text vs a
	// counted system "text", and AllOf{} vs AnyOf{}.
	f.Add(uint8(7), int64(0), int64(0), int64(0), uint8(7), int64(4), int64(0), int64(0))
	f.Add(uint8(8), int64(0), int64(model.TypeDiagnosis), int64(0), uint8(7), int64(5), int64(0), int64(0))
	f.Add(uint8(7), int64(8), int64(0), int64(2), uint8(7), int64(6), int64(0), int64(2))
	f.Add(uint8(9), int64(0), int64(0), int64(0), uint8(9), int64(1), int64(0), int64(0))
	// Bands on the value buckets of 60–72 and of −72…−60, one pair each,
	// and two that share only their first bucket.
	bits := func(v float64) int64 { return int64(math.Float64bits(v)) }
	f.Add(uint8(2), bits(60), bits(65), int64(0), uint8(2), bits(61), bits(70), int64(0))
	f.Add(uint8(2), bits(60), bits(63), int64(0), uint8(2), bits(60), bits(65), int64(0))
	f.Add(uint8(2), bits(-65), bits(-60), int64(0), uint8(2), bits(-70), bits(-61), int64(0))
	f.Add(uint8(10), int64(60), int64(20), int64(0), uint8(10), int64(61), int64(36), int64(0))
	probe := keyProbe()
	view := store.New(model.MustCollection(probe...)).Pin()
	f.Fuzz(func(t *testing.T, ka uint8, a0, a1, a2 int64, kb uint8, b0, b1, b2 int64) {
		ea, eb := fuzzLeaf(ka, a0, a1, a2), fuzzLeaf(kb, b0, b1, b2)
		ba, okA, _ := bound(ea)
		bb, okB, _ := bound(eb)
		if okA && okB && ba.Key() == bb.Key() {
			ga, errA := viewTree(context.Background(), view).eval(ba, nil)
			gb, errB := viewTree(context.Background(), view).eval(bb, nil)
			if errA != nil || errB != nil || !ga.Equal(gb) {
				t.Fatalf("the bounds of %s and %s share key %q but select %v and %v (%v, %v)",
					ea, eb, ba.Key(), ga.Ones(), gb.Ones(), errA, errB)
			}
		}
		key := mustPlan(t, ea).Key()
		if key != mustPlan(t, eb).Key() {
			return
		}
		for _, h := range probe {
			if ea.Eval(h) != eb.Eval(h) {
				t.Fatalf("%s and %s (%#v, %#v) share key %q but differ on %s", ea, eb, ea, eb, key, h.Patient.ID)
			}
		}
	})
}

// fuzzLeaf builds one leaf criterion from a selector and three raw
// arguments; enum arguments keep only their low byte.
func fuzzLeaf(kind uint8, x, y, z int64) query.Expr {
	has := func(p query.EventPred) query.Expr { return query.Has{Pred: p} }
	switch kind % 11 {
	case 0:
		return query.SexIs(uint8(x))
	case 1:
		return query.AgeBetween{Lo: int(x), Hi: int(y), At: model.Time(z)}
	case 2:
		return has(query.ValueBetween{Lo: math.Float64frombits(uint64(x)), Hi: math.Float64frombits(uint64(y))})
	case 3:
		return has(query.InPeriod(model.Period{Start: model.Time(x), End: model.Time(y)}))
	case 4:
		return has(query.TypeIs(uint8(x)))
	case 5:
		return has(query.SourceIs(uint8(x)))
	case 6:
		return has(query.KindIs(uint8(x)))
	case 7: // a code in system x (or, past the systems, text), counted z
		p := query.EventPred(fuzzCode(x, y))
		if uint64(x)%9 == 8 {
			text, err := query.NewTextMatch("T90")
			if err != nil {
				panic(err)
			}
			p = text
		}
		return query.Has{Pred: p, MinCount: int(uint64(z) % 3)}
	case 8: // a typed code: the index route for diagnoses and medications
		return has(query.AllOf{fuzzCode(x, z), query.TypeIs(uint8(y))})
	case 10: // a band up to 4 wide, in quarters, from ±x: mostly bounded
		lo := float64(x%200) / 2
		return has(query.ValueBetween{Lo: lo, Hi: lo + float64(uint64(y)%17)/4})
	default: // AllOf, AnyOf or NotEv over y%3 leaves drawn from z's bytes
		leaves := make([]query.EventPred, uint64(y)%3)
		for i := range leaves {
			b := uint8(z >> (8 * i))
			switch b % 3 {
			case 0:
				leaves[i] = fuzzCode(int64(b/3), z>>16)
			case 1:
				leaves[i] = query.TypeIs(b / 3 % 9)
			default:
				leaves[i] = query.KindIs(b / 3 % 3)
			}
		}
		switch uint64(x) % 3 {
		case 0:
			return has(query.AllOf(leaves))
		case 1:
			return has(query.AnyOf(leaves))
		}
		if len(leaves) == 1 {
			return has(query.NotEv{P: leaves[0]})
		}
		return has(query.NotEv{P: query.AnyOf(leaves)})
	}
}

// fuzzCode is Code(system, "T90") over the systems keyProbe codes in, with
// the eighth system spelled by raw's bytes.
func fuzzCode(sel, raw int64) *query.Code {
	systems := []string{"", "ICPC2", "ICD10", "ATC", "code", "ICPC2|ICD10", "text",
		strings.TrimRight(string(binary.LittleEndian.AppendUint64(nil, uint64(raw))), "\x00")}
	return query.MustCode(systems[uint64(sel)%8], "T90")
}

// keyProbe is a fixed population on which distinct leaves tell apart: every
// sex byte 0–3, births from 1930 on, and entries of every type, source and
// kind byte the model names plus one past it, with values and times at the
// extremes as well as ordinary ones, a code T90 in every system fuzzCode
// names (or none) — on every type, but for the systems integration keeps
// to diagnoses or medications — and the text "T90" on every other entry.
func keyProbe() []*model.History {
	times := []model.Time{model.Time(math.MinInt64), model.NoTime, -model.Year, -1, 0,
		model.Date(2010, 3, 1), model.Date(2010, 3, 1) + 7*model.Hour, model.Time(math.MaxInt64 / 61), model.Time(math.MaxInt64)}
	values := []float64{math.NaN(), math.Inf(-1), -1e300, -1, math.Copysign(0, -1), 0.5, 120, math.Inf(1), 61.5, 66, -63, 70.25}
	systems := []string{"", "ICPC2", "ICD10", "ATC", "code", "ICPC2|ICD10", "text"}
	var hs []*model.History
	for i := 0; i < 24; i++ {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Sex: model.Sex(i % 4), Birth: model.Date(1930+3*i, 1, 1)})
		for j := 0; j < 3; j++ {
			k := 3*i + j
			start := times[k%len(times)]
			end := start
			if k%2 == 1 && start < math.MaxInt64-model.Month {
				end = start + model.Month
			}
			en := model.Entry{ID: uint64(k), Kind: model.Kind(k % 3), Start: start, End: end,
				Type: model.Type(k % 8), Source: model.Source(k % 7), Value: values[k%len(values)]}
			if sys := systems[k%len(systems)]; sys != "" {
				en.Code = model.Code{System: sys, Value: "T90"}
			}
			switch en.Code.System { // ClassifyHas's typed route relies on integration's confinement
			case "ICPC2", "ICD10":
				en.Type = model.TypeDiagnosis
			case "ATC":
				en.Type = model.TypeMedication
			}
			if k%2 == 0 {
				en.Text = "T90"
			}
			h.Add(en)
		}
		hs = append(hs, h)
	}
	return hs
}

func TestNewClampsShards(t *testing.T) {
	hs := make([]*model.History, 10)
	for i := range hs {
		hs[i] = model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, 1, 1)})
	}
	st := store.New(model.MustCollection(hs...))
	if got := New(st, Options{Shards: 64}).NumShards(); got > 10 {
		t.Errorf("shards %d exceed population 10", got)
	}
	if got := New(st, Options{Shards: 0}).NumShards(); got != 1 {
		t.Errorf("zero shards should clamp to 1, got %d", got)
	}
	empty := New(store.New(model.MustCollection()), Options{Shards: 8})
	if got := empty.NumShards(); got != 1 {
		t.Errorf("empty store should have 1 shard, got %d", got)
	}
	b, err := empty.Execute(query.TrueExpr{})
	if err != nil || b.Count() != 0 {
		t.Errorf("empty store All = %v, %v", b, err)
	}
}
