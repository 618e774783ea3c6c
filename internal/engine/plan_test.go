package engine

import (
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
	scanOnly = query.Has{Pred: query.MustCode("", "T90"), MinCount: 3}
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

func TestCompileRejectsBadPattern(t *testing.T) {
	bad := query.Has{Pred: &query.Code{System: "ICPC2", Pattern: "("}}
	if _, err := Compile(bad); err == nil {
		t.Error("Compile accepted an invalid regex")
	}
	eng := New(store.New(model.MustCollection()), Options{})
	if _, err := eng.Execute(bad); err == nil {
		t.Error("Execute accepted an invalid regex")
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

// opaquePred is an event predicate type the engine does not know: a
// closure that stringifies by name only, "fn" when it has none.
type opaquePred struct {
	name string
	fn   func(*model.Entry) bool
}

func (p opaquePred) Match(e *model.Entry) bool { return p.fn(e) }
func (p opaquePred) String() string {
	if p.name != "" {
		return p.name
	}
	return "fn"
}

// TestOpaquePredicatesNeverConflate: opaque closures stringify by name
// only, so two different functions can render identically. Neither the
// plan cache nor the optimizer's sibling dedupe may treat them as equal.
func TestOpaquePredicatesNeverConflate(t *testing.T) {
	hs := make([]*model.History, 8)
	for i := range hs {
		hs[i] = model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, 1, 1)})
		hs[i].Add(model.Entry{ID: 1, Kind: model.Point, Start: model.Date(2010, 1, 1), End: model.Date(2010, 1, 1),
			Type: model.TypeContact, Value: float64(i)})
	}
	st := store.New(model.MustCollection(hs...))
	eng := New(st, Options{Shards: 2, CacheSize: 16})

	low := query.Has{Pred: opaquePred{fn: func(e *model.Entry) bool { return e.Value < 4 }}}
	high := query.Has{Pred: opaquePred{fn: func(e *model.Entry) bool { return e.Value >= 4 }}}

	// Same rendered string, different semantics: the cache must not serve
	// the first result for the second query.
	b1, err := eng.Execute(low)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := eng.Execute(high)
	if err != nil {
		t.Fatal(err)
	}
	if b1.Count() != 4 || b2.Count() != 4 || b1.Equal(b2) {
		t.Fatalf("opaque predicates conflated: low=%d high=%d", b1.Count(), b2.Count())
	}

	// Dedupe must not collapse distinct opaque siblings either.
	both, err := eng.Execute(query.And{low, high})
	if err != nil {
		t.Fatal(err)
	}
	if both.Count() != 0 {
		t.Fatalf("And of disjoint opaque predicates = %d, want 0", both.Count())
	}
	p, err := Explain(query.And{low, high})
	if err != nil {
		t.Fatal(err)
	}
	if and, ok := p.(And); !ok || len(and.Children) != 2 {
		t.Fatalf("distinct opaque siblings deduped: %s", p)
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
