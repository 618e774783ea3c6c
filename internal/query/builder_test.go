package query

import (
	"reflect"
	"testing"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/store"
	"pastas/internal/synth"
)

func TestSpecCompileLeafOps(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"true", Spec{Op: "true"}, true},
		{"empty-op", Spec{}, true},
		{"has-code", Spec{Op: "has", Pattern: "T90", Type: "diagnosis"}, true},
		{"has-nothing", Spec{Op: "has"}, false},
		{"has-bad-pattern", Spec{Op: "has", Pattern: "("}, false},
		{"has-bad-type", Spec{Op: "has", Type: "nope"}, false},
		{"has-bad-source", Spec{Op: "has", Type: "contact", Source: "nope"}, false},
		{"has-bad-text", Spec{Op: "has", Text: "("}, false},
		{"age", Spec{Op: "age", LoAge: 10, HiAge: 20, AtISO: "2010-01-01"}, true},
		{"age-bad-date", Spec{Op: "age", AtISO: "nope"}, false},
		{"sex-f", Spec{Op: "sex", Sex: "F"}, true},
		{"sex-bad", Spec{Op: "sex", Sex: "X"}, false},
		{"not-wrong-arity", Spec{Op: "not"}, false},
		{"and-empty", Spec{Op: "and"}, false},
		{"seq-empty", Spec{Op: "sequence"}, false},
		{"during-missing", Spec{Op: "during"}, false},
		{"unknown", Spec{Op: "zzz"}, false},
	}
	for _, c := range cases {
		_, err := c.spec.Compile()
		if (err == nil) != c.ok {
			t.Errorf("%s: err=%v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	spec := NewBuilder().
		HasCodeIn("ICPC2", `F.*|H.*`).
		MinContacts("gp", 4).
		AgeBetween(18, 99, "2010-01-01").
		Spec()
	data, err := spec.MarshalJSONSpec()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec, back) {
		t.Errorf("JSON round trip mismatch:\n%+v\n%+v", spec, back)
	}
	if _, err := back.Compile(); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseSpec([]byte("{broken")); err == nil {
		t.Error("bad JSON accepted")
	}
}

func TestBuilderSemantics(t *testing.T) {
	h := hist(1, model.SexFemale,
		dx(1, 0, "ICPC2", "F92"),
		contact(2, 1, model.SourceGP),
		contact(3, 2, model.SourceGP),
	)
	expr, err := NewBuilder().HasCode(`F.*|H.*`).MinContacts("gp", 2).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !expr.Eval(h) {
		t.Error("builder query should match")
	}
	expr3, err := NewBuilder().MinContacts("gp", 3).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if expr3.Eval(h) {
		t.Error("MinContacts 3 must fail with 2 contacts")
	}

	// Exclusion.
	exSpec := &Spec{Op: "has", Pattern: "F92", Type: "diagnosis"}
	exExpr, err := NewBuilder().HasCode(`F.*`).Add(&Spec{Op: "not", Children: []*Spec{exSpec}}).Compile()
	if err != nil {
		t.Fatal(err)
	}
	if exExpr.Eval(h) {
		t.Error("excluded code still matched")
	}

	// Empty builder = match-all.
	all, err := NewBuilder().Compile()
	if err != nil {
		t.Fatal(err)
	}
	if !all.Eval(h) {
		t.Error("empty builder must match everything")
	}
}

func TestSequenceSpecCompile(t *testing.T) {
	spec := &Spec{
		Op: "sequence",
		Steps: []*Spec{
			{Pattern: "K75", Type: "diagnosis"},
			{Type: "contact", Source: "gp", MinGapDays: 1, MaxGapDays: 90},
		},
	}
	expr, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	h := hist(1, model.SexMale,
		dx(1, 0, "ICPC2", "K75"),
		contact(2, 30, model.SourceGP),
	)
	if !expr.Eval(h) {
		t.Error("compiled sequence should match")
	}
}

func TestDuringSpecCompile(t *testing.T) {
	spec := &Spec{
		Op:       "during",
		Interval: &Spec{Type: "stay"},
		Event:    &Spec{Pattern: `E11.*`, Type: "diagnosis"},
	}
	expr, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	h := hist(1, model.SexMale,
		stay(1, 10, 7, "I21.9"),
		dx(2, 12, "ICD10", "E11.9"),
	)
	if !expr.Eval(h) {
		t.Error("compiled during should match")
	}
}

func TestIndexedMatchesScan(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(500))
	col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(col)

	exprs := []Expr{
		Has{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("", "T90")}},
		Has{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("ICPC2", `K8.`)}},
		Has{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("ICD10", `I2.*`)}},
		Has{Pred: AllOf{TypeIs(model.TypeMedication), MustCode("", `A10.*`)}},
		Has{Pred: TypeIs(model.TypeStay)},
		Has{Pred: SourceIs(model.SourceMunicipal)},
		Has{Pred: MustCode("", `T90|E11(\..*)?`)},
		And{
			Has{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("", `T90`)}},
			Not{Has{Pred: TypeIs(model.TypeStay)}},
		},
		Or{
			Has{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("", `K90`)}},
			Has{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("", `K75`)}},
		},
		// Non-indexable leaves must agree through the fallback.
		Has{Pred: MustCode("", `K86`), MinCount: 3},
		Sequence{Steps: []Step{
			{Pred: AllOf{TypeIs(model.TypeDiagnosis), MustCode("", `K86`)}},
			{Pred: TypeIs(model.TypeMeasurement), MaxGap: Days(1)},
		}},
	}
	for _, e := range exprs {
		want := Select(col, e)
		bits, err := EvalIndexed(st, e)
		if err != nil {
			t.Fatalf("%s: %v", e, err)
		}
		got := st.IDsOf(bits)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("indexed and scan disagree for %s:\n got %d ids\nwant %d ids", e, len(got), len(want))
		}
	}
}

func TestIndexedBadPattern(t *testing.T) {
	st := store.New(model.MustCollection())
	// Bad pattern inside Code predicate cannot be constructed via MustCode;
	// check EvalIndexed surfaces the All/Empty paths instead.
	b, err := EvalIndexed(st, TrueExpr{})
	if err != nil || b.Count() != 0 {
		t.Errorf("empty store All = %v, %v", b, err)
	}
}
