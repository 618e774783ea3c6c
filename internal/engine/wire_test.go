package engine

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
)

// encodeWire serializes a raw wire node, bypassing planToWire's
// validation — how a hostile peer would craft a payload.
func encodeWire(w wirePlan) ([]byte, error) {
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(&w)
	return buf.Bytes(), err
}

// TestWireRoundTripFixed covers every canonical node kind explicitly.
func TestWireRoundTripFixed(t *testing.T) {
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	exprs := []query.Expr{
		query.TrueExpr{},
		query.Not{E: query.TrueExpr{}},
		query.Has{Pred: query.MustCode("ICPC2", "T90")},
		query.Has{Pred: query.MustCode("", `E11(\..*)?`), MinCount: 3},
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", `K8.`)}},
		query.Has{Pred: query.AnyOf{query.SourceIs(model.SourceGP), query.KindIs(model.Interval)}},
		query.Has{Pred: query.NotEv{P: query.ValueBetween{Lo: 1.5, Hi: 9.75}}},
		query.Has{Pred: query.InPeriod(window)},
		query.Has{Pred: mustText(t, "infarct.*")},
		query.And{
			query.AgeBetween{Lo: 30, Hi: 70, At: window.Start},
			query.Or{query.SexIs(model.SexFemale), query.Has{Pred: query.TypeIs(model.TypeMedication)}},
		},
		query.Sequence{Steps: []query.Step{
			{Pred: query.MustCode("", "T90")},
			{Pred: query.TypeIs(model.TypeStay), MinGap: 7 * model.Day, MaxGap: 90 * model.Day},
		}},
		query.During{Interval: query.TypeIs(model.TypeStay), Event: query.TypeIs(model.TypeDiagnosis)},
	}
	for _, e := range exprs {
		p, err := Compile(e)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		checkWireRoundTrip(t, p)
		// Optimized plans must round-trip too (that is what a coordinator
		// actually ships).
		checkWireRoundTrip(t, Optimize(p))
	}
}

func mustText(t *testing.T, pattern string) query.EventPred {
	t.Helper()
	tm, err := query.NewTextMatch(pattern)
	if err != nil {
		t.Fatal(err)
	}
	return tm
}

func checkWireRoundTrip(t *testing.T, p Plan) {
	t.Helper()
	data, err := EncodePlan(p)
	if err != nil {
		t.Fatalf("encode %s: %v", p, err)
	}
	got, err := DecodePlan(data)
	if err != nil {
		t.Fatalf("decode %s: %v", p, err)
	}
	if got.Key() != p.Key() {
		t.Fatalf("round trip changed plan:\n was %s\n now %s", p.Key(), got.Key())
	}
}

// TestWireRoundTripRandom drives the codec with the parity generator's
// random expressions — the same population of plans the distributed
// engine ships in the loopback parity test.
func TestWireRoundTripRandom(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	for i := 0; i < 200; i++ {
		e := randExpr(r, 1+r.Intn(3))
		p, err := Compile(e)
		if err != nil {
			t.Fatalf("compile %s: %v", e, err)
		}
		checkWireRoundTrip(t, Optimize(p))
	}
}

// TestWireRejectsOpaque: closures cannot cross a process boundary; the
// encoder must say so instead of shipping a plan that silently matches
// nothing.
func TestWireRejectsOpaque(t *testing.T) {
	opaque := query.Has{Pred: opaquePred{
		fn:   func(e *model.Entry) bool { return e.Value > 10 },
		name: "high-value",
	}}
	p, err := Compile(opaque)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodePlan(p); err == nil {
		t.Error("opaque plan encoded without error")
	}
	// Opaque anywhere in the tree poisons the whole plan.
	nested, err := Compile(query.And{query.TrueExpr{}, opaque})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EncodePlan(nested); err == nil {
		t.Error("nested opaque plan encoded without error")
	}
}

// TestWireRejectsHostilePayloads: garbage and lies must error, never
// panic or yield a plan with nil internals.
func TestWireRejectsHostilePayloads(t *testing.T) {
	if _, err := DecodePlan([]byte("not a gob stream")); err == nil {
		t.Error("garbage decoded")
	}
	if _, err := DecodePlan(nil); err == nil {
		t.Error("empty payload decoded")
	}
	// A structurally valid wire plan with an invalid regex must be
	// rejected at decode time, not explode at evaluation time.
	bad, err := encodeWire(wirePlan{Kind: wireScan, Expr: &wireExpr{
		Kind: wireExprHas,
		Pred: &wirePred{Kind: wirePredCode, Pattern: "("},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(bad); err == nil {
		t.Error("invalid code pattern decoded")
	}
	bad, err = encodeWire(wirePlan{Kind: "mystery"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePlan(bad); err == nil {
		t.Error("unknown node kind decoded")
	}
}
