package engine

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"strings"
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
		query.Has{Pred: query.ValueBetween{Lo: 60, Hi: 65}},
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeMeasurement), query.ValueBetween{Lo: -65, Hi: -60}}},
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

// TestWireRejectsOpaque: a plan holding a value with no wire form — a
// nil predicate — must not encode to some other query; the encoder says
// so, wherever in the tree the value sits.
func TestWireRejectsOpaque(t *testing.T) {
	for _, e := range []query.Expr{
		query.Has{},
		query.And{query.TrueExpr{}, query.Has{}},
		query.Not{E: query.During{Interval: query.TypeIs(model.TypeStay)}},
	} {
		if _, err := EncodePlan(mustPlan(t, e)); err == nil || !strings.Contains(err.Error(), "no wire form") {
			t.Errorf("EncodePlan(%s) = %v, want a no-wire-form error", e, err)
		}
		if _, err := EncodeExpr(e); err == nil {
			t.Errorf("EncodeExpr(%s) encoded without error", e)
		}
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

// TestWireRejectsValueBuckets: a value lookup decodes only over one run
// of bucket keys of one sign, below 1<<15 — the runs valueBound makes.
func TestWireRejectsValueBuckets(t *testing.T) {
	decode := func(b [2]uint16) error {
		data, err := encodeWire(wirePlan{Kind: wireIndex, Op: int(OpValue), Buckets: b})
		if err != nil {
			t.Fatal(err)
		}
		_, err = DecodePlan(data)
		return err
	}
	for _, b := range [][2]uint16{{0, 0}, {8231, 8234}, {1<<14 - 1, 1<<14 - 1}, {1 << 14, 1<<15 - 1}} {
		if err := decode(b); err != nil {
			t.Errorf("buckets %v refused: %v", b, err)
		}
	}
	for name, b := range map[string][2]uint16{
		"a key of 1<<15":   {1 << 15, 1 << 15},
		"a key past 1<<15": {1 << 14, 1<<16 - 1},
		"a reversed range": {8234, 8231},
		"a range across 0": {1<<14 - 1, 1 << 14},
		"every key":        {0, 1<<15 - 1},
	} {
		if err := decode(b); err == nil {
			t.Errorf("%s (%v) decoded", name, b)
		}
	}
}
