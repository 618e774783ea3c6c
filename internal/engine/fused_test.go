package engine

// The fused pass: an And's adjacent Scan children run as one pass over
// its candidates (tree.eval hands the run to scanView), each child keeping
// its own compiled matcher or its own Expr.Eval. The answers must not
// move — local engine, LocalShards and a shard server against the
// per-history scan and query.EvalIndexed — while a run costs one scan
// call, and a TextMatch in it reads only the histories that reach it.

import (
	"context"
	"math"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// scanRunLeaf draws the scan leaf pick names: a value band (its bounds
// NaN, ±0 or blood pressures, reversed one time in four), an age band, a
// sex, "at least k" of a type, a two-step Sequence or a TextMatch.
func scanRunLeaf(r *rand.Rand, pick byte) query.Expr {
	bound := func() float64 {
		return []float64{math.NaN(), 0, math.Copysign(0, -1), float64(100 + r.Intn(80))}[min(r.Intn(6), 3)]
	}
	measured := query.TypeIs(model.TypeMeasurement)
	switch pick % 6 {
	case 0:
		lo, hi := bound(), bound()
		if r.Intn(4) != 0 && lo > hi {
			lo, hi = hi, lo
		}
		return query.Has{Pred: query.ValueBetween{Lo: lo, Hi: hi}}
	case 1:
		lo := 10 + r.Intn(60)
		return query.AgeBetween{Lo: lo, Hi: lo + r.Intn(40), At: model.Date(2011, 1, 1)}
	case 2:
		return query.SexIs(model.Sex(1 + r.Intn(2)))
	case 3:
		return query.Has{Pred: []query.EventPred{measured, query.TypeIs(model.TypeDiagnosis)}[r.Intn(2)], MinCount: 2 + r.Intn(3)}
	case 4:
		return query.Sequence{Steps: []query.Step{{Pred: measured},
			{Pred: query.TypeIs(model.TypeDiagnosis), MaxGap: query.Days(30 + r.Intn(400))}}}
	default:
		return query.Has{Pred: scanText}
	}
}

// scanRunExpr is the And of the scan leaves picks name.
func scanRunExpr(r *rand.Rand, picks []byte) query.Expr {
	out := make(query.And, len(picks))
	for i, pick := range picks {
		out[i] = scanRunLeaf(r, pick)
	}
	return out
}

// countedText is a TextMatch leaf that counts the histories it reads: the
// frame cannot answer it, so a scan evaluates it per history.
type countedText struct {
	query.Has
	reads *atomic.Int64
}

func (c countedText) Eval(h *model.History) bool {
	c.reads.Add(1)
	return c.Has.Eval(h)
}

// TestFusedScanRunsMatchEvalIndexed: Ands of two to four scan leaves —
// bands at NaN, ±0 and reversed, ages, sexes, MinCount > 1, a Sequence, a
// TextMatch, and a first leaf that empties every word — answer what
// query.EvalIndexed does on a local engine, on LocalShards {1, 4, 16,
// N+7} and through a shard server, and a local engine spends one scan
// call on the run.
func TestFusedScanRunsMatchEvalIndexed(t *testing.T) {
	col, st, engines := parityEngines(t)
	served := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 30 * time.Second}).eng
	counted := New(st, Options{Workers: 2})
	empty := query.Has{Pred: query.ValueBetween{Lo: 150, Hi: 100}}
	exprs := []query.Expr{
		query.And{empty, query.Has{Pred: scanText}},
		query.And{empty, query.AgeBetween{Lo: 0, Hi: 120, At: model.Date(2011, 1, 1)}, query.SexIs(model.SexFemale)},
	}
	r := rand.New(rand.NewSource(46))
	for len(exprs) < 60 {
		picks := make([]byte, 2+r.Intn(3))
		for i := range picks {
			picks[i] = byte(r.Intn(6))
		}
		exprs = append(exprs, scanRunExpr(r, picks))
	}
	for _, e := range exprs {
		checkParityOn(t, col, st, engines, e)
		want := scanBits(col, st, e)
		got, err := served.Execute(e)
		if err != nil {
			t.Fatalf("shard server: %s: %v", e, err)
		}
		if !got.Equal(want) {
			t.Fatalf("shard server: %s answered %d, want %d", e, got.Count(), want.Count())
		}
		before := counted.ShardStats()[0].Queries
		if _, err := counted.Execute(e); err != nil {
			t.Fatal(err)
		}
		// Every Scan of these plans is a child of the one And, so they are
		// one run; only an accumulator emptied before it skips the call.
		if calls := counted.ShardStats()[0].Queries - before; calls != 1 && (calls != 0 || want.Count() != 0) {
			t.Errorf("%s: %d scan calls for one run of scans", e, calls)
		}
	}
}

// TestFusedRunReadsTextOnlyForSurvivors: in a run, a TextMatch after a
// compiled band reads the history of exactly the candidates the band
// keeps — none behind a band that empties every word — at one worker or
// several, masked or not, and the run answers the conjunction.
func TestFusedRunReadsTextOnlyForSurvivors(t *testing.T) {
	col, st, _ := parityEngines(t)
	v := st.Pin()
	var reads atomic.Int64
	text := countedText{Has: query.Has{Pred: scanText}, reads: &reads}
	mask := v.Empty()
	for i := 0; i < v.Len(); i += 2 {
		mask.Set(i)
	}
	for _, band := range []query.Expr{
		query.Has{Pred: query.ValueBetween{Lo: 120, Hi: 140}},
		query.Has{Pred: query.ValueBetween{Lo: math.Copysign(0, -1), Hi: 0}},
		query.Has{Pred: query.ValueBetween{Lo: 150, Hi: 100}},
	} {
		kept, want := scanBits(col, st, band), scanBits(col, st, query.And{band, text.Has})
		for _, m := range []*store.Bitset{nil, mask} {
			reach, ref := kept.Clone(), want.Clone()
			if m != nil {
				reach.And(m)
				ref.And(m)
			}
			for _, workers := range []int{1, 4} {
				reads.Store(0)
				got, err := scanView(context.Background(), v, []Scan{{Expr: band}, {Expr: text}}, m, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(ref) {
					t.Fatalf("%s ∧ text (masked %v, %d workers): %d, want %d", band, m != nil, workers, got.Count(), ref.Count())
				}
				if n := reads.Load(); n != int64(reach.Count()) {
					t.Errorf("%s ∧ text (masked %v, %d workers): text read %d histories, %d reach it", band, m != nil, workers, n, reach.Count())
				}
			}
		}
	}
}
