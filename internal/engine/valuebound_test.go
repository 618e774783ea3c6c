package engine

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// FuzzValueBoundSuperset: a value band's bound holds every patient
// query.EvalIndexed finds for the band, and engines answer the band (and a
// conjunction of two) exactly as EvalIndexed does. Values are drawn from
// NaN, ±0, ±Inf, subnormals, ±1e300 and ordinary numbers of both signs;
// bands include Lo > Hi, NaN bounds, bands across zero and narrow bands
// that get a bound. It holds on the built store, after an Append that adds
// a patient and brings an existing one a new bucket, and after Compact —
// each time on a local engine and on coordinators over 1, 4 and 16 local
// shards — and on a coordinator over two in-process shard servers, whose
// stores rebuild the value postings from a snapshot.
func FuzzValueBoundSuperset(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 42, 1234} {
		f.Add(seed)
	}
	edge := []float64{math.NaN(), 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 5e-324, -5e-324,
		2.2250738585072014e-308, 1e300, -1e300, 1, 7.5, 8, 60, 63.99, 64, -64, -2.25, 100}
	f.Fuzz(func(t *testing.T, seed int64) {
		r := rand.New(rand.NewSource(seed))
		draw := func() float64 {
			if r.Intn(3) == 0 {
				return r.NormFloat64() * 100
			}
			return edge[r.Intn(len(edge))]
		}
		// ±0 share no bucket: a band at zero must not be bounded by one.
		bands := []query.ValueBetween{{Lo: 0, Hi: 0}, {Lo: math.Copysign(0, -1), Hi: 5e-324}}
		for len(bands) < 8 {
			lo := draw()
			switch r.Intn(3) {
			case 0: // anything: reversed, NaN, across zero
				bands = append(bands, query.ValueBetween{Lo: lo, Hi: draw()})
			case 1: // narrow, on lo's side of zero
				bands = append(bands, query.ValueBetween{Lo: lo, Hi: lo + math.Abs(lo)*r.Float64()/4})
			default:
				bands = append(bands, query.ValueBetween{Lo: lo, Hi: lo})
			}
		}
		history := func(id model.PatientID, entries int) *model.History {
			h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1950, 1, 1)})
			for j := 0; j < entries; j++ {
				h.Add(model.Entry{ID: uint64(id)*100 + uint64(j), Kind: model.Point, Type: model.TypeMeasurement,
					Source: model.Source(1), Value: draw()})
			}
			return h
		}
		n := 1 + r.Intn(10)
		hs := make([]*model.History, n)
		for i := range hs {
			hs[i] = history(model.PatientID(i+1), r.Intn(4))
		}
		s := store.New(model.MustCollection(hs...))

		ctx := context.Background()
		answers := func(when string, engines map[string]*Engine) {
			t.Helper()
			for i, q := range bands {
				es := []query.Expr{query.Has{Pred: q}, query.And{query.Has{Pred: q}, query.Has{Pred: bands[(i+1)%len(bands)]}}}
				for _, e := range es {
					want, err := query.EvalIndexed(s, e)
					if err != nil {
						t.Fatal(err)
					}
					for name, eng := range engines {
						if got, err := eng.Execute(e); err != nil || !got.Equal(want) {
							t.Fatalf("%s, %s: %s answered %v (%v), EvalIndexed %v", when, name, e, got.Ones(), err, want.Ones())
						}
					}
				}
				b, ok, err := bound(query.Has{Pred: q})
				if err != nil || !ok {
					continue
				}
				want, _ := query.EvalIndexed(s, query.Has{Pred: q})
				got, err := viewTree(ctx, s.Pin()).eval(b, nil)
				if err != nil || want.Clone().AndNot(got).Count() != 0 {
					t.Fatalf("%s: the bound %s of %s selects %v (%v), but %v match", when, b, q, got.Ones(), err, want.Ones())
				}
			}
		}
		check := func(when string) {
			t.Helper()
			engines := map[string]*Engine{"local": New(s, Options{Workers: 2})}
			for _, k := range []int{1, 4, 16} {
				e, err := NewFromBackends(LocalShards(s.Pin(), k), Options{Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				engines[fmt.Sprintf("%d local shards", k)] = e
			}
			answers(when, engines)
		}
		check("built")

		// A new patient, and an existing one given a value in the bucket of
		// a bounded band's low end, which it may not have held before.
		update := store.HistoryUpdate{ID: model.PatientID(1 + r.Intn(n))}
		for _, q := range bands {
			if _, ok, _ := bound(query.Has{Pred: q}); ok {
				update.Entries = append(update.Entries, model.Entry{ID: 1 << 20, Kind: model.Point,
					Type: model.TypeMeasurement, Source: model.Source(1), Value: q.Lo})
				break
			}
		}
		if _, err := s.Append(store.AppendBatch{NewHistories: []*model.History{history(model.PatientID(n+1), 1+r.Intn(3))},
			Updates: []store.HistoryUpdate{update}}); err != nil {
			t.Fatal(err)
		}
		check("appended")
		s.Compact()
		check("compacted")

		col := model.MustCollection(s.Pin().Histories()...)
		answers("served", map[string]*Engine{
			"2 shard servers": startShardServers(t, col, 2, 2, RemoteOptions{Timeout: 30 * time.Second}).eng,
		})
	})
}

// TestValueBoundAllocationBudget: a bounded band allocates about what its
// bound's union and the scan of the bound's candidates allocate, and the
// union about the bytes of the set it returns plus one 8 KB scratch: each
// result container is built once from every bucket posting feeding it,
// with no container cloned or merged on the way.
func TestValueBoundAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budget: skipped under -short")
	}
	st := store.New(fbCollection(200000))
	band := valueScan(50, 57)
	b, ok, err := bound(band)
	if err != nil || !ok {
		t.Fatalf("no bound for %s (%v)", band, err)
	}
	buckets := b.(IndexScan).Buckets
	v := st.Pin()
	bytesPerRun := func(fn func()) uint64 {
		fn() // warm: the frame, the plan memo
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const runs = 20
		for i := 0; i < runs; i++ {
			fn()
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}

	candidates := v.WithValueBuckets(buckets[0], buckets[1])
	union := bytesPerRun(func() { v.WithValueBuckets(buckets[0], buckets[1]) })
	held := candidates.ContainerStats().WireBytes
	if budget := uint64(held) + 8<<10 + 2<<10; union > budget {
		t.Errorf("the union of buckets %v allocates %d B for a %d B set; budget %d B", buckets, union, held, budget)
	}
	scan := bytesPerRun(func() {
		if _, err := scanView(context.Background(), v, Scan{Expr: band}, candidates, 1); err != nil {
			t.Fatal(err)
		}
	})
	eng := New(st, Options{Workers: 1})
	exec := bytesPerRun(func() {
		if _, err := eng.Execute(band); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%s over %d patients: union %d B (its set %d B), scan %d B, Execute %d B", band, v.Len(), union, held, scan, exec)
	if budget := (union + scan) * 11 / 10; exec > budget {
		t.Errorf("Execute(%s) allocates %d B, over union %d B + scan %d B + 10 %%", band, exec, union, scan)
	}
}
