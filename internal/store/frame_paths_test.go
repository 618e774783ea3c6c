package store_test

import (
	"testing"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// TestOnlyAnalysisBuildsTheFrame: index-answered counts and refines,
// listing, fetching histories, drawing a timeline, appending and
// compacting leave the revision's frame holder empty; the first analysis
// builds it, and the next append carries it. A criterion only a scan
// answers reads the frame, so the first such scan builds it too.
func TestOnlyAnalysisBuildsTheFrame(t *testing.T) {
	cfg := synth.DefaultConfig(400)
	col, _, err := integrate.Build(synth.Generate(cfg), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(col)
	wb := &core.Workbench{Store: st, Engine: engine.New(st, engine.Options{Workers: 2, CacheSize: 16}), Window: cfg.Window()}
	defer wb.Close()

	diabetes := query.Has{Pred: query.MustCode("ICPC2", "T90")}
	scan := func(round string) *store.Bitset {
		t.Helper()
		bits, err := wb.Query(diabetes)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wb.SaveCohort("base-"+round, diabetes); err != nil {
			t.Fatal(err)
		}
		if _, _, err := wb.RefineCohort("narrow-"+round, query.And{diabetes, query.Has{Pred: query.TypeIs(model.TypeStay)}}); err != nil {
			t.Fatal(err)
		}
		if _, err := wb.Engine.IDsOf(bits); err != nil {
			t.Fatal(err)
		}
		cohort, err := wb.Histories(bits)
		if err != nil {
			t.Fatal(err)
		}
		if len(render.Timeline(cohort, render.TimelineOptions{})) == 0 {
			t.Fatal("empty timeline")
		}
		if _, err := wb.History(st.PatientAt(0)); err != nil {
			t.Fatal(err)
		}
		if store.FrameBuilt(st) {
			t.Fatalf("%s: a path that does not analyse built the frame", round)
		}
		return bits
	}
	scan("scan-only")
	for round := 1; round <= 3; round++ {
		first := uint64(400 + (round-1)*5 + 1)
		if err := wb.Append(synth.GenerateAppend(cfg, first, first+4, round)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := wb.Compact(); err != nil {
		t.Fatal(err)
	}
	bits := scan("ingest-only")

	if _, err := wb.Indicators(bits); err != nil {
		t.Fatal(err)
	}
	if !store.FrameBuilt(st) {
		t.Fatal("an analysis left the frame holder empty")
	}
	if err := wb.Append(synth.GenerateAppend(cfg, 416, 420, 4)); err != nil {
		t.Fatal(err)
	}
	if !store.FrameBuilt(st) {
		t.Error("the append after an analysis did not carry the frame forward")
	}

	fresh := store.New(col)
	eng := engine.New(fresh, engine.Options{Workers: 2, CacheSize: 16})
	defer eng.Close()
	if _, err := eng.Execute(query.AgeBetween{Lo: 40, Hi: 60, At: cfg.Window().Start}); err != nil {
		t.Fatal(err)
	}
	if !store.FrameBuilt(fresh) {
		t.Error("a scan left the frame holder empty")
	}
}

// TestUnsortedHistoriesDoNotRace: a store built by hand from histories
// whose entries were added newest first. A sequence scan used to sort each
// shared history in place while a concurrent frame build read it through
// SortedEntries — a data race -race reports. New now sorts every history
// it adopts, once, so every reader finds them sorted.
func TestUnsortedHistoriesDoNotRace(t *testing.T) {
	seq := query.Sequence{Steps: []query.Step{{Pred: query.TypeIs(model.TypeDiagnosis)},
		{Pred: query.TypeIs(model.TypeContact), MinGap: query.Days(5)}}}
	for round := 0; round < 5; round++ {
		hs, want := make([]*model.History, 200), 0
		for i := range hs {
			hs[i] = model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, 1, 1)})
			for j := 6; j >= 1; j-- {
				at := model.Date(2011, 1, 1).AddDays(3*j + i%7)
				hs[i].Add(model.Entry{ID: uint64(10*i + j), Kind: model.Point, Start: at, End: at,
					Type: []model.Type{model.TypeContact, model.TypeDiagnosis}[(i+j)%2]})
			}
			if seq.Eval(hs[i].Clone()) {
				want++
			}
		}
		st := store.New(model.MustCollection(hs...))
		eng := engine.New(st, engine.Options{Workers: 2})
		done := make(chan struct{})
		go func() { st.Pin().Frame(); close(done) }()
		bits, err := eng.Execute(seq)
		<-done
		eng.Close()
		if err != nil {
			t.Fatal(err)
		}
		if bits.Count() != want {
			t.Fatalf("round %d: sequence matched %d histories, want %d", round, bits.Count(), want)
		}
		if !hs[round].Sorted() {
			t.Fatal("New left an adopted history unsorted")
		}
	}
}
