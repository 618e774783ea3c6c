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

// TestOnlyAnalysisBuildsTheFrame: counting, refining, listing, fetching
// histories, drawing a timeline, appending and compacting leave the
// revision's frame holder empty — the scan and ingest workloads never pay
// for it; the first analysis builds it, and the next append carries it.
func TestOnlyAnalysisBuildsTheFrame(t *testing.T) {
	cfg := synth.DefaultConfig(400)
	col, _, err := integrate.Build(synth.Generate(cfg), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(col)
	wb := &core.Workbench{Store: st, Engine: engine.New(st, engine.Options{Shards: 4, Workers: 2, CacheSize: 16}), Window: cfg.Window()}
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
}
