package core

import (
	"reflect"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
)

func TestStudyCriteriaSelectsChronicallyIll(t *testing.T) {
	wb := testWorkbench(t, 2000)
	window := model.Period{
		Start: model.Date(2010, time.January, 1),
		End:   model.Date(2012, time.January, 1),
	}
	crit := StudyCriteria(window)
	bits, err := wb.Query(crit)
	if err != nil {
		t.Fatal(err)
	}
	frac := float64(bits.Count()) / 2000
	// Calibration target: 13k/168k ≈ 7.7%; allow generous slack at this
	// small population size, but catch gross miscalibration.
	if frac < 0.03 || frac > 0.15 {
		t.Errorf("study fraction = %.3f, want ≈ 0.077", frac)
	}

	// Every selected member satisfies the raw expression too
	// (index/scan agreement at the cohort level).
	ids, err := wb.Engine.IDsOf(bits)
	if err != nil {
		t.Fatal(err)
	}
	scan := query.Select(wb.Store.Collection(), crit)
	if !reflect.DeepEqual(ids, scan) {
		t.Errorf("indexed cohort differs from scan: %d vs %d", len(ids), len(scan))
	}

	// Members must actually be chronically ill with ≥6 GP contacts.
	chronic := ChronicDiagnosis()
	for _, id := range ids[:min(20, len(ids))] {
		h := wb.Store.Collection().Get(id)
		if !chronic.Eval(h) {
			t.Fatalf("selected %v without chronic diagnosis", id)
		}
		gp := h.Count(func(e *model.Entry) bool {
			return e.Type == model.TypeContact && e.Source == model.SourceGP && window.Contains(e.Start)
		})
		if gp < 6 {
			t.Fatalf("selected %v with %d GP contacts", id, gp)
		}
	}
}
