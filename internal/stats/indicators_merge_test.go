package stats

// The property the distributed indicator aggregation rests on: partial
// tallies accumulated over any partition of a cohort, merged in any
// grouping, finalize to bit-identical Indicators. The tallies are
// integral (counts, Time ticks, whole years), so the only floating-point
// arithmetic happens once in Finalize over exact sums — no partition can
// perturb a single bit.

import (
	"math/rand"
	"testing"
	"time"

	"pastas/internal/model"
)

func mergeFixture(n int, seed int64) []*model.History {
	r := rand.New(rand.NewSource(seed))
	hs := make([]*model.History, 0, n)
	for i := 0; i < n; i++ {
		h := model.NewHistory(model.Patient{
			ID:    model.PatientID(i + 1),
			Birth: model.Date(1920+r.Intn(80), time.Month(1+r.Intn(12)), 1+r.Intn(28)),
			Sex:   model.Sex(r.Intn(3)),
		})
		for j := 0; j < r.Intn(12); j++ {
			start := model.Date(2010, 1, 1) + model.Time(r.Intn(2*365*24*60)) // minute-resolution
			e := model.Entry{
				ID:     uint64(j + 1),
				Start:  start,
				Source: model.Source(r.Intn(6)),
				Type:   model.Type(r.Intn(7)),
			}
			if r.Intn(2) == 0 {
				e.Kind = model.Interval
				// Odd minute counts, so per-patient day fractions would
				// not be exactly representable — the case that breaks
				// divide-then-sum aggregation.
				e.End = start + model.Time(1+r.Intn(100000))
			}
			if r.Intn(4) == 0 {
				e.Text = "legevakt"
			}
			h.Add(e)
		}
		h.Sort()
		hs = append(hs, h)
	}
	return hs
}

func TestIndicatorCountsMergeParity(t *testing.T) {
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	hs := mergeFixture(157, 42)
	want := ComputeIndicators(model.MustCollection(hs...), window)

	for _, parts := range []int{1, 2, 4, 16, 157} {
		chunk := (len(hs) + parts - 1) / parts
		var merged Utilization
		for lo := 0; lo < len(hs); lo += chunk {
			merged.Merge(Tally(model.MustCollection(hs[lo:min(lo+chunk, len(hs))]...), window))
		}
		if got := merged.Indicators().Finalize(window); got != want {
			t.Fatalf("parts=%d: merged indicators diverge:\ngot  %+v\nwant %+v", parts, got, want)
		}
	}
}

func TestIndicatorCountsEmptyAndZeroWindow(t *testing.T) {
	var c IndicatorCounts
	if got := c.Finalize(model.Period{}); got.Patients != 0 || got.PatientYears != 0 {
		t.Errorf("empty finalize = %+v", got)
	}
	c = Tally(model.MustCollection(mergeFixture(3, 7)...), model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2011, 1, 1)}).Indicators()
	if got := c.Finalize(model.Period{}); got.PatientYears != 0 {
		t.Errorf("zero-window finalize has patient-years: %+v", got)
	}
}
