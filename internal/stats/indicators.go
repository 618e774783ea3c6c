package stats

import (
	"fmt"
	"strings"

	"pastas/internal/model"
)

// Utilization indicators — the paper's introduction lists "statistical
// indicator analysis" as one of the established ways of extracting
// knowledge from the record databases; the workbench complements it, and
// analysts want both side by side. Indicators summarizes a cohort's
// utilization the way registry reports do: rates per 100 patient-years by
// source and type.

// Indicators is the utilization summary for a collection over a window.
type Indicators struct {
	Patients     int
	PatientYears float64

	// Per-100-patient-year rates.
	GPContacts         float64
	EmergencyShare     float64 // share of GP contacts flagged emergency (0..1)
	Admissions         float64
	AdmissionDays      float64
	OutpatientVisits   float64
	SpecialistContacts float64
	PhysioContacts     float64
	HomeCareDays       float64
	NursingDays        float64
	Prescriptions      float64

	// Demographics.
	MeanAge     float64
	FemaleShare float64
}

// IndicatorCounts is the integral form of the indicator aggregation, read
// off a Utilization tally: raw event tallies and duration sums in integral
// units (events counted, durations in Time ticks, ages in whole years).
// Integer sums are exactly associative, so partial tallies accumulated per
// shard and merged in any grouping finalize to bit-identical Indicators —
// the property that lets shard servers aggregate their slice of a cohort
// server-side and a coordinator combine the partials without shipping a
// single history.
type IndicatorCounts struct {
	Patients int

	GPContacts         int
	EmergencyGP        int
	Admissions         int
	OutpatientVisits   int
	SpecialistContacts int
	PhysioContacts     int
	Prescriptions      int

	// Duration tallies in model.Time ticks (minutes), window-clamped.
	AdmissionTicks int64
	HomeCareTicks  int64
	NursingTicks   int64

	// Demographics: sum of whole-year ages at window start, female count.
	AgeYears int64
	Females  int
}

// Finalize converts the tallies into per-100-patient-year rates. The only
// floating-point arithmetic in the whole aggregation happens here, once,
// over exact integer sums.
func (c IndicatorCounts) Finalize(window model.Period) Indicators {
	ind := Indicators{Patients: c.Patients}
	if c.Patients == 0 || window.Empty() {
		return ind
	}
	years := float64(window.Duration()) / float64(model.Year)
	ind.PatientYears = years * float64(c.Patients)
	per100 := func(n float64) float64 { return 100 * n / ind.PatientYears }
	days := func(ticks int64) float64 { return float64(ticks) / float64(model.Day) }
	ind.GPContacts = per100(float64(c.GPContacts))
	if c.GPContacts > 0 {
		ind.EmergencyShare = float64(c.EmergencyGP) / float64(c.GPContacts)
	}
	ind.Admissions = per100(float64(c.Admissions))
	ind.AdmissionDays = per100(days(c.AdmissionTicks))
	ind.OutpatientVisits = per100(float64(c.OutpatientVisits))
	ind.SpecialistContacts = per100(float64(c.SpecialistContacts))
	ind.PhysioContacts = per100(float64(c.PhysioContacts))
	ind.HomeCareDays = per100(days(c.HomeCareTicks))
	ind.NursingDays = per100(days(c.NursingTicks))
	ind.Prescriptions = per100(float64(c.Prescriptions))
	ind.MeanAge = float64(c.AgeYears) / float64(c.Patients)
	ind.FemaleShare = float64(c.Females) / float64(c.Patients)
	return ind
}

// ComputeIndicators derives the summary over the window.
func ComputeIndicators(col *model.Collection, window model.Period) Indicators {
	if col.Len() == 0 || window.Empty() {
		return Indicators{Patients: col.Len()}
	}
	return Tally(col, window).Indicators().Finalize(window)
}

// Table renders the indicator report (rates per 100 patient-years).
func (ind Indicators) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cohort: %d patients, %.0f patient-years (mean age %.1f, %.0f%% female)\n",
		ind.Patients, ind.PatientYears, ind.MeanAge, 100*ind.FemaleShare)
	fmt.Fprintf(&b, "  per 100 patient-years:\n")
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "GP contacts", ind.GPContacts)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "hospital admissions", ind.Admissions)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "hospital bed-days", ind.AdmissionDays)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "hospital outpatient visits", ind.OutpatientVisits)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "private specialist contacts", ind.SpecialistContacts)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "physiotherapy contacts", ind.PhysioContacts)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "home-care days", ind.HomeCareDays)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "nursing-home days", ind.NursingDays)
	fmt.Fprintf(&b, "  %-28s %8.1f\n", "prescriptions", ind.Prescriptions)
	return b.String()
}
