package stats

import (
	"fmt"
	"strings"

	"pastas/internal/model"
)

// Cohort characteristics as dimension breakdowns — the compare-cohorts
// half of the explore loop. Like IndicatorCounts, a CohortProfile is read
// off a Utilization tally: integer sums over disjoint patients, so
// per-shard partials merged in any grouping equal a sequential pass over
// the whole cohort bit for bit, and comparing two cohorts never ships a
// single history to the coordinator — each shard returns one fixed-size
// Utilization per cohort, and the profile is read off the merged one.

// profileAgeBands is the number of 15-year age bands (the last is open).
const profileAgeBands = 7

// profileSources and profileTypes size the dimension arrays: one slot per
// model constant including the zero "unknown" value, so any uint8 the
// wire could carry lands in a bucket or is dropped, never out of range.
const (
	profileSources = 6
	profileTypes   = 7
)

// CohortProfile is the dimension breakdown of one cohort over a window:
// demographics at window start, and in-window entry tallies by registry
// source and entry type.
type CohortProfile struct {
	Patients int

	// Demographics at window start.
	Females  int
	Males    int
	AgeYears int64                // sum of whole-year ages, for the mean
	AgeBands [profileAgeBands]int // 15-year bands: [0,15), [15,30), …, [90,∞)

	// In-window entry tallies.
	Entries  int
	BySource [profileSources]int // indexed by model.Source
	ByType   [profileTypes]int   // indexed by model.Type
}

// MeanAge returns the mean whole-year age at window start.
func (p CohortProfile) MeanAge() float64 {
	if p.Patients == 0 {
		return 0
	}
	return float64(p.AgeYears) / float64(p.Patients)
}

// AgeBandLabel names band i ("0-14", …, "90+").
func AgeBandLabel(i int) string {
	if i >= profileAgeBands-1 {
		return fmt.Sprintf("%d+", (profileAgeBands-1)*15)
	}
	return fmt.Sprintf("%d-%d", i*15, i*15+14)
}

// ComputeCohortProfile tallies a whole collection sequentially — the
// reference the sharded aggregation is parity-tested against.
func ComputeCohortProfile(col *model.Collection, window model.Period) CohortProfile {
	return Tally(col, window).Profile()
}

// Table renders the profile for terminal display.
func (p CohortProfile) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d patients (mean age %.1f; %d female / %d male), %d entries in window\n",
		p.Patients, p.MeanAge(), p.Females, p.Males, p.Entries)
	fmt.Fprintf(&b, "  age bands:\n")
	for i, n := range p.AgeBands {
		if n == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-6s %8d\n", AgeBandLabel(i), n)
	}
	fmt.Fprintf(&b, "  entries by source:\n")
	for _, s := range model.Sources() {
		if p.BySource[s] == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-12s %8d\n", s, p.BySource[s])
	}
	fmt.Fprintf(&b, "  entries by type:\n")
	for _, t := range model.Types() {
		if p.ByType[t] == 0 {
			continue
		}
		fmt.Fprintf(&b, "    %-12s %8d\n", t, p.ByType[t])
	}
	return b.String()
}
