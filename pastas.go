// Package pastas is a Go reproduction of the ICDE 2016 system "Visual
// exploration and cohort identification of acute patient histories
// aggregated from heterogeneous sources" (Sætre, Nytrø, Nordbø, Steinsbekk;
// NTNU) — the PAsTAs workbench.
//
// The package re-exports what the walkthroughs under examples/ need:
// loading registry bundles into an indexed workbench, cohort identification
// with regex-over-hierarchy queries, alignment, the interactive session
// (extract / filter / align / sort / zoom / details-on-demand, audited
// against the 0.1 s budget), the timeline renderer and the web service. A
// cohort is a bitset off Workbench.Query (or a named one off
// Workbench.SaveCohort); Workbench.Histories materializes it. See README.md
// for a tour and the architecture; the distributed, workspace and analytics
// tiers are used through internal/core and internal/engine directly.
package pastas

import (
	"time"

	"pastas/internal/align"
	"pastas/internal/core"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/perception"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/sources"
	"pastas/internal/stats"
	"pastas/internal/synth"
	"pastas/internal/webapp"
)

// --- data model ---------------------------------------------------------

type (
	// Time is minutes since 2000-01-01T00:00Z.
	Time = model.Time
	// Period is a half-open time range.
	Period = model.Period
	// History is one patient's trajectory.
	History = model.History
	// Collection is an ordered set of histories.
	Collection = model.Collection
)

// Re-exported model constants.
const (
	TypeContact = model.TypeContact
	Day         = model.Day
)

// Date builds a day-resolution Time from a calendar date (month 1-12).
func Date(year, month, day int) Time {
	return model.Date(year, time.Month(month), day)
}

// --- workbench ----------------------------------------------------------

type (
	// Workbench is a loaded, indexed data set.
	Workbench = core.Workbench
	// Session is one analyst's interactive state.
	Session = core.Session
	// Bundle is one extract from every registry.
	Bundle = sources.Bundle
	// SynthConfig parameterizes the synthetic registry generator.
	SynthConfig = synth.Config
)

// Synthesize generates, integrates and indexes a synthetic population.
func Synthesize(cfg SynthConfig) (*Workbench, error) { return core.Synthesize(cfg) }

// DefaultSynthConfig returns the calibrated generator config for n patients.
func DefaultSynthConfig(n int) SynthConfig { return synth.DefaultConfig(n) }

// FromBundle integrates a registry bundle into a workbench.
func FromBundle(b *Bundle, window Period) (*Workbench, error) {
	return core.FromBundle(b, integrate.DefaultOptions(), window)
}

// NewSession opens an interactive session over a workbench.
func NewSession(wb *Workbench) (*Session, error) { return core.NewSession(wb) }

// --- querying -------------------------------------------------------------

type (
	// Query is a history-level cohort expression. The language is closed:
	// queries come from a QuerySpec, a QueryBuilder or StudyCriteria, and
	// no type outside this module can implement it.
	Query = query.Expr
	// QuerySpec is the serializable Query-Builder tree (Fig. 4).
	QuerySpec = query.Spec
	// QueryBuilder accumulates criteria fluently.
	QueryBuilder = query.Builder
	// Anchor selects the alignment point for aligned views.
	Anchor = align.Anchor
)

// NewQueryBuilder starts an empty conjunctive query.
func NewQueryBuilder() *QueryBuilder { return query.NewBuilder() }

// ParseQuerySpec decodes a JSON query tree.
func ParseQuerySpec(data []byte) (*QuerySpec, error) { return query.ParseSpec(data) }

// StudyCriteria returns the paper's predefined-characteristics selection
// (the 168k→13k query) for an observation window.
func StudyCriteria(window Period) Query { return core.StudyCriteria(window) }

// AlignFirst anchors histories on the first entry whose diagnosis code
// matches the anchored regular expression pattern.
func AlignFirst(pattern string) (Anchor, error) {
	c, err := query.NewCode("", pattern)
	if err != nil {
		return Anchor{}, err
	}
	return align.First(query.AllOf{query.TypeIs(model.TypeDiagnosis), c}), nil
}

// --- rendering ------------------------------------------------------------

// TimelineOptions configures the Fig. 1 view.
type TimelineOptions = render.TimelineOptions

// Details returns details-on-demand lines for a history around a time.
func Details(h *History, at Time, radius Time) []string {
	return render.Details(h, at, radius)
}

// --- services ---------------------------------------------------------------

type (
	// WebConfig tunes the personal-timeline web service.
	WebConfig = webapp.Config
	// WebServer serves personal timelines and the cohort API.
	WebServer = webapp.Server
	// SurveyParams configures the recognition-survey model.
	SurveyParams = stats.SurveyParams
	// SurveyResult aggregates survey outcomes.
	SurveyResult = stats.SurveyResult
)

// NewWebServer builds the HTTP service over a workbench.
func NewWebServer(wb *Workbench, cfg WebConfig) *WebServer { return webapp.NewServer(wb, cfg) }

// DefaultWebConfig mirrors the paper's demo deployment (sample password).
func DefaultWebConfig() WebConfig { return webapp.DefaultConfig() }

// SimulateSurvey runs the recognition-survey model over a collection.
func SimulateSurvey(col *Collection, p SurveyParams) SurveyResult {
	return stats.SimulateSurvey(col, p)
}

// DefaultSurveyParams returns the calibrated survey model.
func DefaultSurveyParams() SurveyParams { return stats.DefaultSurveyParams() }

// ShneidermanLimit is the 0.1 s interactive response budget.
const ShneidermanLimit = perception.ShneidermanLimit
