// Package pastas is a Go reproduction of the ICDE 2016 system "Visual
// exploration and cohort identification of acute patient histories
// aggregated from heterogeneous sources" (Sætre, Nytrø, Nordbø, Steinsbekk;
// NTNU) — the PAsTAs workbench.
//
// The package re-exports the library's public surface: loading registry
// bundles into an indexed workbench, cohort identification with
// regex-over-hierarchy queries, alignment, the interactive session (extract
// / filter / align / sort / zoom / details-on-demand, audited against the
// 0.1 s budget), and the SVG renderers for the paper's timeline and
// NSEPter graph views. See README.md for a tour and DESIGN.md for the
// architecture and experiment index.
package pastas

import (
	"io"
	"time"

	"pastas/internal/abstraction"
	"pastas/internal/align"
	"pastas/internal/cohort"
	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/perception"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/sources"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/synth"
	"pastas/internal/temporal"
	"pastas/internal/webapp"
)

// --- data model ---------------------------------------------------------

type (
	// Time is minutes since 2000-01-01T00:00Z.
	Time = model.Time
	// Period is a half-open time range.
	Period = model.Period
	// PatientID is the pseudonymized linkage key.
	PatientID = model.PatientID
	// Patient is the demographic record.
	Patient = model.Patient
	// Entry is one point event or interval in a history.
	Entry = model.Entry
	// History is one patient's trajectory.
	History = model.History
	// Collection is an ordered set of histories.
	Collection = model.Collection
	// Code is a terminology reference (ICPC2 / ICD10 / ATC).
	Code = model.Code
)

// Re-exported model constants (entry kinds, sources, types).
const (
	Point    = model.Point
	Interval = model.Interval

	SourceGP         = model.SourceGP
	SourceHospital   = model.SourceHospital
	SourceMunicipal  = model.SourceMunicipal
	SourceSpecialist = model.SourceSpecialist
	SourcePhysio     = model.SourcePhysio

	TypeContact     = model.TypeContact
	TypeDiagnosis   = model.TypeDiagnosis
	TypeMeasurement = model.TypeMeasurement
	TypeMedication  = model.TypeMedication
	TypeStay        = model.TypeStay
	TypeService     = model.TypeService

	Day   = model.Day
	Month = model.Month
	Year  = model.Year
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
	// Store is the indexed collection.
	Store = store.Store
	// Engine is the sharded query planner/executor.
	Engine = engine.Engine
	// EngineOptions tunes shard count, worker pool and plan cache.
	EngineOptions = engine.Options
)

// NewEngine builds a standalone planner/executor over a store (workbenches
// already carry one as Workbench.Engine).
func NewEngine(st *Store, opts EngineOptions) *Engine { return engine.New(st, opts) }

// DefaultEngineOptions sizes an engine to the machine.
func DefaultEngineOptions() EngineOptions { return engine.DefaultOptions() }

// Synthesize generates, integrates and indexes a synthetic population.
func Synthesize(cfg SynthConfig) (*Workbench, error) { return core.Synthesize(cfg) }

// DefaultSynthConfig returns the calibrated generator config for n patients.
func DefaultSynthConfig(n int) SynthConfig { return synth.DefaultConfig(n) }

// FromBundle integrates a registry bundle into a workbench.
func FromBundle(b *Bundle, window Period) (*Workbench, error) {
	return core.FromBundle(b, integrate.DefaultOptions(), window)
}

// NewSession opens an interactive session over a workbench. On a
// workbench connected to remote shard servers (ConnectShards) the session
// starts with an empty view and the first Extract pages the matching
// histories in from their shards.
func NewSession(wb *Workbench) (*Session, error) { return core.NewSession(wb) }

// --- snapshot persistence -------------------------------------------------

type (
	// SnapshotOptions tunes Workbench.Save (shard count of the written
	// snapshot).
	SnapshotOptions = core.SnapshotOptions
	// SnapshotInfo is the provenance of a saved or reopened snapshot:
	// format version, shard layout, sizes and checksums.
	SnapshotInfo = store.SnapshotInfo
)

// Open reopens a workbench from a saved snapshot, decoding its shards in
// parallel; a file of any other version is refused with an error naming
// the version.
func Open(r io.Reader, window Period) (*Workbench, error) { return core.Open(r, window) }

// InspectSnapshot reads a snapshot's provenance from its header alone,
// without materializing the collection.
func InspectSnapshot(r io.Reader) (*SnapshotInfo, error) { return store.Inspect(r) }

// --- distributed execution -------------------------------------------------

type (
	// ShardBackend evaluates plan fragments over one contiguous shard of
	// the population, local or remote.
	ShardBackend = engine.ShardBackend
	// ShardMeta describes one shard: id, global ordinal offset, sizes and
	// the transport serving it.
	ShardMeta = engine.ShardMeta
	// RemoteOptions tunes the shard wire protocol's client side (per-call
	// timeout, redial-retry budget).
	RemoteOptions = engine.RemoteOptions
	// ShardServer serves shards of a sharded snapshot over the wire
	// protocol.
	ShardServer = engine.ShardServer
	// OpenedShard is one lazily loaded shard of a sharded snapshot.
	OpenedShard = store.OpenedShard
	// ReplicaBackend fronts N same-shard backends with health-checked
	// failover and load-balanced reads.
	ReplicaBackend = engine.ReplicaBackend
	// ReplicaOptions tunes a replica set's health checking and failover.
	ReplicaOptions = engine.ReplicaOptions
	// Policy selects strict vs degraded failure semantics for a
	// coordinating engine.
	Policy = engine.Policy
	// QueryStatus reports which shards contributed to a degraded answer.
	QueryStatus = engine.QueryStatus
)

// Failure-semantics policies for coordinating engines: strict fails any
// operation that cannot reach every shard (the default); degraded
// answers over the reachable shards and names the missing ones.
const (
	PolicyStrict   = engine.PolicyStrict
	PolicyDegraded = engine.PolicyDegraded
)

// NewReplicaBackend fronts several backends serving the same shard with
// one that health-checks them, balances reads and fails over mid-query.
func NewReplicaBackend(replicas []ShardBackend, opts ReplicaOptions) (*ReplicaBackend, error) {
	return engine.NewReplicaBackend(replicas, opts)
}

// OpenShards pages the given shards (no ids = all) of a snapshot into
// memory — histories and inverted indexes — reading only the header and
// those shards' segments.
func OpenShards(path string, ids ...int) ([]*OpenedShard, *SnapshotInfo, error) {
	return store.OpenShards(path, ids...)
}

// NewShardServer opens the given shards of a sharded snapshot and builds
// a wire-protocol server over them (serve it with ShardServer.Serve).
func NewShardServer(snapshotPath string, ids []int, opts EngineOptions) (*ShardServer, error) {
	return engine.NewShardServer(snapshotPath, ids, opts)
}

// DialShards connects to a shard server and returns one backend per
// shard it serves, plus the total population of the snapshot it loads
// from (for topology-completeness checks).
func DialShards(addr string, opts RemoteOptions) ([]ShardBackend, int, error) {
	return engine.DialShards(addr, opts)
}

// NewEngineFromBackends builds a coordinating engine over an explicit
// backend set; the backends must tile the population contiguously.
func NewEngineFromBackends(backends []ShardBackend, opts EngineOptions) (*Engine, error) {
	return engine.NewFromBackends(backends, opts)
}

// ConnectShards builds a workbench over remote shard servers. Cohort
// queries, history fetches (Workbench.History/Histories, sessions,
// timeline renders) and indicator aggregation (Workbench.Indicators)
// all execute across the servers with bit-identical results to a local
// workbench over the same snapshot. An address element may be a replica
// group ("host-a:7070|host-b:7070") naming servers that serve the same
// shards; each shard then fails over between its replicas.
func ConnectShards(addrs []string, window Period) (*Workbench, error) {
	return core.Connect(addrs, engine.RemoteOptions{}, engine.DefaultOptions(), window)
}

// --- querying and cohorts -------------------------------------------------

type (
	// Query is a history-level cohort expression.
	Query = query.Expr
	// QuerySpec is the serializable Query-Builder tree (Fig. 4).
	QuerySpec = query.Spec
	// QueryBuilder accumulates criteria fluently.
	QueryBuilder = query.Builder
	// Cohort is a named patient set.
	Cohort = cohort.Cohort
	// Anchor selects the alignment point for aligned views.
	Anchor = align.Anchor
)

// NewQueryBuilder starts an empty conjunctive query.
func NewQueryBuilder() *QueryBuilder { return query.NewBuilder() }

// ParseQuerySpec decodes a JSON query tree.
func ParseQuerySpec(data []byte) (*QuerySpec, error) { return query.ParseSpec(data) }

// NewCohort evaluates a query into a cohort on the workbench's engine.
func NewCohort(wb *Workbench, name string, q Query) (*Cohort, error) {
	return cohort.FromEngine(wb.Engine, name, q)
}

// StudyCriteria returns the paper's predefined-characteristics selection
// (the 168k→13k query) for an observation window.
func StudyCriteria(window Period) Query { return cohort.StudyCriteria(window) }

// --- cohort workspace -------------------------------------------------------

type (
	// CohortInfo describes one materialized cohort in the workspace:
	// name, saved expression, generation and cardinality.
	CohortInfo = engine.CohortInfo
	// Refinement reports how a refined cohort was computed: exact /
	// narrow / widen / scratch, the seeding cohort, and whether the seed
	// mask was pushed down to remote shards.
	Refinement = engine.Refinement
	// CohortProfile is the mergeable dimension breakdown (sex, age
	// bands, entries by source and type) cohort comparison renders.
	CohortProfile = stats.CohortProfile
	// CohortComparison is two cohorts side by side: profiles plus
	// membership overlap.
	CohortComparison = core.CohortComparison
)

// SaveNamedCohort materializes a query and saves it in the workbench's
// cohort workspace at the current store generation (an append
// invalidates it). Later refinements of the query execute only their
// delta, masked by the saved bitset.
func SaveNamedCohort(wb *Workbench, name string, q Query) (CohortInfo, error) {
	return wb.SaveCohort(name, q)
}

// RefineCohort evaluates a query seeded by the workspace's materialized
// cohorts and saves the result under the given name.
func RefineCohort(wb *Workbench, name string, q Query) (CohortInfo, Refinement, error) {
	return wb.RefineCohort(name, q)
}

// CompareCohorts profiles two saved cohorts and reports their overlap.
func CompareCohorts(wb *Workbench, a, b string) (*CohortComparison, error) {
	return wb.CompareCohorts(a, b)
}

// --- cohort analytics -------------------------------------------------------
//
// Analytics are keyed by saved cohort name and execute through the
// engine's generic Analyze map-reduce: per-history map steps run on the
// shard holding each history (only the cohort mask and fixed-size
// integer partials cross the wire) and the coordinator finalizes the
// ratios once from the exactly-merged integers, so a connected workbench
// answers byte-for-byte what a local one would. Direct-collection forms
// (mining.CoOccurrence / mining.Sequential over extracted sequences,
// Session.DiagnosisSequences) remain available but are local-only
// conveniences: they require every history in coordinator memory and do
// not distribute.

type (
	// MineParams selects what the distributed rule miner counts per
	// history (co-occurrence vs sequential, coding system, chapter
	// granularity). Thresholds live in MiningOptions and apply once at
	// finalization, never in the map step.
	MineParams = engine.MineParams
	// MiningOptions bounds rule finalization (support/count floors).
	MiningOptions = mining.Options
	// MiningRule is one mined association rule with its exact counts.
	MiningRule = mining.Rule
	// EpisodeTally is the merged per-cohort episode summary.
	EpisodeTally = abstraction.EpisodeTally
	// Scenario is a temporal pattern over episode steps constrained by
	// Allen relations.
	Scenario = temporal.Scenario
	// StepRel constrains two scenario steps with an Allen relation set.
	StepRel = temporal.StepRel
	// ScenarioTally counts how many cohort histories bind and match a
	// scenario.
	ScenarioTally = temporal.ScenarioTally
	// CohortClusters groups a cohort's members by diagnosis-sequence
	// similarity (coordinator-side; clustering is cross-history).
	CohortClusters = core.CohortClusters
)

// ParseAllenRel parses comma-separated Allen relation names ("before" or
// "b,m") into a relation set for Scenario constraints.
func ParseAllenRel(s string) (temporal.Rel, error) { return temporal.ParseRel(s) }

// MineCohortRules mines association rules over a saved cohort,
// distributing the support counting to the shards holding the histories.
func MineCohortRules(wb *Workbench, cohort string, p MineParams, opt MiningOptions) ([]MiningRule, CohortInfo, QueryStatus, error) {
	return wb.MineRules(cohort, p, opt)
}

// CohortEpisodes tallies care episodes (contacts closer than gap fused)
// across a saved cohort without shipping any history to the coordinator.
func CohortEpisodes(wb *Workbench, cohort string, gap Time) (*EpisodeTally, CohortInfo, QueryStatus, error) {
	return wb.Episodes(cohort, gap)
}

// MatchCohortScenario matches an Allen-relation scenario against every
// history in a saved cohort, server-side per shard.
func MatchCohortScenario(wb *Workbench, cohort string, gap Time, sc Scenario) (*ScenarioTally, CohortInfo, QueryStatus, error) {
	return wb.MatchScenario(cohort, gap, sc)
}

// ClusterCohort clusters a saved cohort's members by diagnosis-sequence
// alignment distance (pages the histories in; quadratic in cohort size).
func ClusterCohort(wb *Workbench, cohort string, k int) (*CohortClusters, CohortInfo, error) {
	return wb.ClusterCohort(cohort, k)
}

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

type (
	// TimelineOptions configures the Fig. 1 view.
	TimelineOptions = render.TimelineOptions
	// GraphOptions configures the Fig. 2 view.
	GraphOptions = render.GraphOptions
)

// RenderTimeline draws a collection as the workbench timeline SVG.
func RenderTimeline(col *Collection, opt TimelineOptions) string {
	return render.Timeline(col, opt)
}

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
	// Indicators is the utilization summary registry reports compute
	// (rates per 100 patient-years).
	Indicators = stats.Indicators
	// IndicatorCounts is the mergeable integral tally behind Indicators;
	// shard backends return it so partial aggregates combine exactly.
	IndicatorCounts = stats.IndicatorCounts
)

// ComputeIndicators derives the utilization summary for a collection over
// a window. For cohorts on a workbench — local or connected to shard
// servers — prefer Workbench.Indicators, which aggregates where the
// histories live.
func ComputeIndicators(col *Collection, window Period) Indicators {
	return stats.ComputeIndicators(col, window)
}

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

// MedicationBands derives Fig. 1's medication interval concepts.
func MedicationBands(h *History) []abstraction.Band {
	return abstraction.MedicationBands(h, abstraction.ATCTherapeutic, 14*model.Day)
}
