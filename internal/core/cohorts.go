package core

// The cohort workspace at the workbench level: save a cohort under a
// name, refine it incrementally (the engine recognizes seed ∧ delta /
// seed ∨ delta and executes only the delta, masked by the saved
// bitset), profile it, and compare two cohorts side by side — the
// iterative explore loop from the paper, O(delta) instead of
// O(population) per step.

import (
	"context"
	"fmt"

	"pastas/internal/engine"
	"pastas/internal/query"
	"pastas/internal/stats"
	"pastas/internal/store"
)

// SaveCohort materializes an expression from scratch and saves it as a
// named cohort at the current store generation. Materialization is
// strict whatever the engine's policy: a degraded answer errors rather
// than saving a silently incomplete cohort.
func (wb *Workbench) SaveCohort(name string, e query.Expr) (engine.CohortInfo, error) {
	info, err := wb.Engine.Materialize(context.Background(), name, e)
	if err != nil {
		return engine.CohortInfo{}, fmt.Errorf("core: %w", err)
	}
	return info, nil
}

// RefineCohort evaluates an expression seeded by the materialized
// cohorts and saves the result under the given name, returning how the
// answer was produced (exact / narrow / widen / scratch, and whether the
// seed mask was pushed down to remote shards).
func (wb *Workbench) RefineCohort(name string, e query.Expr) (engine.CohortInfo, engine.Refinement, error) {
	info, ref, err := wb.Engine.Refine(context.Background(), name, e)
	if err != nil {
		return engine.CohortInfo{}, engine.Refinement{}, fmt.Errorf("core: %w", err)
	}
	return info, ref, nil
}

// Cohorts lists the materialized cohorts valid at the current store
// generation, sorted by name.
func (wb *Workbench) Cohorts() []engine.CohortInfo { return wb.Engine.Cohorts() }

// DropCohort removes a materialized cohort; reports whether it existed.
func (wb *Workbench) DropCohort(name string) bool { return wb.Engine.DropCohort(name) }

// CohortProfile aggregates the dimension breakdown (sex, age bands,
// entries by source and type) for a saved cohort over the workbench
// window. Each shard tallies its slice server-side and the integral
// partials merge exactly, so a connected workbench reports bit-identical
// profiles to a local one.
func (wb *Workbench) CohortProfile(name string) (stats.CohortProfile, engine.CohortInfo, error) {
	bits, info, err := wb.Engine.CohortBits(name)
	if err != nil {
		return stats.CohortProfile{}, engine.CohortInfo{}, fmt.Errorf("core: %w", err)
	}
	prof, err := wb.Engine.Profile(bits, wb.Window)
	if err != nil {
		return stats.CohortProfile{}, engine.CohortInfo{}, fmt.Errorf("core: %w", err)
	}
	return prof, info, nil
}

// CohortComparison is two cohorts side by side: their profiles plus the
// set relationship of their memberships.
type CohortComparison struct {
	A        engine.CohortInfo   `json:"a"`
	B        engine.CohortInfo   `json:"b"`
	ProfileA stats.CohortProfile `json:"profile_a"`
	ProfileB stats.CohortProfile `json:"profile_b"`
	// Both / OnlyA / OnlyB partition the union of the two memberships.
	Both  int `json:"both"`
	OnlyA int `json:"only_a"`
	OnlyB int `json:"only_b"`
}

// CompareCohorts profiles two saved cohorts and reports their overlap.
func (wb *Workbench) CompareCohorts(a, b string) (*CohortComparison, error) {
	ba, ia, err := wb.Engine.CohortBits(a)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	bb, ib, err := wb.Engine.CohortBits(b)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pa, err := wb.Engine.Profile(ba, wb.Window)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	pb, err := wb.Engine.Profile(bb, wb.Window)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	both := ba.Clone()
	both.And(bb)
	n := both.Count()
	return &CohortComparison{
		A: ia, B: ib,
		ProfileA: pa, ProfileB: pb,
		Both:  n,
		OnlyA: ia.Count - n,
		OnlyB: ib.Count - n,
	}, nil
}

// cohortRecords converts the engine's export into the store's persisted
// form, encoding each expression with the engine's wire codec (the store
// treats it as an opaque blob).
func cohortRecords(exports []engine.CohortExport) ([]store.CohortRecord, error) {
	if len(exports) == 0 {
		return nil, nil
	}
	records := make([]store.CohortRecord, 0, len(exports))
	for _, x := range exports {
		blob, err := engine.EncodeExpr(x.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: save: cohort %q: %w", x.Name, err)
		}
		records = append(records, store.CohortRecord{Name: x.Name, Expr: blob, Bits: x.Bits})
	}
	return records, nil
}
