package engine

// Cohort-characteristics aggregation over the backend set: the
// compare-cohorts half of the workspace, and the AnalyzeProfile kind
// under its typed name. Every backend tallies its slice of the cohort
// server-side into a fixed-size integral partial, the partials merge
// exactly, and the result is bit-identical to a sequential pass at any
// shard count over any transport mix.

import (
	"context"

	"pastas/internal/model"
	"pastas/internal/stats"
	"pastas/internal/store"
)

// Profile aggregates the dimension breakdown for the cohort a
// global-ordinal bitset selects, over the window. Under PolicyDegraded
// the aggregate may omit unreachable shards; use ProfileStatus to learn
// which.
func (e *Engine) Profile(b *store.Bitset, window model.Period) (stats.CohortProfile, error) {
	prof, _, err := e.ProfileStatus(context.Background(), b, window)
	return prof, err
}

// ProfileStatus is Profile under a caller-supplied context, plus the
// completeness report: under PolicyDegraded the QueryStatus names the
// shards whose tallies are absent from the aggregate.
func (e *Engine) ProfileStatus(ctx context.Context, b *store.Bitset, window model.Period) (stats.CohortProfile, QueryStatus, error) {
	prof, status, err := analyzeWindow[stats.CohortProfile](ctx, e, b, AnalyzeProfile, window)
	if err != nil {
		return stats.CohortProfile{}, QueryStatus{}, err
	}
	return *prof, status, nil
}
