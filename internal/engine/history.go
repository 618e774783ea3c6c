package engine

// History-level operations over the backend set: materializing the
// histories a cohort bitset selects, resolving one patient wherever its
// shard lives, and aggregating utilization indicators server-side. These
// are the operations that make a coordinator over remote shards a
// complete workbench — timelines, details-on-demand and indicator panels
// work without a local store — while keeping the wire cost proportional
// to what the analyst actually looks at: fetches ship only the selected
// histories, indicator and profile aggregation ship a fixed-size tally per
// shard.
//
// Failure semantics: Histories and HistoryByID are strict under either
// policy — a timeline with silently absent patients or a "not found"
// manufactured by a dead shard would be actively misleading. Indicators
// may degrade (IndicatorsStatus): an aggregate over the reachable shards
// is still a meaningful aggregate as long as the caller is told which
// shards are absent from it.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"pastas/internal/model"
	"pastas/internal/stats"
	"pastas/internal/store"
)

// ErrNoPatient is returned (wrapped) by HistoryByID when no shard holds
// the requested patient.
var ErrNoPatient = errors.New("no such patient")

// Histories materializes the histories selected by a global-ordinal
// bitset, in ordinal (collection) order. A store-backed engine reads them
// off the collection; a coordinator fetches each backend's slice of the
// selection concurrently, one call per server — shards without a selected
// patient are never listed — and concatenates in fixed shard order. Any backend failure
// fails the whole call under either policy: a partial history set is
// never returned.
func (e *Engine) Histories(b *store.Bitset) ([]*model.History, error) {
	t, err := e.pinCohort(b)
	if err != nil {
		return nil, err
	}
	out := make([]*model.History, 0, b.Count())
	if t.view != nil {
		b.Range(func(i int) bool {
			out = append(out, t.view.HistoryAt(i))
			return true
		})
		return out, nil
	}
	parts, _, err := fanCohort(context.Background(), e, t, PolicyStrict, b,
		func(ctx context.Context, c *remoteConn, metas []ShardMeta, slices []*store.Bitset) ([][]*model.History, error) {
			ordinals := make([][]int, len(slices))
			for k, slice := range slices {
				ordinals[k] = slice.Ones()
			}
			return c.fetch(ctx, metas, ordinals)
		},
		func(ctx context.Context, bk ShardBackend, slice *store.Bitset) ([]*model.History, error) {
			return bk.FetchHistories(ctx, slice.Ones())
		})
	if err != nil {
		return nil, fmt.Errorf("engine: histories: %w", err)
	}
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

// HistoryByID resolves one patient's history wherever its shard lives. A
// store-backed engine answers from the collection; a coordinator probes
// every server for the patient's shard and shard-local ordinal
// concurrently — one Locate per server, not per shard — and fetches from
// the backend that holds it. A failed probe is a loud error
// under either policy — "not found" is only reported when every shard
// answered and none holds the patient, so a down backend can never
// masquerade as a missing patient. Absence is reported as an error
// wrapping ErrNoPatient.
func (e *Engine) HistoryByID(id model.PatientID) (*model.History, error) {
	t := e.topoNow()
	if t.view != nil {
		if o, ok := t.view.Ordinal(id); ok {
			return t.view.HistoryAt(o), nil
		}
		return nil, fmt.Errorf("engine: %s: %w", id, ErrNoPatient)
	}
	ctx, cancel := e.opCtx(context.Background())
	defer cancel()
	// One probe per server group; ordinals[i] ≥ 0 where backend i holds
	// the patient.
	ordinals := make([]int, len(t.backends))
	for i := range ordinals {
		ordinals[i] = -1
	}
	errs := e.eachGroup(ctx, t, nil,
		func(ctx context.Context, c *remoteConn, members []int) []error {
			k, o, err := c.locate(ctx, id, t.metasOf(members))
			if err == nil && k >= 0 {
				ordinals[members[k]] = o
			}
			return repeatErr(err, len(members))
		},
		func(ctx context.Context, i int, b ShardBackend) error {
			o, ok, err := b.LocateID(ctx, id)
			if err == nil && ok {
				ordinals[i] = o
			}
			return err
		})
	if _, err := e.judge(ctx, t, PolicyStrict, errs); err != nil {
		return nil, fmt.Errorf("engine: locate %s: %w", id, err)
	}
	found := -1
	for i := range t.backends {
		if ordinals[i] >= 0 {
			if found >= 0 {
				return nil, fmt.Errorf("engine: patient %s claimed by shards %d and %d",
					id, t.backends[found].Meta().Shard, t.backends[i].Meta().Shard)
			}
			found = i
		}
	}
	if found < 0 {
		return nil, fmt.Errorf("engine: %s: %w", id, ErrNoPatient)
	}
	bk := t.backends[found]
	t0 := time.Now()
	hs, err := bk.FetchHistories(ctx, []int{ordinals[found]})
	t.metrics[found].add(t0, err)
	t.groups[t.groupOf[found]].roundTrips.Add(1)
	if err != nil {
		return nil, fmt.Errorf("engine: fetch %s: %w", id, t.shardErr(found, err))
	}
	if len(hs) != 1 || hs[0].Patient.ID != id {
		return nil, fmt.Errorf("engine: shard %d answered the fetch for %s with the wrong history",
			bk.Meta().Shard, id)
	}
	return hs[0], nil
}

// Indicators aggregates the utilization indicators for the cohort a
// global-ordinal bitset selects, over the window: the AnalyzeUtilization
// kind, read as indicators. Every backend tallies its slice server-side (a
// fixed-size integral partial, whatever the cohort size) and the partials
// merge exactly, so the result is bit-identical to a sequential pass over
// the same cohort on a single store, at shard counts 1 through N and over
// any transport mix. Under PolicyDegraded the aggregate may omit
// unreachable shards; use IndicatorsStatus to learn which.
func (e *Engine) Indicators(b *store.Bitset, window model.Period) (stats.Indicators, error) {
	ind, _, err := e.IndicatorsStatus(context.Background(), b, window)
	return ind, err
}

// IndicatorsStatus is Indicators under a caller-supplied context, plus
// the completeness report: under PolicyDegraded the QueryStatus names the
// shards whose tallies are absent from the aggregate.
func (e *Engine) IndicatorsStatus(ctx context.Context, b *store.Bitset, window model.Period) (stats.Indicators, QueryStatus, error) {
	u, status, err := e.utilization(ctx, b, window)
	if err != nil {
		return stats.Indicators{}, QueryStatus{}, err
	}
	return u.Indicators().Finalize(window), status, nil
}

// Profile aggregates the dimension breakdown for the cohort a
// global-ordinal bitset selects, over the window — the compare-cohorts half
// of the workspace: the AnalyzeUtilization kind Indicators reads, read as
// a profile. Under PolicyDegraded the aggregate may omit unreachable
// shards.
func (e *Engine) Profile(b *store.Bitset, window model.Period) (stats.CohortProfile, error) {
	u, _, err := e.utilization(context.Background(), b, window)
	if err != nil {
		return stats.CohortProfile{}, err
	}
	return u.Profile(), nil
}
