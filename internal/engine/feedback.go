package engine

// Adaptive feedback planning. The cost model's composition rule — child
// selectivities multiply — assumes independence, and clinical predicates
// violate it constantly (a diagnosis and the medication treating it
// select nearly the same patients). Rather than guess correlations up
// front, the executor records the true cardinality of every plan node it
// evaluates, keyed by the node's canonical key, and the optimizer
// consults those observations on the next planning pass: feedback
// replaces the estimate wherever an observation exists, including the
// conjunction prefixes evalAnd materializes on the way to its result.
//
// Observations carry a monotonically increasing epoch. Plans are
// memoized per (expression, epoch) within a store generation, so
// advancing feedback triggers a re-plan under the corrected estimates
// without evicting the plan an earlier epoch produced — both entries live
// in the memo side by side.
//
// Observations, like memoized plans, are scoped to the store generation
// they were made at (both are epochLRUs): a cardinality observed before an
// append describes a population that no longer exists, so it is dropped on
// the first access at the newer generation. The epoch does NOT reset when
// the generation advances; it only ever grows until ResetCache.

import "sync/atomic"

const (
	// feedbackSize bounds the recorded observations (LRU).
	feedbackSize = 4096
	// plansSize bounds the memoized optimized plans (LRU).
	plansSize = 256
)

// feedback holds the observed true cardinalities of one store generation
// by plan key, and the statistics epoch they have reached.
type feedback struct {
	obs   *epochLRU[string, int]
	epoch atomic.Uint64
}

func newFeedback(max int) *feedback {
	return &feedback{obs: newEpochLRU[string, int](max)}
}

// observe records the true cardinality of an executed plan node, as
// measured at store generation gen. The epoch advances only when the
// observation is news — a fresh key, or a value that moved by more than
// 10% — so repeated executions of a stable workload settle into a fixed
// epoch and the plan memo stays hot. An observation from a superseded
// generation is discarded and advances nothing.
func (f *feedback) observe(gen uint64, key string, rows int) {
	if old, ok := f.obs.get(gen, key); ok {
		if d := old - rows; d*10 <= old && -d*10 <= old {
			return
		}
	}
	if f.obs.put(gen, key, rows) {
		f.epoch.Add(1)
	}
}

// reset drops every observation and restarts the epoch.
func (f *feedback) reset() {
	f.obs.reset()
	f.epoch.Store(0)
}

// planKey identifies a memoized optimized plan within a store generation:
// the expression's canonical key under one feedback epoch.
type planKey struct {
	epoch uint64
	expr  string
}
