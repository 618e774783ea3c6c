package engine

// Transport-agnostic shard access. The executor never touches shard data
// directly: every shard is behind a ShardBackend, whether it lives in this
// process (a store.View over the global store's postings) or in another
// one (a shard server reached over RPC). The semantics contract is that a
// backend evaluates plan fragments over its contiguous slice of the
// population and answers in shard-local ordinal space — local bit i is
// global bit Meta().Offset+i — so any mix of transports merges into the
// same global bitset a single-process engine would produce.

import (
	"context"
	"fmt"

	"pastas/internal/model"
	"pastas/internal/store"
)

// ShardMeta describes one shard of the population.
type ShardMeta struct {
	// Shard is the shard's id within its topology.
	Shard int
	// Offset is the global patient ordinal of the shard's first history.
	Offset int
	// Patients is the shard's population slice size.
	Patients int
	// Entries is the total entry count inside the shard.
	Entries int
	// Backend names the transport serving the shard: "local" for an
	// in-process view, "remote(addr)" for a shard server.
	Backend string
}

// ShardBackend evaluates plan fragments over one contiguous shard.
//
// Every data operation takes a context carrying the coordinator's query
// deadline: a transport honors it per call (a slow shard cannot pin a
// worker past the query budget), an in-process view may ignore it. All
// operations are read-only and idempotent — the property that makes
// retrying a call on another replica of the same server safe.
//
// EvalPlan runs a plan fragment — a single scan leaf or a whole plan
// tree — over the shard's patients and returns the matches in shard-local
// ordinal space. A non-nil mask (also shard-local) restricts the
// candidates: the result must equal eval(p) ∩ mask, and implementations
// may exploit the mask to skip work.
//
// Stats returns the shard's exact index cardinalities; a coordinating
// planner merges them into the population-level cardinality bounds its
// cost model estimates from.
//
// IDsOf resolves shard-local ordinals to patient IDs, in ordinal order.
//
// The history-level operations complete the contract: FetchHistories
// materializes the histories at strictly increasing shard-local ordinals
// (the workbench's timeline and details views) and LocateID resolves a
// patient ID to its shard-local ordinal (ok=false when the patient lives
// elsewhere).
//
// Analyze is the server-side aggregate that keeps large cohorts from
// shipping every history over a wire transport, as a map-reduce: a
// registered analyzer kind — utilization indicators, cohort profile, rule
// mining, episodes, scenarios — maps over only the masked-in histories
// and returns a mergeable partial the coordinator reduces exactly (see
// analyze.go).
type ShardBackend interface {
	Meta() ShardMeta
	Stats(ctx context.Context) (*store.Stats, error)
	EvalPlan(ctx context.Context, p Plan, mask *store.Bitset) (*store.Bitset, error)
	IDsOf(ctx context.Context, b *store.Bitset) ([]model.PatientID, error)
	FetchHistories(ctx context.Context, ordinals []int) ([]*model.History, error)
	LocateID(ctx context.Context, id model.PatientID) (int, bool, error)
	Analyze(ctx context.Context, args AnalyzeArgs) (Partial, error)
	Close() error
}

// Prober is an optional ShardBackend capability: a cheap liveness probe,
// O(1) on the far side. RemoteBackend answers it with the Describe
// handshake, no payload.
type Prober interface {
	Probe(ctx context.Context) error
}

// validateOrdinals enforces the FetchHistories argument contract for both
// transports: strictly increasing, in [0, patients). Shared so a hostile
// or buggy client fails identically against a local view and a server.
func validateOrdinals(ordinals []int, patients int) error {
	prev := -1
	for _, o := range ordinals {
		if o <= prev {
			return fmt.Errorf("engine: fetch ordinals must be strictly increasing (%d after %d)", o, prev)
		}
		if o >= patients {
			return fmt.Errorf("engine: fetch ordinal %d out of range (shard has %d patients)", o, patients)
		}
		prev = o
	}
	return nil
}

// LocalBackend serves a shard from an in-process store view: index
// lookups slice the parent store's postings, scans and analyses read the
// revision's analysis frame. A local engine is one LocalBackend over its
// whole pinned revision, which it scans and tallies itself; through
// EvalPlan and Analyze a LocalBackend answers on the calling goroutine
// alone, since a coordinator already runs its backends side by side.
type LocalBackend struct {
	v    *store.View
	meta ShardMeta
}

// NewLocalBackend wraps a store view as shard `shard` of a topology.
func NewLocalBackend(v *store.View, shard int) *LocalBackend {
	return &LocalBackend{
		v: v,
		meta: ShardMeta{
			Shard:    shard,
			Offset:   v.Offset(),
			Patients: v.Len(),
			Entries:  v.Entries(),
			Backend:  "local",
		},
	}
}

// Meta implements ShardBackend.
func (b *LocalBackend) Meta() ShardMeta { return b.meta }

// Stats implements ShardBackend: the parent postings sliced to the view's
// range and popcounted, or the revision's own stats for a whole-store view.
func (b *LocalBackend) Stats(context.Context) (*store.Stats, error) { return b.v.Stats(), nil }

// IDsOf implements ShardBackend.
func (b *LocalBackend) IDsOf(_ context.Context, bits *store.Bitset) ([]model.PatientID, error) {
	out := make([]model.PatientID, 0, bits.Count())
	bits.Range(func(i int) bool {
		out = append(out, b.v.PatientAt(i))
		return true
	})
	return out, nil
}

// FetchHistories implements ShardBackend straight off the view's slice of
// the collection.
func (b *LocalBackend) FetchHistories(_ context.Context, ordinals []int) ([]*model.History, error) {
	if err := validateOrdinals(ordinals, b.v.Len()); err != nil {
		return nil, err
	}
	out := make([]*model.History, len(ordinals))
	for i, o := range ordinals {
		out[i] = b.v.HistoryAt(o)
	}
	return out, nil
}

// LocateID implements ShardBackend via the parent store's ordinal map.
func (b *LocalBackend) LocateID(_ context.Context, id model.PatientID) (int, bool, error) {
	o, ok := b.v.Ordinal(id)
	return o, ok, nil
}

// Analyze implements ShardBackend: the registered map step runs over the
// view's masked-in histories through the same shared loop a local engine
// and the shard server use (tallyFrame), so the transports cannot diverge.
func (b *LocalBackend) Analyze(_ context.Context, args AnalyzeArgs) (Partial, error) {
	return tallyFrame(b.v.Frame(), args)
}

// Close implements ShardBackend; a view holds no resources.
func (b *LocalBackend) Close() error { return nil }

// EvalPlan implements ShardBackend in shard-local ordinal space. The
// coordinating executor keeps sub-plan caching for itself and mostly
// sends scan leaves here; whole trees walk the same
// evaluator a local engine does, masks and absorption included, so a
// backend set is a complete execution target on its own.
func (b *LocalBackend) EvalPlan(ctx context.Context, p Plan, mask *store.Bitset) (*store.Bitset, error) {
	if mask != nil && mask.Len() != b.v.Len() {
		return nil, fmt.Errorf("engine: shard %d: mask capacity %d, shard has %d patients",
			b.meta.Shard, mask.Len(), b.v.Len())
	}
	return viewTree(ctx, b.v).eval(p, mask)
}

// viewTree evaluates plans over a view with no result cache, scanning the
// view's own rows on the calling goroutine (scanView).
func viewTree(ctx context.Context, v *store.View) tree {
	return tree{view: v, scan: func(run []Scan, mask *store.Bitset) (*store.Bitset, error) { return scanView(ctx, v, run, mask, 1) }}
}

// LocalShards cuts a pinned view into contiguous LocalBackends of ⌈n/k⌉
// patients each, the layout store.Save writes for k shards:
// NewFromBackends over them splits and merges in process as a coordinator
// does over shard servers.
func LocalShards(v *store.View, k int) []ShardBackend {
	n := v.Len()
	chunk := max((n+k-1)/max(k, 1), 1)
	out := []ShardBackend{NewLocalBackend(v.Sub(0, min(chunk, n)), 0)}
	for off := chunk; off < n; off += chunk {
		out = append(out, NewLocalBackend(v.Sub(off, min(off+chunk, n)), len(out)))
	}
	return out
}

// scanView runs a run of scan leaves as one pass over the view's rows in
// mask (nil = all), answering their conjunction: each leaf's compiled
// frame matcher, or Expr.Eval per history for one holding a TextMatch,
// chained on each word of candidates (Bitset.EachWord, chain), in blocks
// of spreadRows spread over at most workers goroutines that each compile
// their own matchers and write their own words of the one result. A done
// ctx stops it between blocks, with ctx's error.
func scanView(ctx context.Context, v *store.View, run []Scan, mask *store.Bitset, workers int) (*store.Bitset, error) {
	f, rows := v.Frame(), v.Len()
	if mask == nil {
		mask = v.Empty().Not()
	}
	words := make([]uint64, (rows+63)/64)
	err := spread(ctx, workers, (rows+spreadRows-1)/spreadRows, func(int) func(int) {
		ms := make([]wordMatch, len(run))
		for k, n := range run {
			var ok bool
			if ms[k], ok = compileScan(n.Expr, &f); !ok {
				ms[k] = perRow(func(i int) bool { return n.Expr.Eval(v.HistoryAt(i)) })
			}
		}
		match := chain(ms)
		return func(k int) {
			mask.EachWord(k*spreadRows, min((k+1)*spreadRows, rows), func(base int, w uint64) { words[base>>6] = match(base, w) & w })
		}
	})
	if err != nil {
		return nil, err
	}
	return store.FromWords(words, rows), nil
}

// evalIndex answers an index leaf from the view's postings: a
// shard's slice, or a local engine's whole pinned revision — with local
// backends sharing that revision there is nothing to fan out.
func evalIndex(v *store.View, n IndexScan) (*store.Bitset, error) {
	switch n.Op {
	case OpType:
		return v.WithType(n.Type), nil
	case OpSource:
		return v.WithSource(n.Source), nil
	case OpValue:
		return v.WithValueBuckets(n.Buckets[0], n.Buckets[1]), nil
	default:
		if len(n.Systems) == 0 {
			return v.WithCodeRegex("", n.Pattern)
		}
		out := v.Empty()
		for _, sys := range n.Systems {
			b, err := v.WithCodeRegex(sys, n.Pattern)
			if err != nil {
				return nil, err
			}
			out.Or(b)
		}
		return out, nil
	}
}
