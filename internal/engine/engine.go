package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// Options tunes the engine.
type Options struct {
	// Shards is the number of store shards; clamped to [1, patients].
	// Ignored by NewFromBackends, where the backends fix the topology.
	Shards int
	// Workers bounds concurrent per-shard evaluation. Defaults to
	// GOMAXPROCS.
	Workers int
	// CacheSize is the LRU capacity in cached sub-plan bitsets; 0
	// disables caching.
	CacheSize int
	// Policy selects the failure semantics when a shard backend is
	// unreachable: PolicyStrict (default) fails the operation,
	// PolicyDegraded answers over the reachable shards and reports the
	// missing ones in the operation's QueryStatus.
	Policy Policy
	// QueryTimeout bounds every engine operation started without an
	// explicit context deadline (Execute, Select, Histories…). Zero
	// means no bound.
	QueryTimeout time.Duration
}

// DefaultOptions sizes the engine to the machine.
func DefaultOptions() Options {
	n := runtime.GOMAXPROCS(0)
	return Options{Shards: n, Workers: n, CacheSize: 128}
}

// shardMetric accumulates one backend's evaluation load for the /stats
// budget audits.
type shardMetric struct {
	queries  atomic.Uint64
	nanos    atomic.Uint64
	failures atomic.Uint64 // calls that returned an error
	skips    atomic.Uint64 // unavailability absorbed by PolicyDegraded
}

func (m *shardMetric) add(t0 time.Time, err error) {
	m.queries.Add(1)
	m.nanos.Add(uint64(time.Since(t0)))
	if err != nil {
		m.failures.Add(1)
	}
}

// group is what one round trip reaches: the backends sharing one server
// group's connection (what one DialShards address hands out, replicated
// or not), or any other backend — a local view, a test's fault wrapper —
// alone. Grouping is derived from the topology, never configured.
type group struct {
	conn       *remoteConn // nil unless the members are RemoteBackends of one server group
	members    []int       // backend indexes, ascending
	roundTrips atomic.Uint64
}

// groupBackends partitions backends into server groups, in first-member
// order, and maps every backend index to its group's.
func groupBackends(backends []ShardBackend) ([]*group, []int) {
	var groups []*group
	groupOf := make([]int, len(backends))
	byConn := make(map[*remoteConn]int)
	for i, b := range backends {
		rb, remote := b.(*RemoteBackend)
		g, known := 0, false
		if remote {
			g, known = byConn[rb.conn]
		}
		if !known {
			g = len(groups)
			groups = append(groups, &group{})
			if remote {
				groups[g].conn = rb.conn
				byConn[rb.conn] = g
			}
		}
		groups[g].members = append(groups[g].members, i)
		groupOf[i] = g
	}
	return groups, groupOf
}

const (
	// boundCacheSize caps the LRU of index-derived scan bounds; bounds are
	// pure functions of one store generation (the cache is epoched by it),
	// so a small fixed cache is safe.
	boundCacheSize = 64
	// analysisMemoSize caps the analysis memo (analyze.go): complete
	// answers by kind, parameters and cohort. A session characterises a
	// handful of cohorts, each a few kinds.
	analysisMemoSize = 32
	// workspaceSize caps the materialized cohorts held in memory; the
	// least recently saved or read is evicted first (loadgen-style
	// workloads mint unique names forever, and an unbounded map of
	// 1M-patient bitsets is a leak, not a cache).
	workspaceSize = 1024
)

// topo is the engine's execution topology pinned to one store generation:
// the shard views, backends and statistics every evaluation of that
// generation runs against. It is immutable once published; when the store
// generation advances, topoNow builds a fresh topo on the side and swaps
// it in, so one query always runs — start to finish — against a single
// consistent generation while appends keep landing.
type topo struct {
	gen      uint64
	n        int // total population
	entries  int // total entries across backends
	stats    *store.Stats
	view     *store.View // pinned full-population view; nil for a coordinator
	backends []ShardBackend
	metrics  []shardMetric
	groups   []*group // the backends partitioned by server (groupBackends)
	groupOf  []int    // backend index → index into groups
}

// metasOf returns the metadata of the backends at the given indexes.
func (t *topo) metasOf(members []int) []ShardMeta {
	metas := make([]ShardMeta, len(members))
	for k, i := range members {
		metas[k] = t.backends[i].Meta()
	}
	return metas
}

// empty returns a fresh empty bitset over the topology's population.
func (t *topo) empty() *store.Bitset { return store.NewBitset(t.n) }

// all returns a bitset with every patient of the topology set.
func (t *topo) all() *store.Bitset { return t.empty().Not() }

// Engine executes compiled plans over a set of shard backends.
//
// Built with New, the backends are in-process views over one global store
// and the executor exploits that locality: index leaves are answered
// straight from the pinned postings, scan candidates are bounded by them,
// and only scan evaluation fans out. Built with NewFromBackends, the
// engine is a coordinator over arbitrary (typically remote) backends: it
// plans from the backends' merged statistics, pushes whole plans down to
// every shard in one round, and merges the shard-local results in fixed
// shard order.
//
// A local engine follows its store's live-ingest generation: every
// operation pins the current topology first, and everything derived from
// store contents — result cache, scan-bound cache, planner feedback, plan
// memo, analysis memo, cohort workspace — is an epochLRU keyed under that
// generation, discarded on advance rather than ever answering for a
// population it no longer describes.
type Engine struct {
	st     *store.Store // nil for a coordinator over remote backends
	shards int          // configured shard count (local engines re-shard on rebuild)

	topo   atomic.Pointer[topo]
	topoMu sync.Mutex // serializes topology rebuilds on generation advance

	workers int
	policy  Policy
	timeout time.Duration // default per-operation budget; 0 = unbounded
	// cache holds complete results by canonical sub-plan key; nil when
	// Options.CacheSize is 0.
	cache *epochLRU[string, *store.Bitset]
	// boundCache memoizes scanBound results by Scan key, so the
	// interactive refinement loop re-intersects a cached bound instead
	// of re-walking the code vocabulary on every repeated scan. A nil
	// value records that no index bounds the scan.
	boundCache *epochLRU[string, *store.Bitset]
	// fb records the true cardinality of every evaluated plan node; the
	// optimizer's cost model reads it back on later planning passes
	// (adaptive feedback planning, see feedback.go).
	fb *feedback
	// plans memoizes optimized plans by (feedback epoch, expression).
	plans *epochLRU[planKey, Plan]
	// analyses memoizes complete Analyze answers by kind, parameters and
	// cohort (analyze.go); nil when Options.CacheSize is 0.
	analyses *epochLRU[analysisKey, analysisEntry]
	// ws holds the materialized cohorts by name (cohorts.go) — but is NOT
	// cleared by ResetCache: a saved cohort is user state, not derived
	// state, and benchmark cold arms must be able to drop the caches
	// without losing the workspace.
	ws *epochLRU[string, *cohortEntry]
}

// newEngine builds an engine with the options' settings and empty caches;
// the caller installs the topology.
func newEngine(opts Options) *Engine {
	e := &Engine{
		policy:     opts.Policy,
		timeout:    opts.QueryTimeout,
		workers:    normalizeWorkers(opts.Workers),
		boundCache: newEpochLRU[string, *store.Bitset](boundCacheSize),
		fb:         newFeedback(feedbackSize),
		plans:      newEpochLRU[planKey, Plan](plansSize),
		ws:         newEpochLRU[string, *cohortEntry](workspaceSize),
	}
	if opts.CacheSize > 0 {
		e.cache = newEpochLRU[string, *store.Bitset](opts.CacheSize)
		e.analyses = newEpochLRU[analysisKey, analysisEntry](analysisMemoSize)
	}
	return e
}

// New builds an engine over an already-indexed global store. With more
// than one shard the population is split into contiguous chunks; each is
// a local backend viewing the store's pinned postings, so scan evaluation
// fans out across a worker pool and merges per-shard bitsets by ordinal
// offset without duplicating any index memory.
func New(st *store.Store, opts Options) *Engine {
	e := newEngine(opts)
	e.st, e.shards = st, opts.Shards
	e.topo.Store(e.buildTopo(st.Pin()))
	return e
}

// buildTopo carves the configured shard layout out of one pinned store
// revision. Per-backend metrics start fresh with each topology.
func (e *Engine) buildTopo(pin *store.View) *topo {
	n := pin.Len()
	t := &topo{
		gen:     pin.Generation(),
		n:       n,
		entries: pin.Entries(),
		stats:   pin.Stats(),
		view:    pin,
	}
	shards := e.shards
	if shards > n {
		shards = n
	}
	if shards <= 1 {
		t.backends = []ShardBackend{NewLocalBackend(pin.Sub(0, n), 0)}
	} else {
		chunk := (n + shards - 1) / shards
		for off := 0; off < n; off += chunk {
			t.backends = append(t.backends,
				NewLocalBackend(pin.Sub(off, min(off+chunk, n)), len(t.backends)))
		}
	}
	t.metrics = make([]shardMetric, len(t.backends))
	t.groups, t.groupOf = groupBackends(t.backends)
	return t
}

// topoNow returns the execution topology for the store's current
// generation, rebuilding it (double-checked, on the side — readers of the
// old topology are never blocked) when an append has advanced the store
// since the topology was built. Coordinators have no local store and keep
// their construction-time topology forever.
func (e *Engine) topoNow() *topo {
	t := e.topo.Load()
	if e.st == nil || t.gen == e.st.Generation() {
		return t
	}
	e.topoMu.Lock()
	defer e.topoMu.Unlock()
	t = e.topo.Load()
	if t.gen != e.st.Generation() {
		t = e.buildTopo(e.st.Pin())
		e.topo.Store(t)
	}
	return t
}

// NewFromBackends builds a coordinating engine over an explicit backend
// set — the distributed execution path. The backends must tile the
// population: sorted by offset they have to cover [0, N) contiguously,
// the same ordinal-contiguous boundaries the local engine shards on.
// Statistics are fetched from every backend and merged (exact: patient
// counts are additive over disjoint shards) so cost-based planning sees
// the same cardinalities a single global store would collect.
func NewFromBackends(backends []ShardBackend, opts Options) (*Engine, error) {
	if len(backends) == 0 {
		return nil, fmt.Errorf("engine: no shard backends")
	}
	bs := append([]ShardBackend(nil), backends...)
	sort.SliceStable(bs, func(i, j int) bool { return bs[i].Meta().Offset < bs[j].Meta().Offset })
	e := newEngine(opts)
	t := &topo{backends: bs}
	for _, b := range bs {
		m := b.Meta()
		if m.Offset != t.n {
			return nil, fmt.Errorf("engine: backend %q covers ordinals [%d, %d), want start %d (shards must tile the population contiguously)",
				m.Backend, m.Offset, m.Offset+m.Patients, t.n)
		}
		t.n += m.Patients
		t.entries += m.Entries
	}
	// Merged statistics give the planner population-level cardinality
	// bounds; fetch per shard, concurrently. Construction is strict under
	// either policy: planning from a topology whose statistics never
	// loaded would degrade every query silently.
	ctx, cancel := e.opCtx(context.Background())
	defer cancel()
	parts := make([]*store.Stats, len(bs))
	errs := make([]error, len(bs))
	var wg sync.WaitGroup
	for i, b := range bs {
		wg.Add(1)
		go func(i int, b ShardBackend) {
			defer wg.Done()
			parts[i], errs[i] = b.Stats(ctx)
		}(i, b)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("engine: stats from backend %q: %w", bs[i].Meta().Backend, err)
		}
	}
	t.stats = store.MergeStats(parts...)
	t.metrics = make([]shardMetric, len(bs))
	t.groups, t.groupOf = groupBackends(bs)
	e.topo.Store(t)
	return e, nil
}

func normalizeWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// Store returns the global store a locally built engine answers over; nil
// for a coordinator over remote backends.
func (e *Engine) Store() *store.Store { return e.st }

// Stats returns the statistics the planner estimates from: the store's
// own for a local engine, the backends' merged cardinalities for a
// coordinator.
func (e *Engine) Stats() *store.Stats { return e.topoNow().stats }

// Patients returns the total population across all backends.
func (e *Engine) Patients() int { return e.topoNow().n }

// TotalEntries returns the total entry count across all backends.
func (e *Engine) TotalEntries() int { return e.topoNow().entries }

// NumShards returns the shard count.
func (e *Engine) NumShards() int { return len(e.topoNow().backends) }

// Policy returns the engine's failure-semantics policy.
func (e *Engine) Policy() Policy { return e.policy }

// Generation returns the store generation the engine currently answers
// for (0 for a coordinator). Appends advance it; compaction does not.
func (e *Engine) Generation() uint64 { return e.topoNow().gen }

// opCtx applies the engine's default query budget to a context that does
// not already carry a deadline. The returned cancel must always be
// called.
func (e *Engine) opCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if e.timeout > 0 {
		if _, ok := ctx.Deadline(); !ok {
			return context.WithTimeout(ctx, e.timeout)
		}
	}
	return context.WithCancel(ctx)
}

// BackendInfo returns every backend's shard metadata, in offset order.
func (e *Engine) BackendInfo() []ShardMeta {
	t := e.topoNow()
	out := make([]ShardMeta, len(t.backends))
	for i, b := range t.backends {
		out[i] = b.Meta()
	}
	return out
}

// Close releases the backends (network connections for remote shards;
// a no-op for local views).
func (e *Engine) Close() error {
	var errs []error
	for _, b := range e.topo.Load().backends {
		if err := b.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// CacheStats reports result-cache hits and misses, and the entries that
// can still answer at the current generation.
func (e *Engine) CacheStats() CacheStats {
	if e.cache == nil {
		return CacheStats{}
	}
	return e.cache.stats(e.topoNow().gen)
}

// ResetCache empties the result cache, the analysis memo, the scan-bound
// cache, the recorded execution feedback and the plan memo (benchmarks use
// this to measure cold executions — cold statistics included).
func (e *Engine) ResetCache() {
	if e.cache != nil {
		e.cache.reset()
		e.analyses.reset()
	}
	e.boundCache.reset()
	e.fb.reset()
	e.plans.reset()
}

// ShardStat reports one backend's cumulative evaluation load since the
// current topology was built: every plan fragment the executor fanned out
// to the backend, timed uniformly at the call site, whatever the
// transport. For a locally built engine index leaves are answered from
// the pinned postings without touching a backend and do not appear here.
// Counters restart when an append advances the generation (the topology
// — and possibly the shard layout — is rebuilt).
type ShardStat struct {
	Shard    int
	Offset   int
	Patients int
	Entries  int
	// Backend names the transport ("local", "remote(addr)",
	// "replicas(remote(a) | remote(b))").
	Backend string
	// Queries counts evaluations of this shard, Nanos the time the
	// coordinator waited for them (shards answered by one round trip each
	// count it whole).
	Queries uint64
	Nanos   uint64
	// Group numbers the backend's server group — the shards of one
	// DialShards address share one, any other backend is its own — and RoundTrips
	// counts the calls actually sent to that group: sum it over distinct
	// groups. For a group of one it is Queries, less the evaluations an
	// empty mask slice answered without a call.
	Group      int
	RoundTrips uint64
	// Failures counts calls to this backend that returned an error
	// (after any failover within its group).
	Failures uint64
	// Skipped counts operations where PolicyDegraded absorbed this
	// backend's unavailability — answers that were served without it.
	Skipped uint64
}

// ShardStats returns per-backend evaluation counters for the 0.1 s budget
// audits (the webapp's /api/stats endpoint serves these).
func (e *Engine) ShardStats() []ShardStat {
	t := e.topoNow()
	out := make([]ShardStat, len(t.backends))
	for i, b := range t.backends {
		m := b.Meta()
		out[i] = ShardStat{
			Shard:    m.Shard,
			Offset:   m.Offset,
			Patients: m.Patients,
			Entries:  m.Entries,
			Backend:  m.Backend,
			Queries:  t.metrics[i].queries.Load(),
			Nanos:    t.metrics[i].nanos.Load(),
			Failures: t.metrics[i].failures.Load(),
			Skipped:  t.metrics[i].skips.Load(),

			Group:      t.groupOf[i],
			RoundTrips: t.groups[t.groupOf[i]].roundTrips.Load(),
		}
	}
	return out
}

// ShardHealth is one backend's live health as the engine sees it: for a
// shard of a replicated server group, the group's per-member states the
// health loop maintains; for any other backend, healthy as long as it
// exists (it has no checker — failures surface per call).
type ShardHealth struct {
	Shard    int             `json:"shard"`
	Backend  string          `json:"backend"`
	Healthy  bool            `json:"healthy"`
	Replicas []ReplicaHealth `json:"replicas,omitempty"`
}

// Health reports per-shard backend health, in offset order.
func (e *Engine) Health() []ShardHealth {
	t := e.topoNow()
	out := make([]ShardHealth, len(t.backends))
	for i, b := range t.backends {
		m := b.Meta()
		h := ShardHealth{Shard: m.Shard, Backend: m.Backend, Healthy: true}
		if rb, ok := b.(*RemoteBackend); ok && len(rb.conn.members) > 1 {
			h.Healthy, h.Replicas = rb.conn.health()
		}
		out[i] = h
	}
	return out
}

// optimize runs the cost-based optimizer (estimates corrected by
// execution feedback from the same generation) when statistics exist, the
// static one otherwise (empty store).
func (e *Engine) optimize(t *topo, p Plan) Plan {
	if t.stats != nil && t.stats.Patients > 0 {
		return optimizeNode(p, newFeedbackCostModel(t.stats, e.fb, t.gen))
	}
	return Optimize(p)
}

// plan returns the optimized form of p, memoized by (feedback epoch,
// canonical expression key) within the topology's generation. When
// execution feedback advances the epoch the expression is re-planned under
// the corrected estimates; the re-plan lands under the new epoch's key,
// never evicting the plan the previous epoch produced — an in-flight
// execution may still hold it, and reverting feedback restores it for
// free. When an append advances the store generation the memo drops every
// plan: a plan chosen for a previous population never answers for the new
// one. Opaque plans (per-compile keys) are planned fresh every time.
func (e *Engine) plan(t *topo, p Plan) Plan {
	if !cacheable(p) {
		return e.optimize(t, p)
	}
	key := planKey{epoch: e.fb.epoch.Load(), expr: p.Key()}
	if op, ok := e.plans.get(t.gen, key); ok {
		return op
	}
	op := e.optimize(t, p)
	e.plans.put(t.gen, key, op)
	return op
}

// FeedbackEpoch reports the planner's statistics epoch: it advances
// whenever execution observes a cardinality the cost model did not
// already know, and re-planning any expression under a new epoch may
// produce a different (better-informed) plan.
func (e *Engine) FeedbackEpoch() uint64 { return e.fb.epoch.Load() }

// Execute compiles, optimizes and runs a query expression, returning the
// matching patients as a bitset in global ordinal space. Under
// PolicyDegraded the result may be partial; use ExecuteStatus to learn
// which shards contributed.
func (e *Engine) Execute(q query.Expr) (*store.Bitset, error) {
	b, _, err := e.ExecuteStatus(context.Background(), q)
	return b, err
}

// ExecuteStatus is Execute under a caller-supplied context, plus the
// completeness report. The context's deadline bounds the whole
// evaluation, threaded down to every backend call. Under PolicyDegraded
// the QueryStatus names the shards that did not contribute (under
// PolicyStrict it is always complete — incompleteness is an error).
func (e *Engine) ExecuteStatus(ctx context.Context, q query.Expr) (*store.Bitset, QueryStatus, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, QueryStatus{}, err
	}
	t := e.topoNow()
	return e.executePlanStatus(ctx, t, e.plan(t, p))
}

// ExecutePlan runs an already-built plan.
func (e *Engine) ExecutePlan(p Plan) (*store.Bitset, error) {
	b, _, err := e.executePlanStatus(context.Background(), e.topoNow(), p)
	return b, err
}

func (e *Engine) executePlanStatus(ctx context.Context, t *topo, p Plan) (*store.Bitset, QueryStatus, error) {
	ctx, cancel := e.opCtx(ctx)
	defer cancel()
	b, missing, err := e.eval(ctx, t, p)
	if err != nil {
		return nil, QueryStatus{}, err
	}
	return b, e.statusFromMissing(t, missing), nil
}

// Explain returns the statically optimized plan for an expression without
// running it. For cost-annotated plans, use Engine.Explain.
func Explain(q query.Expr) (Plan, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	return Optimize(p), nil
}

// Select is Execute materialized as patient IDs in collection order.
func (e *Engine) Select(q query.Expr) ([]model.PatientID, error) {
	b, err := e.Execute(q)
	if err != nil {
		return nil, err
	}
	return e.IDsOf(b)
}

// IDsOf materializes a global-ordinal bitset as patient IDs in collection
// order. A local engine reads them off the pinned view; a coordinator
// asks each backend for its slice and concatenates in fixed shard order.
// The mapping is strict under either policy — but a bitset produced by a
// degraded query has no bits on its missing shards, so those backends
// are never asked.
func (e *Engine) IDsOf(b *store.Bitset) ([]model.PatientID, error) {
	t, err := e.pinCohort(b)
	if err != nil {
		return nil, err
	}
	out := make([]model.PatientID, 0, b.Count())
	if t.view != nil {
		b.Range(func(i int) bool {
			out = append(out, t.view.PatientAt(i))
			return true
		})
		return out, nil
	}
	parts, _, err := fanCohort(context.Background(), e, t, PolicyStrict, b,
		func(ctx context.Context, c *remoteConn, metas []ShardMeta, slices []*store.Bitset) ([][]model.PatientID, error) {
			return c.ids(ctx, metas, slices)
		},
		func(ctx context.Context, bk ShardBackend, slice *store.Bitset) ([]model.PatientID, error) {
			return bk.IDsOf(ctx, slice)
		})
	if err != nil {
		return nil, fmt.Errorf("engine: ids: %w", err)
	}
	for _, part := range parts {
		out = append(out, part...)
	}
	return out, nil
}

// eval computes the exact result of p over the topology's population,
// plus the indexes of any backends PolicyDegraded absorbed (always empty
// under PolicyStrict — their errors fail the evaluation instead). Results
// of non-trivial nodes land in the LRU keyed by canonical sub-plan under
// the topology's generation, so a refined query re-uses the unchanged
// parts of its predecessor — but only complete results: a degraded answer
// is never cached and never feeds the planner's cardinality feedback,
// both would poison later complete executions. The returned bitset is
// owned by the caller.
func (e *Engine) eval(ctx context.Context, t *topo, p Plan) (*store.Bitset, []int, error) {
	switch p.(type) {
	case All:
		return t.all(), nil, nil
	case None:
		return t.empty(), nil, nil
	}
	key := p.Key()
	useCache := e.cache != nil && cacheable(p)
	if useCache {
		if b, ok := e.cache.get(t.gen, key); ok {
			return b.Clone(), nil, nil
		}
	}
	var out *store.Bitset
	var missing []int
	var err error
	if t.view == nil {
		// Coordinator: every expression is per-history, so a whole plan
		// distributes over the shards — one fan-out round, one call per
		// server, each shard evaluating (and locally re-optimizing) the
		// full plan over its slice, merged in fixed shard order.
		out, missing, err = e.evalAll(ctx, t, e.policy, p, nil)
	} else {
		switch n := p.(type) {
		case IndexScan:
			out, err = evalIndexOnView(t.view, n)
		case Scan:
			out, err = e.evalScan(ctx, t, n, nil)
		case Not:
			out, _, err = e.eval(ctx, t, n.Child)
			if err == nil {
				out.Not()
			}
		case And:
			out, err = e.evalAnd(ctx, t, n.Children, nil)
		case Or:
			out, err = e.evalOr(ctx, t, n.Children, nil)
		default:
			// Plan is an open interface; fail loudly rather than returning
			// (nil, nil) for a node type this executor does not know.
			return nil, nil, fmt.Errorf("engine: unknown plan node %T", p)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	if len(missing) > 0 {
		return out, missing, nil
	}
	e.fb.observe(t.gen, key, out.Count())
	if useCache {
		e.cache.put(t.gen, key, out.Clone())
	}
	return out, nil, nil
}

// evalMasked computes eval(p) ∩ mask, exploiting the mask to skip scan
// work. Masked results are not cached (they are mask-specific), but a
// cached unmasked result for any node — leaf or boolean subtree — is
// consulted first and intersected with the mask.
func (e *Engine) evalMasked(ctx context.Context, t *topo, p Plan, mask *store.Bitset) (*store.Bitset, error) {
	switch p.(type) {
	case All:
		return mask.Clone(), nil
	case None:
		return t.empty(), nil
	}
	if e.cache != nil && cacheable(p) {
		if b, ok := e.cache.get(t.gen, p.Key()); ok {
			return b.Clone().And(mask), nil
		}
	}
	switch n := p.(type) {
	case Scan:
		return e.evalScan(ctx, t, n, mask)
	case Not:
		b, err := e.evalMasked(ctx, t, n.Child, mask)
		if err != nil {
			return nil, err
		}
		return mask.Clone().AndNot(b), nil
	case And:
		return e.evalAnd(ctx, t, n.Children, mask)
	case Or:
		return e.evalOr(ctx, t, n.Children, mask)
	default: // IndexScan: full evaluation is cheap and cache-friendly.
		b, _, err := e.eval(ctx, t, p)
		if err != nil {
			return nil, err
		}
		return b.And(mask), nil
	}
}

// evalAnd intersects children left to right (the optimizer ordered them
// most-selective-cheapest-first); scan-bearing children only visit
// patients still in the accumulated candidate set, and an empty
// accumulator short-circuits the remaining children entirely.
func (e *Engine) evalAnd(ctx context.Context, t *topo, children []Plan, mask *store.Bitset) (*store.Bitset, error) {
	var acc *store.Bitset
	if mask != nil {
		acc = mask.Clone()
	} else {
		acc = t.all()
	}
	for i, c := range children {
		if acc.Count() == 0 {
			return acc, nil
		}
		if hasScan(c) {
			b, err := e.evalMasked(ctx, t, c, acc)
			if err != nil {
				return nil, err
			}
			acc = b
		} else {
			b, _, err := e.eval(ctx, t, c)
			if err != nil {
				return nil, err
			}
			acc.And(b)
		}
		// Unmasked, the accumulator after child i is the true cardinality
		// of the conjunction prefix — for i = 0, of the child itself.
		// Record every prefix (eval records the full node): these
		// observations are what lets the join-order DP see through
		// correlated predicates, and the canonical And key is
		// order-insensitive, so a prefix recorded under one order is
		// found again whatever order is tried next.
		if mask == nil && i < len(children)-1 {
			if i == 0 {
				e.fb.observe(t.gen, c.Key(), acc.Count())
			} else {
				e.fb.observe(t.gen, And{Children: children[:i+1]}.Key(), acc.Count())
			}
		}
	}
	return acc, nil
}

// evalOr unions children (the optimizer ordered them largest-first);
// scan-bearing children only visit patients not already known to match
// (and, under a mask, inside the mask), and the union short-circuits by
// absorption the moment it covers every candidate.
func (e *Engine) evalOr(ctx context.Context, t *topo, children []Plan, mask *store.Bitset) (*store.Bitset, error) {
	acc := t.empty()
	target := t.n
	if mask != nil {
		target = mask.Count()
	}
	for _, c := range children {
		if acc.Count() >= target {
			return acc, nil // absorption: every candidate already matches
		}
		if hasScan(c) {
			var rem *store.Bitset
			if mask != nil {
				rem = mask.Clone().AndNot(acc)
			} else {
				rem = acc.Clone().Not()
			}
			b, err := e.evalMasked(ctx, t, c, rem)
			if err != nil {
				return nil, err
			}
			acc.Or(b)
		} else {
			b, _, err := e.eval(ctx, t, c)
			if err != nil {
				return nil, err
			}
			if mask != nil {
				b.And(mask)
			}
			acc.Or(b)
		}
	}
	return acc, nil
}

// evalScan runs the fallback evaluator over each backend's shard. The
// candidate set is the given mask intersected with the scan's
// index-derived bound (scanBound) — the driving predicate's postings —
// so whole shards whose per-shard cardinality for the driving predicate
// is zero are skipped without a backend call, and an empty candidate set
// short-circuits before any fan-out. Each backend receives its slice of
// the candidates in shard-local ordinal space.
func (e *Engine) evalScan(ctx context.Context, t *topo, n Scan, mask *store.Bitset) (*store.Bitset, error) {
	eff := mask
	if bound := e.cachedBound(t, n); bound != nil {
		if mask != nil {
			bound.And(mask)
		}
		eff = bound
	}
	if eff != nil && eff.Count() == 0 {
		return t.empty(), nil
	}
	// Local scan fan-out is strict regardless of policy: these backends
	// are in-process views, an error here is a bug, not an outage.
	out, _, err := e.evalAll(ctx, t, PolicyStrict, n, eff)
	return out, err
}

// cachedBound returns a caller-owned copy of the scan's index-derived
// candidate bound, memoized by Scan key under the topology's generation
// (opaque scans have per-compile keys, and the bound only depends on the
// typed predicate structure, so sharing by key is sound). Bound-less
// outcomes are memoized too, as nil, because deriving "no bound" can still
// walk the code vocabulary (e.g. a Code branch discarded by an unbounded
// sibling under Or).
func (e *Engine) cachedBound(t *topo, n Scan) *store.Bitset {
	key := n.Key()
	bound, ok := e.boundCache.get(t.gen, key)
	if !ok {
		bound = e.scanBound(t, n.Expr)
		e.boundCache.put(t.gen, key, bound)
	}
	if bound == nil {
		return nil
	}
	return bound.Clone()
}

// scanBound derives a candidate superset for a scanned expression from
// the inverted indexes: any patient the expression can match must carry
// at least one entry per index-answerable predicate it requires. Returns
// nil when no index bounds the expression. Soundness mirrors the
// evaluators exactly: Has needs ≥1 entry matching Pred; And/Sequence/
// During need every part satisfied; Or is bounded only when every branch
// is.
func (e *Engine) scanBound(t *topo, x query.Expr) *store.Bitset {
	switch q := x.(type) {
	case query.Has:
		return e.predBound(t, q.Pred)
	case query.And:
		return intersectBounds(collectBounds(e, t, []query.Expr(q)))
	case query.Or:
		bounds := collectBounds(e, t, []query.Expr(q))
		if len(bounds) != len(q) {
			return nil // an unbounded branch unbounds the union
		}
		return unionBounds(bounds)
	case query.Sequence:
		var bounds []*store.Bitset
		for _, st := range q.Steps {
			if b := e.predBound(t, st.Pred); b != nil {
				bounds = append(bounds, b)
			}
		}
		return intersectBounds(bounds)
	case query.During:
		var bounds []*store.Bitset
		if b := e.predBound(t, q.Interval); b != nil {
			bounds = append(bounds, b)
		}
		if b := e.predBound(t, q.Event); b != nil {
			bounds = append(bounds, b)
		}
		return intersectBounds(bounds)
	default: // TrueExpr, Not, demographics, opaque expressions
		return nil
	}
}

// predBound returns the patients with ≥1 entry that could match the
// event predicate, from the inverted indexes; nil when un-indexable. An
// entry matching Code necessarily carries a non-zero code matching the
// pattern (Code.Match rejects code-less entries), so the code postings
// are a sound superset.
func (e *Engine) predBound(t *topo, p query.EventPred) *store.Bitset {
	switch q := p.(type) {
	case *query.Code:
		b, err := t.view.WithCodeRegex(q.System, q.Pattern)
		if err != nil {
			return nil
		}
		return b
	case query.TypeIs:
		return t.view.WithType(model.Type(q))
	case query.SourceIs:
		return t.view.WithSource(model.Source(q))
	case query.AllOf:
		var bounds []*store.Bitset
		for _, c := range q {
			if b := e.predBound(t, c); b != nil {
				bounds = append(bounds, b)
			}
		}
		return intersectBounds(bounds)
	case query.AnyOf:
		var bounds []*store.Bitset
		for _, c := range q {
			b := e.predBound(t, c)
			if b == nil {
				return nil
			}
			bounds = append(bounds, b)
		}
		return unionBounds(bounds)
	// NotEv, KindIs, ValueBetween, InPeriod, TextMatch, or a predicate
	// type this package does not know.
	default:
		return nil
	}
}

func collectBounds(e *Engine, t *topo, exprs []query.Expr) []*store.Bitset {
	var bounds []*store.Bitset
	for _, c := range exprs {
		if b := e.scanBound(t, c); b != nil {
			bounds = append(bounds, b)
		}
	}
	return bounds
}

func intersectBounds(bounds []*store.Bitset) *store.Bitset {
	if len(bounds) == 0 {
		return nil
	}
	out := bounds[0]
	for _, b := range bounds[1:] {
		out.And(b)
	}
	return out
}

func unionBounds(bounds []*store.Bitset) *store.Bitset {
	if len(bounds) == 0 {
		return nil
	}
	out := bounds[0]
	for _, b := range bounds[1:] {
		out.Or(b)
	}
	return out
}

// evalAll computes eval(p) ∩ mask (nil = everyone) over every backend —
// one call per server group, each backend handed its slice of the mask in
// shard-local ordinal space, backends whose slice is empty not called at
// all — and merges the shard-local bitsets into one global bitset in
// fixed shard order, honoring policy. Under PolicyStrict any backend error
// fails the whole evaluation: a partial cohort is never returned. Under
// PolicyDegraded a backend whose error is transport-level unavailability
// is skipped — its ordinal range stays zero in the merged bitset and its
// index is reported in missing; a lost server takes exactly its own
// shards with it — while any other error (a semantic failure, a
// wrong-sized result) still fails the evaluation under either policy.
func (e *Engine) evalAll(ctx context.Context, t *topo, policy Policy, p Plan, mask *store.Bitset) (*store.Bitset, []int, error) {
	locals := make([]*store.Bitset, len(t.backends))
	var want []bool
	slice := func(int) *store.Bitset { return nil }
	if mask != nil {
		want = make([]bool, len(t.backends))
		for i, b := range t.backends {
			m := b.Meta()
			if want[i] = mask.AnyInRange(m.Offset, m.Offset+m.Patients); !want[i] {
				locals[i] = store.NewBitset(m.Patients)
			}
		}
		slice = func(i int) *store.Bitset {
			m := t.backends[i].Meta()
			return mask.SliceRange(m.Offset, m.Offset+m.Patients)
		}
	}
	// The plan takes its wire form once per query, however many servers
	// receive it.
	wired := sync.OnceValues(func() (wirePlan, error) { return planToWire(p) })
	errs := e.eachGroup(ctx, t, want,
		func(ctx context.Context, c *remoteConn, members []int) []error {
			plan, err := wired()
			if err != nil {
				return repeatErr(err, len(members))
			}
			masks := make([]*store.Bitset, len(members))
			for k, i := range members {
				masks[k] = slice(i)
			}
			bits, errs := c.eval(ctx, plan, t.metasOf(members), masks)
			for k, i := range members {
				locals[i] = bits[k]
			}
			return errs
		},
		func(ctx context.Context, i int, b ShardBackend) (err error) {
			locals[i], err = b.EvalPlan(ctx, p, slice(i))
			return err
		})
	missing, err := e.judge(ctx, t, policy, errs)
	if err != nil {
		return nil, nil, err
	}
	for _, i := range missing {
		locals[i] = nil
	}
	out := t.empty()
	for i, local := range locals {
		if local == nil {
			continue // degraded-away shard: its range stays zero
		}
		m := t.backends[i].Meta()
		if local.Len() != m.Patients {
			return nil, nil, t.shardErr(i, fmt.Errorf("result covers %d patients, shard has %d", local.Len(), m.Patients))
		}
		out.OrAt(local, m.Offset)
	}
	return out, missing, nil
}

// shardErr attributes a fan-out failure to backend i's shard — in the
// message and, as a *ShardError, structurally, so an API layer can name
// the shard without parsing text.
func (t *topo) shardErr(i int, err error) error {
	m := t.backends[i].Meta()
	return &ShardError{Shard: m.Shard, Err: fmt.Errorf("engine: shard %d (%s): %w", m.Shard, m.Backend, err)}
}

// judge holds one fan-out's per-backend errors to the failure policy — the
// one place Strict and Degraded are told apart, for plan evaluation and
// cohort operations alike. Under PolicyDegraded transport-level
// unavailability is absorbed: the backend's index is returned in missing
// and the caller is told exactly which shards its answer lacks. (A dead
// overall context is not an outage — the caller's budget expired, fail
// loudly.) Any other error — every error under PolicyStrict, a semantic
// failure or a corrupt reply under either — fails the operation: the
// message is the first failing shard's, and every further failing shard
// rides along as attribution, so a lost server is reported with all of its
// shards.
func (e *Engine) judge(ctx context.Context, t *topo, policy Policy, errs []error) (missing []int, err error) {
	degrade := policy == PolicyDegraded && ctx.Err() == nil
	var failed error
	for i, err := range errs {
		switch {
		case err == nil:
		case degrade && IsUnavailable(err):
			t.metrics[i].skips.Add(1)
			missing = append(missing, i)
		case failed == nil:
			failed = t.shardErr(i, err)
		default:
			failed = &ShardError{Shard: t.backends[i].Meta().Shard, Err: failed}
		}
	}
	if failed != nil {
		return nil, failed
	}
	return missing, nil
}

// pinCohort pins the topology a cohort operation runs against and checks
// the cohort bitset covers exactly its population: a bitset from before an
// append (or from another engine) would select the wrong patients on a
// coordinator and index past the pinned view locally.
func (e *Engine) pinCohort(b *store.Bitset) (*topo, error) {
	t := e.topoNow()
	if b.Len() != t.n {
		return nil, fmt.Errorf("engine: bitset covers %d patients, population has %d (re-run the query if an append landed since)", b.Len(), t.n)
	}
	return t, nil
}

// fanCohort is the fan-out every cohort operation shares — ID listing,
// history fetch, every analyzer kind — on eachGroup's loop: each backend
// holding a member of the cohort b selects is handed its slice of b in
// shard-local ordinal space, a shard server all of its shards' slices in
// one call, under the engine's default budget; backends without a member
// are never listed. The errors are judged under policy exactly as evalAll's
// are. parts[i] is backend i's answer — the zero T where the backend was
// not asked or was degraded away.
func fanCohort[T any](ctx context.Context, e *Engine, t *topo, policy Policy, b *store.Bitset,
	remote func(ctx context.Context, c *remoteConn, metas []ShardMeta, slices []*store.Bitset) ([]T, error),
	single func(ctx context.Context, bk ShardBackend, slice *store.Bitset) (T, error)) ([]T, QueryStatus, error) {
	ctx, cancel := e.opCtx(ctx)
	defer cancel()
	parts := make([]T, len(t.backends))
	want := make([]bool, len(t.backends))
	for i, bk := range t.backends {
		m := bk.Meta()
		want[i] = b.AnyInRange(m.Offset, m.Offset+m.Patients)
	}
	slice := func(i int) *store.Bitset {
		m := t.backends[i].Meta()
		return b.SliceRange(m.Offset, m.Offset+m.Patients)
	}
	errs := e.eachGroup(ctx, t, want,
		func(ctx context.Context, c *remoteConn, members []int) []error {
			slices := make([]*store.Bitset, len(members))
			for k, i := range members {
				slices[k] = slice(i)
			}
			got, err := remote(ctx, c, t.metasOf(members), slices)
			if err == nil {
				for k, i := range members {
					parts[i] = got[k]
				}
			}
			return repeatErr(err, len(members))
		},
		func(ctx context.Context, i int, bk ShardBackend) error {
			part, err := single(ctx, bk, slice(i))
			if err == nil {
				parts[i] = part
			}
			return err
		})
	missing, err := e.judge(ctx, t, policy, errs)
	if err != nil {
		return nil, QueryStatus{}, err
	}
	return parts, e.statusFromMissing(t, missing), nil
}

// eachGroup runs one operation over the backends marked in want (nil =
// all of them), every server group at once. A remote group is one remote
// call covering its wanted members — one RPC, whose per-member errors come
// back in members order — and any other backend one single call, holding a
// worker slot while it runs: the semaphore bounds in-process work, not
// waiting on a server that bounds its own. Every backend's evaluation,
// wanted or not, lands in the /stats counters — uniformly, whatever the
// transport, the members of a group sharing its wall time — and the
// per-backend errors are returned for the caller's policy to judge.
func (e *Engine) eachGroup(ctx context.Context, t *topo, want []bool,
	remote func(ctx context.Context, c *remoteConn, members []int) []error,
	single func(ctx context.Context, i int, b ShardBackend) error) []error {
	errs := make([]error, len(t.backends))
	sem := make(chan struct{}, e.workers)
	run := func(g *group, members []int) {
		t0 := time.Now()
		if g.conn != nil {
			for k, err := range remote(ctx, g.conn, members) {
				errs[members[k]] = err
			}
		} else {
			sem <- struct{}{}
			t0 = time.Now()
			errs[members[0]] = single(ctx, members[0], t.backends[members[0]])
			<-sem
		}
		g.roundTrips.Add(1)
		for _, i := range members {
			t.metrics[i].add(t0, errs[i])
		}
	}
	var wg sync.WaitGroup
	for gi, g := range t.groups {
		members := g.members
		if want != nil {
			members = nil
			for _, i := range g.members {
				if want[i] {
					members = append(members, i)
				} else {
					t.metrics[i].add(time.Now(), nil)
				}
			}
		}
		if len(members) == 0 {
			continue
		}
		if gi == len(t.groups)-1 {
			run(g, members) // the last group needs no goroutine of its own
			break
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(g, members)
		}()
	}
	wg.Wait()
	return errs
}

func repeatErr(err error, n int) []error {
	errs := make([]error, n)
	for k := range errs {
		errs[k] = err
	}
	return errs
}
