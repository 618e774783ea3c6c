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
	// Shards is ignored: New and NewShardServer build one local backend
	// over the whole store, and NewFromBackends takes its topology from the
	// backends. It stays for the benchmark module, which still sets it.
	Shards int
	// Workers bounds the goroutines one in-process scan or analysis runs
	// on (spread), and the local backends a coordinator calls at once.
	// Defaults to GOMAXPROCS.
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
	return Options{Workers: runtime.GOMAXPROCS(0), CacheSize: 128}
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
	// analysisMemoSize caps the analysis memo (analyze.go): complete
	// answers by kind, parameters and cohort. A session characterises a
	// handful of cohorts, each a few kinds.
	analysisMemoSize = 32
	// workspaceSize caps the materialized cohorts held in memory; the
	// least recently saved or read is evicted first (loadgen-style
	// workloads mint unique names forever, and an unbounded map of
	// 1M-patient bitsets is a leak, not a cache).
	workspaceSize = 1024
	// plansSize caps the plan memo: optimized plans by expression.
	plansSize = 256
)

// topo is the engine's execution topology pinned to one store generation:
// the view, backends and statistics every evaluation of that generation
// runs against (a local engine's one backend is a LocalBackend over the
// pinned view). It is immutable once published; when the store generation
// advances, topoNow builds a fresh topo on the side and swaps it in, so
// one query always runs — start to finish — against a single consistent
// generation while appends keep landing.
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
// Built with New, the engine is one in-process view over one global store:
// index leaves — a scan's candidate bound among them (Compile lowers it to
// plan nodes) — are answered straight from the pinned postings, and scans
// and analyses walk the pinned frame in blocks of rows spread over at most
// Workers goroutines (spread). Built with NewFromBackends, the engine is a
// coordinator over arbitrary (typically remote) backends: it plans from
// the backends' merged statistics, pushes whole plans down to every shard
// in one round, and merges the shard-local results in fixed shard order.
//
// A local engine follows its store's live-ingest generation: every
// operation pins the current topology first, and everything derived from
// store contents — result cache, plan memo, analysis memo, cohort
// workspace — is an epochLRU keyed under that generation, discarded on
// advance rather than ever answering for a population it no longer
// describes.
type Engine struct {
	st *store.Store // nil for a coordinator over remote backends

	topo   atomic.Pointer[topo]
	topoMu sync.Mutex // serializes topology rebuilds on generation advance

	workers int
	policy  Policy
	timeout time.Duration // default per-operation budget; 0 = unbounded
	// cache holds complete results by canonical sub-plan key; nil when
	// Options.CacheSize is 0.
	cache *epochLRU[string, *store.Bitset]
	// plans memoizes optimized plans by canonical expression key.
	plans *epochLRU[string, Plan]
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
		policy:  opts.Policy,
		timeout: opts.QueryTimeout,
		workers: normalizeWorkers(opts.Workers),
		plans:   newEpochLRU[string, Plan](plansSize),
		ws:      newEpochLRU[string, *cohortEntry](workspaceSize),
	}
	if opts.CacheSize > 0 {
		e.cache = newEpochLRU[string, *store.Bitset](opts.CacheSize)
		e.analyses = newEpochLRU[analysisKey, analysisEntry](analysisMemoSize)
	}
	return e
}

// New builds an engine over an already-indexed global store: one local
// backend over the store's pinned revision, whose scans and analyses
// spread over at most Workers goroutines. Options.Shards is not read.
func New(st *store.Store, opts Options) *Engine {
	e := newEngine(opts)
	e.st = st
	e.topo.Store(buildTopo(st.Pin()))
	return e
}

// buildTopo is a local engine's topology over one pinned store revision.
// Its backend's metrics start fresh with each topology.
func buildTopo(pin *store.View) *topo {
	backends := []ShardBackend{NewLocalBackend(pin, 0)}
	t := &topo{
		gen:      pin.Generation(),
		n:        pin.Len(),
		entries:  pin.Entries(),
		stats:    pin.Stats(),
		view:     pin,
		backends: backends,
		metrics:  make([]shardMetric, 1),
	}
	t.groups, t.groupOf = groupBackends(backends)
	return t
}

// local records one in-process scan or map step of a local engine against
// its one backend, as eachGroup records a call.
func (t *topo) local(t0 time.Time, err error) {
	t.groups[0].roundTrips.Add(1)
	t.metrics[0].add(t0, err)
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
		t = buildTopo(e.st.Pin())
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

// ResetCache empties the result cache (and with it every scan's cached
// candidate bound), the analysis memo and the plan memo (benchmarks use
// this to measure cold executions, planning included).
func (e *Engine) ResetCache() {
	if e.cache != nil {
		e.cache.reset()
		e.analyses.reset()
	}
	e.plans.reset()
}

// ShardStat reports one backend's cumulative evaluation load since the
// current topology was built: every plan fragment the executor fanned out
// to the backend, timed uniformly at the call site, whatever the
// transport. A locally built engine has one backend, which counts every
// scan and every analysis it runs; its index leaves are answered from the
// pinned postings and do not appear here. Counters restart when an append
// advances the generation (the topology is rebuilt).
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

// plan returns the optimized form of p, memoized by canonical expression
// key within the topology's generation. When an append advances the store
// generation the memo drops every plan: a plan chosen for a previous
// population never answers for the new one.
func (e *Engine) plan(t *topo, p Plan) Plan {
	key := p.Key()
	if op, ok := e.plans.get(t.gen, key); ok {
		return op
	}
	op := OptimizeWithStats(p, t.stats)
	e.plans.put(t.gen, key, op)
	return op
}

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
// evaluation, threaded down to every backend call and, locally, checked
// before every block of rows a scan walks (spread). Under PolicyDegraded
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
	if err := ctx.Err(); err != nil {
		return nil, QueryStatus{}, err // before any leaf, cached or not, is evaluated
	}
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
// under PolicyStrict — their errors fail the evaluation instead). A local
// engine walks the plan itself (localTree). A coordinator distributes the
// whole plan — every expression is per-history — in one fan-out round,
// one call per server, each shard evaluating (and locally re-optimizing)
// it over its slice, merged in fixed shard order. Either way only complete
// results land in the result cache: a degraded answer would poison later
// complete executions. The returned bitset is owned by the caller.
func (e *Engine) eval(ctx context.Context, t *topo, p Plan) (*store.Bitset, []int, error) {
	if t.view != nil {
		b, err := e.localTree(ctx, t).eval(p, nil)
		return b, nil, err
	}
	switch p.(type) {
	case All:
		return t.all(), nil, nil
	case None:
		return t.empty(), nil, nil
	}
	var key string
	if e.cache != nil {
		key = p.Key()
		if b, ok := e.cache.get(t.gen, key); ok {
			return b.Clone(), nil, nil
		}
	}
	out, missing, err := e.evalAll(ctx, t, e.policy, p, nil)
	if err == nil && len(missing) == 0 && e.cache != nil {
		e.cache.put(t.gen, key, out.Clone())
	}
	return out, missing, err
}

// localTree is a local engine's evaluator over t: its scans walk the
// pinned view on at most Workers goroutines (scanView), each counted
// against the one backend, and its results are shared through the
// engine's result cache.
func (e *Engine) localTree(ctx context.Context, t *topo) tree {
	return tree{view: t.view, cache: e.cache, gen: t.gen,
		scan: func(run []Scan, mask *store.Bitset) (*store.Bitset, error) {
			t0 := time.Now()
			out, err := scanView(ctx, t.view, run, mask, e.workers)
			t.local(t0, err)
			return out, err
		}}
}

// tree is the one plan evaluator: a local engine, a shard server and a
// LocalBackend all walk plans with it, over their own view and scan.
type tree struct {
	view *store.View
	scan func(run []Scan, mask *store.Bitset) (*store.Bitset, error) // one pass for the run's conjunction
	// cache, when set, holds complete results by canonical sub-plan key
	// under generation gen.
	cache *epochLRU[string, *store.Bitset]
	gen   uint64
}

// eval returns p's matches within mask (nil = every row) as a new bitset.
// An index leaf under a mask, and a scan-free child of And or Or, is
// answered whole and then intersected (within); any other node walks
// under the mask, so its scans skip non-candidates. Only unmasked results
// are cached (masked ones are mask-specific), but a cached result for any
// node, leaf or boolean subtree, answers first.
func (r tree) eval(p Plan, mask *store.Bitset) (*store.Bitset, error) {
	switch p.(type) {
	case All:
		if mask != nil {
			return mask.Clone(), nil
		}
		return r.view.Empty().Not(), nil
	case None:
		return r.view.Empty(), nil
	case IndexScan:
		if mask != nil {
			return r.within(p, mask)
		}
	}
	key, b, ok := r.cached(p)
	if ok {
		if mask != nil {
			return b.Clone().And(mask), nil
		}
		return b.Clone(), nil
	}
	var out *store.Bitset
	var err error
	switch n := p.(type) {
	case IndexScan:
		out, err = evalIndex(r.view, n)
	case Scan:
		out, err = r.scan([]Scan{n}, mask)
	case Not:
		if out, err = r.eval(n.Child, mask); err == nil {
			if mask != nil {
				out = mask.Clone().AndNot(out)
			} else {
				out.Not()
			}
		}
	case And:
		// The optimizer put the scan-free children first and the scans in
		// rank order; the accumulator masks each next child, so a scan only
		// visits the candidates still alive, and an empty accumulator
		// skips the remaining children. A run of adjacent Scan children is
		// one pass (scanRun, scanView): each candidate row is read once.
		if out = mask; out != nil {
			out = out.Clone()
		} else {
			out = r.view.Empty().Not()
		}
		for cs := n.Children; len(cs) > 0 && err == nil && out.Count() > 0; {
			var run []Scan
			if run, cs = r.scanRun(cs, out); len(run) > 0 {
				out, err = r.scan(run, out)
			} else if len(cs) > 0 {
				out, err = r.within(cs[0], out)
				cs = cs[1:]
			}
		}
	case Or:
		// Children run largest-first; a scan-bearing child only visits the
		// candidates not already known to match, and the union stops by
		// absorption the moment it covers every candidate.
		out = r.view.Empty()
		target := r.view.Len()
		if mask != nil {
			target = mask.Count()
		}
		for _, c := range n.Children {
			if out.Count() >= target {
				break
			}
			m := mask
			if hasScan(c) {
				if mask != nil {
					m = mask.Clone().AndNot(out)
				} else {
					m = out.Clone().Not()
				}
			}
			var b *store.Bitset
			if b, err = r.within(c, m); err != nil {
				break
			}
			out.Or(b)
		}
	default:
		// Plan is an open interface; fail loudly rather than returning
		// (nil, nil) for a node type this evaluator does not know.
		return nil, fmt.Errorf("engine: unknown plan node %T", p)
	}
	if err != nil {
		return nil, err
	}
	if mask == nil && r.cache != nil {
		r.cache.put(r.gen, key, out.Clone())
	}
	return out, nil
}

// cached returns p's key ("" with no cache) and its cached result, read only.
func (r tree) cached(p Plan) (string, *store.Bitset, bool) {
	if r.cache == nil {
		return "", nil, false
	}
	key := p.Key()
	b, ok := r.cache.get(r.gen, key)
	return key, b, ok
}

// scanRun splits the Scan children leading cs off the rest. A scan the
// cache answers whole is intersected into acc instead of joining the run.
func (r tree) scanRun(cs []Plan, acc *store.Bitset) (run []Scan, rest []Plan) {
	for ; len(cs) > 0; cs = cs[1:] {
		s, ok := cs[0].(Scan)
		if !ok {
			break
		}
		if _, b, hit := r.cached(s); hit {
			acc.And(b)
		} else {
			run = append(run, s)
		}
	}
	return run, cs
}

// within returns c's matches within mask (nil = every row). A scan-free c
// is bitset algebra over postings: it is evaluated whole, which the cache
// can share, and then intersected. A scan-bearing c walks under the mask.
func (r tree) within(c Plan, mask *store.Bitset) (*store.Bitset, error) {
	if hasScan(c) {
		return r.eval(c, mask)
	}
	b, err := r.eval(c, nil)
	if err != nil || mask == nil {
		return b, err
	}
	return b.And(mask), nil
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

// spreadRows is the rows of one unit of an in-process scan or tally: a
// quarter container, so that a 168k population's eleven units balance on
// two goroutines where its three containers would not.
const spreadRows = 1 << 14

// spread runs units [0, n) of one in-process job — a scan's or a tally's
// blocks of rows, a shard server call's items — on at most workers
// goroutines, the calling one among them. Each goroutine takes the next
// unit off one atomic counter until none is left or ctx is done, so a fast
// goroutine steals what a slow one has not reached. start runs on a
// goroutine before its first unit, with w < min(workers, n) its index, and
// returns what it runs each unit with: per-goroutine state (a compiled
// matcher, whose code memo is not goroutine-safe, or a partial) lives in
// that closure. spread returns when every goroutine has, with ctx's error
// when a unit was left unrun.
func spread(ctx context.Context, workers, n int, start func(w int) func(unit int)) error {
	var next atomic.Int64
	run := func(w int) {
		var do func(int)
		for ctx.Err() == nil {
			k := int(next.Add(1)) - 1
			if k >= n {
				return
			}
			if do == nil {
				do = start(w)
			}
			do(k)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(w)
		}()
	}
	run(0)
	wg.Wait()
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}

func repeatErr(err error, n int) []error {
	errs := make([]error, n)
	for k := range errs {
		errs[k] = err
	}
	return errs
}
