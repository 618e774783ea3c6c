package engine

// The cohort workspace: named query results materialized as bitsets the
// refinement planner can seed later executions from — the engine half of
// the paper's iterate-on-a-cohort workflow. A materialized cohort is
// keyed by name within a store generation; like the result cache and the
// plan memo, the workspace is an epochLRU, so an append invalidates every
// saved cohort at once and a stale cohort can never seed a plan over a
// population it no longer describes.
//
// Refine is where the O(delta) win lives: when a new expression is
// parent ∧ delta (or parent ∨ delta, parent ∧ ¬delta — Not is just
// another conjunct), only the delta is executed, masked by the cached
// parent bitset. On a local engine the evaluator walks the delta under the
// mask; on a coordinator the parent mask itself is pushed down —
// container-encoded and crc-checked — so each remote shard evaluates the
// delta over its candidates and ships back one shard-local bitset,
// instead of the coordinator pulling whole leaves over the wire.

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"pastas/internal/query"
	"pastas/internal/store"
)

// Refinement modes, reported in Refinement.Mode and explain output.
const (
	// RefineExact: the expression matches a saved cohort exactly (or a
	// saved combination covers every conjunct/disjunct); the answer is the
	// cached bitset, no evaluation at all.
	RefineExact = "exact"
	// RefineNarrow: the expression is seed ∧ delta; only the delta runs,
	// masked by the seed.
	RefineNarrow = "narrow"
	// RefineWiden: the expression is seed ∨ delta; the delta runs only
	// over patients outside the seed.
	RefineWiden = "widen"
	// RefineScratch: no saved cohort seeds the expression; full execution.
	RefineScratch = "scratch"
)

// cohortEntry is one materialized cohort, immutable once stored: bits is
// never written again, readers clone before any set algebra.
type cohortEntry struct {
	name string
	expr query.Expr
	// key is the optimized plan's canonical key.
	key string
	// op/subKeys describe the plan's top-level shape for subset matching:
	// op is "and" or "or" with subKeys the sorted child keys, or "leaf".
	op      string
	subKeys []string
	count   int
	bits    *store.Bitset
}

// cohortsAt returns the workspace's cohorts live at gen, sorted by name
// (deterministic listing, export and seed selection).
func (e *Engine) cohortsAt(gen uint64) []*cohortEntry {
	out := e.ws.values(gen)
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// CohortInfo describes one materialized cohort.
type CohortInfo struct {
	Name string `json:"name"`
	// Expr is the saved expression's rendering.
	Expr string `json:"expr"`
	// Generation is the store generation the cohort was materialized at;
	// an append past it invalidates the cohort.
	Generation uint64 `json:"generation"`
	Count      int    `json:"count"`
}

// Refinement reports how a Refine call was planned — the provenance that
// makes delta-execution observable.
type Refinement struct {
	// Mode is one of RefineExact, RefineNarrow, RefineWiden,
	// RefineScratch.
	Mode string `json:"mode"`
	// Seed names the materialized cohort that seeded the plan (empty for
	// scratch).
	Seed string `json:"seed,omitempty"`
	// SeedCount is the seed cohort's cardinality — the candidate set the
	// delta was bounded to.
	SeedCount int `json:"seed_count,omitempty"`
	// Delta is the canonical key of the plan fragment that actually ran.
	Delta string `json:"delta,omitempty"`
	// Pushed reports whether the seed mask was shipped to remote shards
	// (true only on a coordinator; a local engine masks in-process).
	Pushed bool `json:"pushed"`
}

func (r Refinement) String() string {
	switch r.Mode {
	case RefineExact:
		return fmt.Sprintf("exact: answered from cohort %q (%d patients), nothing executed", r.Seed, r.SeedCount)
	case RefineNarrow, RefineWiden:
		where := "masked locally"
		if r.Pushed {
			where = "mask pushed down to remote shards"
		}
		return fmt.Sprintf("%s: cohort %q (%d patients) seeded the scan, delta %s, %s", r.Mode, r.Seed, r.SeedCount, r.Delta, where)
	default:
		return "scratch: no materialized cohort seeds this expression"
	}
}

// ErrInvalidName is returned (wrapped) when a cohort name violates the
// naming contract — callers use it to classify the failure as the
// caller's fault (an HTTP 400, not a 500).
var ErrInvalidName = fmt.Errorf("invalid cohort name")

// validateCohortName enforces the naming contract shared by every
// surface (engine, snapshot segment, RPC, HTTP): non-empty, at most 200
// bytes, no control characters.
func validateCohortName(name string) error {
	if name == "" {
		return fmt.Errorf("engine: %w: must not be empty", ErrInvalidName)
	}
	if len(name) > 200 {
		return fmt.Errorf("engine: %w: longer than 200 bytes", ErrInvalidName)
	}
	if strings.ContainsFunc(name, func(r rune) bool { return r < 0x20 || r == 0x7f }) {
		return fmt.Errorf("engine: %w: contains control characters", ErrInvalidName)
	}
	return nil
}

// Materialize executes an expression from scratch and saves the result
// as a named cohort at the current store generation. Materialization is
// complete-only whatever the engine's policy: a degraded answer is an
// error, never a saved cohort (it would silently poison every later
// refinement).
func (e *Engine) Materialize(ctx context.Context, name string, q query.Expr) (CohortInfo, error) {
	if err := validateCohortName(name); err != nil {
		return CohortInfo{}, err
	}
	p, err := Compile(q)
	if err != nil {
		return CohortInfo{}, err
	}
	t := e.topoNow()
	p = e.plan(t, p)
	ctx, cancel := e.opCtx(ctx)
	defer cancel()
	bits, missing, err := e.eval(ctx, t, p)
	if err != nil {
		return CohortInfo{}, fmt.Errorf("engine: materialize %q: %w", name, err)
	}
	if len(missing) > 0 {
		return CohortInfo{}, fmt.Errorf("engine: materialize %q: %w: %s (a degraded answer is never materialized)",
			name, ErrUnavailable, e.statusFromMissing(t, missing))
	}
	return e.saveCohort(t, name, q, p, bits), nil
}

// Refine executes an expression seeded by the materialized cohorts and
// saves the result under the given name. When the expression is
// recognized as seed ∧ delta (or seed ∨ delta), only the delta runs —
// masked by the seed bitset locally, or with the mask pushed down to
// remote shards on a coordinator. An unrecognized expression falls back
// to from-scratch materialization; either way the answer is exactly what
// Execute would return, just cheaper.
func (e *Engine) Refine(ctx context.Context, name string, q query.Expr) (CohortInfo, Refinement, error) {
	if err := validateCohortName(name); err != nil {
		return CohortInfo{}, Refinement{}, err
	}
	p, err := Compile(q)
	if err != nil {
		return CohortInfo{}, Refinement{}, err
	}
	t := e.topoNow()
	p = e.plan(t, p)
	ctx, cancel := e.opCtx(ctx)
	defer cancel()

	seed, remaining, mode := e.refineSeed(t, p)
	if seed == nil {
		bits, missing, err := e.eval(ctx, t, p)
		if err != nil {
			return CohortInfo{}, Refinement{}, fmt.Errorf("engine: refine %q: %w", name, err)
		}
		if len(missing) > 0 {
			return CohortInfo{}, Refinement{}, fmt.Errorf("engine: refine %q: %w: %s (a degraded answer is never materialized)",
				name, ErrUnavailable, e.statusFromMissing(t, missing))
		}
		return e.saveCohort(t, name, q, p, bits), Refinement{Mode: RefineScratch}, nil
	}

	ref := Refinement{Mode: mode, Seed: seed.name, SeedCount: seed.count}
	var bits *store.Bitset
	switch mode {
	case RefineExact:
		bits = seed.bits.Clone()
	case RefineNarrow:
		delta := andOf(remaining)
		ref.Delta = delta.Key()
		var pushed bool
		bits, pushed, err = e.evalMaskedAll(ctx, t, delta, seed.bits)
		ref.Pushed = pushed
	case RefineWiden:
		delta := orOf(remaining)
		ref.Delta = delta.Key()
		outside := seed.bits.Clone().Not()
		var extra *store.Bitset
		var pushed bool
		extra, pushed, err = e.evalMaskedAll(ctx, t, delta, outside)
		ref.Pushed = pushed
		if err == nil {
			bits = seed.bits.Clone()
			bits.Or(extra)
		}
	}
	if err != nil {
		return CohortInfo{}, Refinement{}, fmt.Errorf("engine: refine %q: %w", name, err)
	}
	// The refined result is the complete answer for p; share it with the
	// result cache like any full execution.
	if e.cache != nil {
		e.cache.put(t.gen, p.Key(), bits.Clone())
	}
	return e.saveCohort(t, name, q, p, bits), ref, nil
}

// saveCohort stores a materialized result in the workspace and returns
// its descriptor. The workspace takes ownership of bits (immutable from
// here on).
func (e *Engine) saveCohort(t *topo, name string, q query.Expr, p Plan, bits *store.Bitset) CohortInfo {
	en := &cohortEntry{
		name:  name,
		expr:  q,
		count: bits.Count(),
		bits:  bits,
		op:    "leaf",
		key:   p.Key(),
	}
	switch n := p.(type) {
	case And:
		en.op = "and"
		en.subKeys = childKeys(n.Children)
	case Or:
		en.op = "or"
		en.subKeys = childKeys(n.Children)
	}
	e.ws.put(t.gen, name, en) // a save that raced an append is already stale: not stored
	return CohortInfo{Name: name, Expr: q.String(), Generation: t.gen, Count: en.count}
}

// Cohorts lists the materialized cohorts valid at the current store
// generation, sorted by name. Cohorts saved at an older generation have
// been invalidated by an append and do not appear.
func (e *Engine) Cohorts() []CohortInfo {
	t := e.topoNow()
	entries := e.cohortsAt(t.gen)
	out := make([]CohortInfo, len(entries))
	for i, en := range entries {
		out[i] = CohortInfo{Name: en.name, Expr: en.expr.String(), Generation: t.gen, Count: en.count}
	}
	return out
}

// ErrNoCohort is returned (wrapped) when a named cohort does not exist
// at the current generation — either it was never saved, or an append
// invalidated it.
var ErrNoCohort = fmt.Errorf("no such cohort (never saved, or invalidated by an append)")

// CohortBits returns a caller-owned copy of a materialized cohort's
// bitset, valid at the current store generation.
func (e *Engine) CohortBits(name string) (*store.Bitset, CohortInfo, error) {
	t := e.topoNow()
	en, ok := e.ws.get(t.gen, name)
	if !ok {
		return nil, CohortInfo{}, fmt.Errorf("engine: cohort %q: %w", name, ErrNoCohort)
	}
	return en.bits.Clone(), CohortInfo{Name: en.name, Expr: en.expr.String(), Generation: t.gen, Count: en.count}, nil
}

// DropCohort removes a materialized cohort valid at the current store
// generation; reports whether it existed.
func (e *Engine) DropCohort(name string) bool {
	return e.ws.remove(e.topoNow().gen, name)
}

// CohortExport is one cohort handed to the persistence layer: the saved
// expression plus the materialized bitset.
type CohortExport struct {
	Name string
	Expr query.Expr
	Bits *store.Bitset
}

// ExportCohorts returns the cohorts valid at the current generation for
// snapshot persistence, sorted by name. Bitsets are caller-owned copies.
func (e *Engine) ExportCohorts() []CohortExport {
	entries := e.cohortsAt(e.topoNow().gen)
	out := make([]CohortExport, len(entries))
	for i, en := range entries {
		out[i] = CohortExport{Name: en.name, Expr: en.expr, Bits: en.bits.Clone()}
	}
	return out
}

// AdoptCohort installs an externally materialized cohort — the snapshot
// load path — binding it to the current store generation. The bitset
// must cover the population exactly; the caller is trusted to pass the
// bits the expression evaluates to (snapshots are crc-validated on
// decode).
func (e *Engine) AdoptCohort(name string, q query.Expr, bits *store.Bitset) error {
	if err := validateCohortName(name); err != nil {
		return err
	}
	t := e.topoNow()
	if bits.Len() != t.n {
		return fmt.Errorf("engine: adopt cohort %q: bitset covers %d patients, population has %d", name, bits.Len(), t.n)
	}
	p, err := Compile(q)
	if err != nil {
		return fmt.Errorf("engine: adopt cohort %q: %w", name, err)
	}
	e.saveCohort(t, name, q, e.plan(t, p), bits.Clone())
	return nil
}

// refineSeed searches the workspace for the best materialized cohort to
// seed the plan: an exact key match anywhere in the plan's shape, or —
// for a top-level And/Or — a cohort whose key covers a subset of the
// children (a saved conjunction seeds any wider conjunction, by the
// canonical order-insensitive keys). Returns the seed, the children left
// to execute, and the refinement mode; (nil, nil, "") when nothing
// seeds.
func (e *Engine) refineSeed(t *topo, p Plan) (*cohortEntry, []Plan, string) {
	entries := e.cohortsAt(t.gen)
	if len(entries) == 0 {
		return nil, nil, ""
	}
	pKey := p.Key()
	for _, en := range entries {
		if en.key == pKey {
			return en, nil, RefineExact
		}
	}
	switch n := p.(type) {
	case And:
		return bestCover(entries, "and", n.Children, false)
	case Or:
		return bestCover(entries, "or", n.Children, true)
	}
	return nil, nil, ""
}

// bestCover picks the seed that minimizes delta work for an And/Or of
// children: for And the smallest cohort (fewest candidates to rescan),
// for Or the largest (fewest patients left outside the mask). Ties break
// on children covered, then name, so selection is deterministic.
func bestCover(entries []*cohortEntry, op string, children []Plan, preferLargest bool) (*cohortEntry, []Plan, string) {
	ordered := make([]string, len(children))
	for i, c := range children {
		ordered[i] = c.Key()
	}
	var best *cohortEntry
	var bestUsed []bool
	bestCovered := 0
	for _, en := range entries {
		var need []string
		if containsKey(ordered, en.key) {
			need = []string{en.key}
		} else if en.op == op && len(en.subKeys) > 0 {
			need = en.subKeys
		} else {
			continue
		}
		used := matchMultiset(need, ordered)
		if used == nil {
			continue
		}
		covered := len(need)
		if best == nil || betterSeed(en, covered, best, bestCovered, preferLargest) {
			best, bestUsed, bestCovered = en, used, covered
		}
	}
	if best == nil {
		return nil, nil, ""
	}
	var remaining []Plan
	for i, c := range children {
		if !bestUsed[i] {
			remaining = append(remaining, c)
		}
	}
	if len(remaining) == 0 {
		return best, nil, RefineExact
	}
	if preferLargest {
		return best, remaining, RefineWiden
	}
	return best, remaining, RefineNarrow
}

func betterSeed(en *cohortEntry, covered int, best *cohortEntry, bestCovered int, preferLargest bool) bool {
	if en.count != best.count {
		if preferLargest {
			return en.count > best.count
		}
		return en.count < best.count
	}
	if covered != bestCovered {
		return covered > bestCovered
	}
	return en.name < best.name
}

func containsKey(keys []string, k string) bool {
	for _, ck := range keys {
		if ck == k {
			return true
		}
	}
	return false
}

// matchMultiset marks one child per needed key (multiset semantics:
// duplicate keys consume distinct children); nil when any key is
// unmatched.
func matchMultiset(need, childKeys []string) []bool {
	used := make([]bool, len(childKeys))
	for _, k := range need {
		found := false
		for i, ck := range childKeys {
			if !used[i] && ck == k {
				used[i] = true
				found = true
				break
			}
		}
		if !found {
			return nil
		}
	}
	return used
}

func childKeys(children []Plan) []string {
	out := make([]string, len(children))
	for i, c := range children {
		out[i] = c.Key()
	}
	sort.Strings(out)
	return out
}

func andOf(children []Plan) Plan {
	if len(children) == 1 {
		return children[0]
	}
	return And{Children: children}
}

func orOf(children []Plan) Plan {
	if len(children) == 1 {
		return children[0]
	}
	return Or{Children: children}
}

// evalMaskedAll computes eval(p) ∩ mask over the whole population. A
// local engine walks the plan under the mask; a coordinator fans the
// plan out with each shard's slice of the mask — the masked push-down
// that keeps a refinement from pulling whole index leaves back over the
// wire, one call per server. Backends whose mask slice is empty are never
// contacted (their range contributes nothing). The fan-out is strict
// whatever the engine's policy: callers materialize the result, and a
// degraded cohort must never be saved. Reports whether the mask was pushed
// to backends.
func (e *Engine) evalMaskedAll(ctx context.Context, t *topo, p Plan, mask *store.Bitset) (*store.Bitset, bool, error) {
	if mask.Count() == 0 {
		return t.empty(), false, nil
	}
	if t.view != nil {
		b, err := e.localTree(ctx, t).eval(p, mask)
		return b, false, err
	}
	out, _, err := e.evalAll(ctx, t, PolicyStrict, p, mask)
	return out, true, err
}
