package main

// The traced pass. Nothing inside the program may change, so every layer
// is measured from outside: the benchmark replays an operation at
// successively inner exported entry points — webapp handler →
// core.Workbench method → engine → the per-shard backend calls — and
// records one span per rung. A rung's self time is its duration minus the
// next rung's. End-to-end metrics never come from this pass.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"pastas/internal/engine"
	"pastas/internal/store"
)

// perLayer lists the metrics of single layers, named after the repo's
// modules. Every workload prints every one; a layer the workload does not
// reach reads 0 (README.md says which those are).
var perLayer = []metricDef{
	// Step classes only some workloads have (so they cannot be bounded
	// end-to-end metrics, which every workload must report).
	{"step.characterise_p50_ms", "ms"},
	{"step.analytics_p50_ms", "ms"},
	{"step.timeline_p50_ms", "ms"},
	{"ingest.append_patients_per_s", "1/s"},
	{"ingest.reopen_s", "s"},

	{"webapp.query_self_us", "us"},
	{"webapp.refine_self_us", "us"},
	{"webapp.timeline_self_us", "us"},
	{"query.parse_compile_us", "us"},
	{"render.timeline_us", "us"},
	{"render.cohortview_us", "us"},
	{"core.query_self_us", "us"},
	{"core.refine_self_us", "us"},
	{"core.append_self_us", "us"},
	{"integrate.consume_us", "us"},

	{"engine.compile_optimize_us", "us"},
	{"engine.result_cache_hit_ratio", "ratio"},
	{"engine.execute_cold_us", "us"},
	{"engine.execute_warm_us", "us"},
	{"engine.coordinator_self_us", "us"},
	{"engine.backend_calls_per_op", "count"},
	{"engine.refine_narrow_us", "us"},
	{"engine.refine_widen_us", "us"},
	{"engine.refine_exclude_us", "us"},
	{"engine.refine_scratch_us", "us"},
	{"engine.refine_seeded_ratio", "ratio"},
	{"engine.profile_us", "us"},
	{"engine.indicators_us", "us"},
	{"engine.analyze_mine_us", "us"},
	{"engine.analyze_episodes_us", "us"},
	{"engine.history_fetch_us", "us"},
	{"engine.local_evalplan_us", "us"},
	{"engine.local_evalplan_masked_us", "us"},
	{"engine.remote_evalplan_us", "us"},
	{"engine.remote_probe_us", "us"},
	{"engine.remote_overhead_us", "us"},
	{"engine.remote_bytes_per_op", "bytes"},
	{"engine.wire_plan_codec_us", "us"},
	{"engine.wire_plan_bytes", "bytes"},
	{"engine.wire_mask_codec_us", "us"},
	{"engine.wire_mask_bytes", "bytes"},

	{"store.histcodec_1_us", "us"},
	{"store.histcodec_50_us", "us"},
	{"store.bitset_and_us", "us"},
	{"store.bitset_or_us", "us"},
	{"store.bitset_andnot_us", "us"},
	{"store.postings_lookup_us", "us"},
	{"store.append_us", "us"},
	{"store.compact_us", "us"},
	{"store.compactions_count", "count"},
	{"store.delta_entries_peak", "count"},
	{"store.snapshot_save_s", "s"},
	{"store.snapshot_load_s", "s"},
	{"store.openshards_s", "s"},
	{"store.snapshot_bytes_per_entry", "bytes"},
	{"synth.generate_s", "s"},
	{"integrate.build_s", "s"},
	{"store.new_s", "s"},

	{"trace.query_top_rung_delta_ratio", "ratio"},
	{"trace.refine_top_rung_delta_ratio", "ratio"},
	{"trace.timeline_top_rung_delta_ratio", "ratio"},
	{"trace.nondeterministic_counts", "count"},
}

// traceSessions is how many sessions (or scan iterations) the fixed-count
// passes of the traced run replay; ladderOps how many operations of each
// class the ladder samples from them.
const (
	traceSessions = 60
	ladderOps     = 32
)

// tracer keeps the spans in memory; they are written out when the run
// ends, if asked for.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(name string, op, parent int, start time.Time, d time.Duration) int {
	s := start.Sub(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	return len(t.spans) - 1
}

// timed runs fn as one span and returns the span's index.
func (t *tracer) timed(name string, op, parent int, fn func() error) (int, error) {
	t0 := time.Now()
	err := fn()
	return t.add(name, op, parent, t0, time.Since(t0)), err
}

// alias records span i again under another name, as a root span: one
// measurement reported under two groupings.
func (t *tracer) alias(name string, i int) {
	s := t.spans[i]
	s.Name, s.Parent = name, -1
	t.spans = append(t.spans, s)
}

func (t *tracer) us(i int) float64 { return float64(t.spans[i].End-t.spans[i].Start) / 1e3 }

// medianUS is the median duration, in microseconds, of the spans with the
// given name.
func (t *tracer) medianUS(name string) float64 {
	var v []float64
	for i, s := range t.spans {
		if s.Name == name {
			v = append(v, t.us(i))
		}
	}
	return median(v)
}

// medianSelfUS is the median self time, in microseconds, of the spans
// with the given name.
func (t *tracer) medianSelfUS(name string) float64 {
	self := selfTimes(t.spans)
	var v []float64
	for i, s := range t.spans {
		if s.Name == name {
			v = append(v, float64(self[i])/1e3)
		}
	}
	return median(v)
}

// write saves the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// counts are the exported counters read before and after a fixed-count
// pass. With one client they must repeat exactly for a seed.
type counts struct {
	CacheHits    uint64 `json:"cache_hits"`
	CacheMisses  uint64 `json:"cache_misses"`
	BackendCalls uint64 `json:"backend_calls"`
	WireBytes    int64  `json:"wire_bytes"`
	Ops          int    `json:"ops"`
	Refines      int    `json:"refines"`
	Seeded       int    `json:"seeded"`
	Digest       uint64 `json:"digest"`
}

func readCounts(eng *engine.Engine, cl *cluster) counts {
	cs := eng.CacheStats()
	c := counts{CacheHits: cs.Hits, CacheMisses: cs.Misses}
	for _, s := range eng.ShardStats() {
		c.BackendCalls += s.Queries
	}
	if cl != nil {
		c.WireBytes = cl.wire.Load()
	}
	return c
}

// since returns the counters accumulated after before was read, joined
// with what the pass's recorder and checker saw.
func (c counts) since(before counts, rec *recorder, chk *checker) counts {
	out := counts{
		CacheHits:    c.CacheHits - before.CacheHits,
		CacheMisses:  c.CacheMisses - before.CacheMisses,
		BackendCalls: c.BackendCalls - before.BackendCalls,
		WireBytes:    c.WireBytes - before.WireBytes,
		Ops:          rec.attempted,
		Digest:       chk.digest,
	}
	out.Refines, out.Seeded = countModes(rec.modes)
	return out
}

// countModes totals the refinements seen and those a saved cohort seeded
// (every mode but scratch).
func countModes(modes map[string]int) (refines, seeded int) {
	for mode, n := range modes {
		refines += n
		if mode != engine.RefineScratch {
			seeded += n
		}
	}
	return refines, seeded
}

// ratio is a ÷ b, or 0 when there is nothing to divide by (a metric must
// stay a number).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (c counts) hitRatio() float64 {
	return ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))
}

// compareCounts reports every counter that differs between a pass and its
// replay under the report's nondeterministic_counts, and returns how many
// differ. A difference is a finding about the program, not a wrong answer:
// it shows in trace.nondeterministic_counts and does not fail the run.
func compareCounts(r *run, what string, a, b counts) int {
	n := 0
	diff := func(name string, x, y any) {
		if x != y {
			n++
			found, _ := r.info["nondeterministic_counts"].([]string)
			r.info["nondeterministic_counts"] = append(found, fmt.Sprintf("%s: %s %v, then %v", what, name, x, y))
		}
	}
	diff("cache hits", a.CacheHits, b.CacheHits)
	diff("cache misses", a.CacheMisses, b.CacheMisses)
	diff("backend calls", a.BackendCalls, b.BackendCalls)
	diff("wire bytes", a.WireBytes, b.WireBytes)
	diff("ops", a.Ops, b.Ops)
	diff("seeded refinements", a.Seeded, b.Seeded)
	diff("answers digest", a.Digest, b.Digest)
	return n
}

// fanOut issues one call per backend with at most workers in flight — the
// engine's own fan-out shape — and returns the first error.
func fanOut(backends []engine.ShardBackend, workers int, fn func(b engine.ShardBackend) error) error {
	errs := make([]error, len(backends))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, b := range backends {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(b)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// localBackends carves the engine's eight-shard layout out of one pinned
// revision of a store, as engine.New does.
func localBackends(st *store.Store) []engine.ShardBackend {
	pin := st.Pin()
	n := pin.Len()
	chunk := (n + snapShards - 1) / snapShards
	var out []engine.ShardBackend
	for off := 0; off < n; off += chunk {
		out = append(out, engine.NewLocalBackend(pin.Sub(off, min(off+chunk, n)), len(out)))
	}
	return out
}

// maskSlices cuts a global mask into each backend's shard-local slice.
func maskSlices(backends []engine.ShardBackend, mask *store.Bitset) map[int]*store.Bitset {
	out := make(map[int]*store.Bitset, len(backends))
	for _, b := range backends {
		m := b.Meta()
		out[m.Shard] = mask.SliceRange(m.Offset, m.Offset+m.Patients)
	}
	return out
}

// evalAll is the backend rung: one EvalPlan per backend, each with its
// slice of the mask (nil = unmasked).
func evalAll(backends []engine.ShardBackend, workers int, p engine.Plan, masks map[int]*store.Bitset) error {
	ctx := context.Background()
	return fanOut(backends, workers, func(b engine.ShardBackend) error {
		var m *store.Bitset
		if masks != nil {
			m = masks[b.Meta().Shard]
		}
		_, err := b.EvalPlan(ctx, p, m)
		return err
	})
}

// timeUS runs fn n times and returns the median duration in microseconds.
func timeUS(n int, fn func() error) (float64, error) {
	v := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		v = append(v, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	return median(v), nil
}

// kernelsUS times the three container kernels on copies of a against b:
// the median of reps runs each, in microseconds.
func kernelsUS(a, b *store.Bitset, reps int) (and, or, andnot float64) {
	time1 := func(fn func(x *store.Bitset)) float64 {
		v := make([]float64, reps)
		for i := range v {
			x := a.Clone() // the kernels work in place; the copy is untimed
			t0 := time.Now()
			fn(x)
			v[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
		}
		return median(v)
	}
	return time1(func(x *store.Bitset) { x.And(b) }), time1(func(x *store.Bitset) { x.Or(b) }), time1(func(x *store.Bitset) { x.AndNot(b) })
}

// budgetRow is one line of the latency-budget table.
type budgetRow struct {
	Class  string  `json:"class"`
	Rung   string  `json:"rung"`
	ColdUS float64 `json:"cold_us"`
	WarmUS float64 `json:"warm_us"`
	// SelfUS is the median, over the sampled operations, of the cold rung
	// minus the rungs below it (the bottom rung's self time is its whole
	// duration).
	SelfUS float64 `json:"self_cold_us"`
}

// budget turns the ladder's spans into the table: per op class, each rung's
// cold and warm medians and its cold self time.
func budget(tr *tracer, classes map[string][]string) []budgetRow {
	var rows []budgetRow
	names := make([]string, 0, len(classes))
	for c := range classes {
		names = append(names, c)
	}
	sort.Strings(names)
	for _, class := range names {
		rungs := classes[class]
		for _, rung := range rungs {
			row := budgetRow{
				Class: class, Rung: rung,
				ColdUS: tr.medianUS(class + "/" + rung + "/cold"),
				WarmUS: tr.medianUS(class + "/" + rung + "/warm"),
			}
			row.SelfUS = tr.medianSelfUS(class + "/" + rung + "/cold")
			rows = append(rows, row)
		}
	}
	return rows
}

func budgetTable(workload string, rows []budgetRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  latency budget, %s (median µs; self = cold rung − the rungs below it, per operation)\n", workload)
	fmt.Fprintf(&b, "  %-10s %-12s %12s %12s %12s\n", "op", "rung", "cold", "warm", "self(cold)")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %-12s %12.1f %12.1f %12.1f\n", r.Class, r.Rung, r.ColdUS, r.WarmUS, r.SelfUS)
	}
	return b.String()
}

// topRungDelta is |traced − untraced| ÷ untraced for one op class's
// top-rung medians.
func topRungDelta(traced, untraced []float64) float64 {
	u := median(untraced)
	if u == 0 {
		return 0
	}
	d := median(traced) - u
	if d < 0 {
		d = -d
	}
	return d / u
}

// setupPhaseMetrics copies the set-up phase timings into the per-layer
// metrics that report them.
func setupPhaseMetrics(r *run) {
	for _, name := range []string{
		"synth.generate_s", "integrate.build_s", "store.new_s",
		"store.snapshot_save_s", "store.snapshot_load_s", "store.openshards_s",
	} {
		if v, ok := r.ph[name]; ok {
			if _, set := r.values[name]; !set {
				r.values[name] = v
			}
		}
	}
}
