package pastas_test

// The benchmark harness: one benchmark per paper figure and reported
// number, as indexed in DESIGN.md §4. Shared fixtures are built once per
// scale; the E1/E3 benchmarks run at the paper's full 168,000-patient
// scale (set -short to cap at 21,000).

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"pastas/internal/abstraction"
	"pastas/internal/align"
	"pastas/internal/cluster"
	"pastas/internal/cohort"
	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/graph"
	"pastas/internal/integrate"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/perception"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/seqalign"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/synth"
	"pastas/internal/temporal"
	"pastas/internal/terminology"
	"pastas/internal/webapp"
)

// --- fixtures ---------------------------------------------------------------

var (
	fixtures   = map[int]*core.Workbench{}
	fixturesMu sync.Mutex
)

// workbenchAt returns a cached workbench for a population size.
func workbenchAt(b *testing.B, n int) *core.Workbench {
	b.Helper()
	fixturesMu.Lock()
	defer fixturesMu.Unlock()
	if wb, ok := fixtures[n]; ok {
		return wb
	}
	wb, err := core.Synthesize(synth.DefaultConfig(n))
	if err != nil {
		b.Fatal(err)
	}
	fixtures[n] = wb
	return wb
}

// fullScale is the paper's population, capped under -short.
func fullScale() int {
	if testing.Short() {
		return 21000
	}
	return 168000
}

func studyCohort(b *testing.B, wb *core.Workbench) *cohort.Cohort {
	b.Helper()
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	c, err := cohort.FromExpr(wb.Store, "study", cohort.StudyCriteria(window))
	if err != nil {
		b.Fatal(err)
	}
	return c
}

// mustSession opens a session over a store-backed workbench.
func mustSession(b *testing.B, wb *core.Workbench) *core.Session {
	b.Helper()
	s, err := core.NewSession(wb)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// --- F1: workbench render (Fig. 1) -------------------------------------------

func BenchmarkF1_WorkbenchRender(b *testing.B) {
	for _, rows := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			wb := workbenchAt(b, 21000)
			col := cohort.All(wb.Store, "all").Sample(rows, 1).Collection()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				svg := render.Timeline(col, render.TimelineOptions{Legend: true})
				if len(svg) == 0 {
					b.Fatal("empty render")
				}
			}
		})
	}
}

// --- F2: NSEPter merge and layout (Fig. 2) -----------------------------------

func diabeticSeqs(b *testing.B, wb *core.Workbench, max int) [][]string {
	b.Helper()
	diab, err := cohort.FromExpr(wb.Store, "diab", query.Has{
		Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICPC2", "T90")}})
	if err != nil {
		b.Fatal(err)
	}
	var seqs [][]string
	for _, h := range diab.Sample(max, 2).Collection().Histories() {
		var seq []string
		for _, c := range h.CodeSequence(model.TypeDiagnosis) {
			if c.System == "ICPC2" {
				seq = append(seq, c.Value)
			}
		}
		if len(seq) >= 2 {
			seqs = append(seqs, seq)
		}
	}
	return seqs
}

func BenchmarkF2a_NSEPterMerge(b *testing.B) {
	wb := workbenchAt(b, 21000)
	seqs := diabeticSeqs(b, wb, 12)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", Depth: 2})
		if err != nil {
			b.Fatal(err)
		}
		_ = render.Graph(g, graph.Layered(g), render.GraphOptions{Labels: true})
	}
}

func BenchmarkF2b_FullGraphLayout(b *testing.B) {
	wb := workbenchAt(b, 21000)
	seqs := diabeticSeqs(b, wb, 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", Depth: 2})
		if err != nil {
			b.Fatal(err)
		}
		l := graph.Layered(g)
		if graph.Crossings(g, l) < 0 {
			b.Fatal("impossible")
		}
	}
}

// --- F3: visual search simulation (Fig. 3) -----------------------------------

func BenchmarkF3_VisualSearch(b *testing.B) {
	m := perception.DefaultModel()
	ns := []int{1, 5, 10, 20, 30, 50}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := m.Series(perception.Feature, ns, 200, 1)
		c := m.Series(perception.Conjunction, ns, 200, 1)
		if _, slope := perception.FitLine(c); slope < 10 {
			b.Fatal("conjunction slope collapsed")
		}
		_ = f
	}
}

// --- F4: query builder (Fig. 4), with the regex-cache ablation ----------------

func BenchmarkF4_QueryBuilder(b *testing.B) {
	wb := workbenchAt(b, 21000)
	spec := query.NewBuilder().HasCodeIn("ICPC2", `F.*|H.*`).MinContacts("gp", 2).Spec()
	data, err := spec.MarshalJSONSpec()
	if err != nil {
		b.Fatal(err)
	}
	b.Run("parse+compile+eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			back, err := query.ParseSpec(data)
			if err != nil {
				b.Fatal(err)
			}
			expr, err := back.Compile()
			if err != nil {
				b.Fatal(err)
			}
			bits, err := wb.Query(expr)
			if err != nil {
				b.Fatal(err)
			}
			if bits.Count() == 0 {
				b.Fatal("empty cohort")
			}
		}
	})
	// Ablation: what the compiled-pattern cache buys (DESIGN.md §5).
	b.Run("regex-cached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := terminology.CompileCodePattern(`F.*|H.*`); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("regex-uncached", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := terminology.CompileCodePatternUncached(`F.*|H.*`); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E1: the 168k → 13k selection ---------------------------------------------

func BenchmarkE1_CohortSelection168k(b *testing.B) {
	wb := workbenchAt(b, fullScale())
	b.ResetTimer()
	var got int
	for i := 0; i < b.N; i++ {
		got = studyCohort(b, wb).Count()
	}
	b.ReportMetric(float64(got), "selected")
	b.ReportMetric(100*float64(got)/float64(wb.Patients()), "selected_%")
}

// --- E2: recognition survey -----------------------------------------------------

func BenchmarkE2_RecognitionSurvey(b *testing.B) {
	wb := workbenchAt(b, fullScale())
	col := studyCohort(b, wb).Collection()
	b.ResetTimer()
	var res stats.SurveyResult
	for i := 0; i < b.N; i++ {
		res = stats.SimulateSurvey(col, stats.DefaultSurveyParams())
	}
	rec, notRem, wrong := res.Proportions()
	b.ReportMetric(100*rec, "recognized_%")
	b.ReportMetric(100*notRem, "not_remember_%")
	b.ReportMetric(100*wrong, "all_wrong_%")
}

// --- E3: large-cohort analysis, index vs scan ------------------------------------

func BenchmarkE3_LargeCohortAnalysis(b *testing.B) {
	wb := workbenchAt(b, fullScale())
	pattern := `T90|E11(\..*)?`
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bits, err := wb.Store.WithCodeRegex("", pattern)
			if err != nil {
				b.Fatal(err)
			}
			if bits.Count() == 0 {
				b.Fatal("no diabetics")
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bits, err := wb.Store.WithCodeRegexScan("", pattern)
			if err != nil {
				b.Fatal(err)
			}
			if bits.Count() == 0 {
				b.Fatal("no diabetics")
			}
		}
	})
	b.Run("align+aggregate", func(b *testing.B) {
		bits, err := wb.Store.WithCodeRegex("", pattern)
		if err != nil {
			b.Fatal(err)
		}
		diabetics := wb.Store.Subset(bits)
		anchor := align.First(query.AllOf{
			query.TypeIs(model.TypeDiagnosis), query.MustCode("", "T90")})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := align.Align(diabetics, anchor)
			months := map[int]int{}
			for _, h := range res.Col.Histories() {
				off := res.Offsets[h.Patient.ID]
				for j := range h.Entries {
					e := &h.Entries[j]
					if e.Type == model.TypeContact {
						months[int((e.Start-off)/model.Month)]++
					}
				}
			}
			if len(months) == 0 {
				b.Fatal("no aggregate")
			}
		}
	})
}

// --- E6: query planner/executor vs the legacy interpreter --------------------------

// BenchmarkE6_PlannerVsInterpreter runs the E3 large-cohort workload — the
// diabetic cohort intersected with a scan-only utilization criterion —
// through the legacy single-store interpreter and through the engine. The
// engine wins twice: cold, because the optimizer hoists the
// index-answerable diagnosis leaf and masks the expensive counting scan
// down to the surviving candidates (and fans shards out across cores);
// warm, because the refinement loop re-hits the plan cache.
func BenchmarkE6_PlannerVsInterpreter(b *testing.B) {
	wb := workbenchAt(b, fullScale())
	diabetic := query.Has{Pred: query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}}
	workload := query.And{
		diabetic,
		query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
	}
	var want int
	{
		bits, err := query.EvalIndexed(wb.Store, workload)
		if err != nil {
			b.Fatal(err)
		}
		want = bits.Count()
		if want == 0 {
			b.Fatal("empty workload cohort")
		}
	}
	check := func(b *testing.B, bits *store.Bitset, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if bits.Count() != want {
			b.Fatalf("cohort drifted: %d, want %d", bits.Count(), want)
		}
	}
	b.Run("interpreter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bits, err := query.EvalIndexed(wb.Store, workload)
			check(b, bits, err)
		}
	})
	b.Run("engine-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			wb.Engine.ResetCache()
			bits, err := wb.Engine.Execute(workload)
			check(b, bits, err)
		}
	})
	b.Run("engine-warm", func(b *testing.B) {
		wb.Engine.ResetCache()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bits, err := wb.Engine.Execute(workload)
			check(b, bits, err)
		}
	})
}

// --- E8: cost-based planning on a skewed-selectivity conjunction --------------------

// skewedStore hand-builds a population whose code distribution is heavily
// skewed: C60 on 60% of patients, C40 on 40%, R01 on 0.3% — all needing
// MinCount ≥ 2, so every leaf is a counting scan the indexes cannot
// answer directly. The workload conjunction lists the common predicates
// first; the static hoist preserves that order and pays the wide scans
// up front, while the cost-based planner reads the skew off the store
// statistics and drives with the rare predicate.
func skewedStore(n int) *store.Store {
	base := model.Date(2010, 1, 1)
	code := func(v string) model.Code { return model.Code{System: "ICPC2", Value: v} }
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1950, 1, 1)})
		eid := uint64(0)
		add := func(c model.Code) {
			eid++
			h.Add(model.Entry{ID: eid, Kind: model.Point,
				Start: base.AddDays(int(eid)), End: base.AddDays(int(eid)),
				Type: model.TypeDiagnosis, Source: model.SourceGP, Code: c})
		}
		for j := 0; j < 24; j++ { // filler: every scan pays per-entry cost
			add(code("Z00"))
		}
		if i%10 < 6 {
			add(code("C60"))
			add(code("C60"))
		}
		if i%10 < 4 {
			add(code("C40"))
			add(code("C40"))
		}
		if i%333 == 0 {
			add(code("R01"))
			add(code("R01"))
		}
		hs[i] = h
	}
	return store.New(model.MustCollection(hs...))
}

// BenchmarkE8_CostBasedPlanning measures the same conjunction executed
// under the static index-before-scan hoist (PR 1's optimizer) and under
// cost-based selectivity ordering, on the same engine with the plan
// cache disabled. The cost-based plan evaluates the 0.3%-selective
// predicate first, so the two common counting scans only visit the
// handful of surviving candidates.
func BenchmarkE8_CostBasedPlanning(b *testing.B) {
	n := 30000
	if testing.Short() {
		n = 8000
	}
	st := skewedStore(n)
	workload := query.And{
		query.Has{Pred: query.MustCode("ICPC2", "C60"), MinCount: 2},
		query.Has{Pred: query.MustCode("ICPC2", "C40"), MinCount: 2},
		query.Has{Pred: query.MustCode("ICPC2", "R01"), MinCount: 2},
	}
	compiled, err := engine.Compile(workload)
	if err != nil {
		b.Fatal(err)
	}
	want, err := query.EvalIndexed(st, workload)
	if err != nil {
		b.Fatal(err)
	}
	if want.Count() == 0 {
		b.Fatal("empty skewed cohort")
	}
	eng := engine.New(st, engine.Options{Shards: engine.DefaultOptions().Shards, CacheSize: 0})
	run := func(b *testing.B, p engine.Plan) {
		b.Helper()
		for i := 0; i < b.N; i++ {
			bits, err := eng.ExecutePlan(p)
			if err != nil {
				b.Fatal(err)
			}
			if bits.Count() != want.Count() {
				b.Fatalf("cohort drifted: %d, want %d", bits.Count(), want.Count())
			}
		}
	}
	b.Run("static-hoist", func(b *testing.B) { run(b, engine.Optimize(compiled)) })
	b.Run("cost-based", func(b *testing.B) { run(b, engine.OptimizeWithStats(compiled, st.Stats())) })
}

// --- E7: parallel ingest over the six registries -----------------------------------

// BenchmarkE7_ParallelIngest measures integrate.Build with the staging
// pipeline forced serial versus fanned out across the registries, plus the
// sharded index build the engine performs on top of an integrated
// collection.
func BenchmarkE7_ParallelIngest(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	bundle := synth.Generate(synth.DefaultConfig(n))
	for _, cfg := range []struct {
		name    string
		workers int
	}{{"serial", 1}, {"concurrent", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			opts := integrate.DefaultOptions()
			opts.Concurrency = cfg.workers
			for i := 0; i < b.N; i++ {
				col, _, err := integrate.Build(bundle, opts)
				if err != nil {
					b.Fatal(err)
				}
				if col.Len() == 0 {
					b.Fatal("empty collection")
				}
			}
		})
	}
	b.Run("shard-index", func(b *testing.B) {
		col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		st := store.New(col)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			eng := engine.New(st, engine.DefaultOptions())
			if eng.NumShards() < 1 {
				b.Fatal("no shards")
			}
		}
	})
}

// --- E9: snapshot reopen -----------------------------------------------------------

// BenchmarkE9_SnapshotReopen measures the workbench-level "reopen a saved
// session" path the paper's workflow depends on (re-integrating six
// registries vs. reopening a persisted collection): core.Open of
// snapshots saved at 1, 4 and 16 shards. Open re-indexes the store after
// decode, so the delta between shard counts isolates what the parallel
// segment decode buys.
func BenchmarkE9_SnapshotReopen(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	wb := workbenchAt(b, n)

	snaps := map[string][]byte{}
	var order []string
	for _, shards := range []int{1, 4, 16} {
		var buf bytes.Buffer
		if _, err := wb.Save(&buf, core.SnapshotOptions{Shards: shards}); err != nil {
			b.Fatal(err)
		}
		name := fmt.Sprintf("shards=%d", shards)
		snaps[name] = buf.Bytes()
		order = append(order, name)
	}
	for _, name := range order {
		snap := snaps[name]
		b.Run(fmt.Sprintf("open/%s", name), func(b *testing.B) {
			b.SetBytes(int64(len(snap)))
			for i := 0; i < b.N; i++ {
				back, err := core.Open(bytes.NewReader(snap), wb.Window)
				if err != nil {
					b.Fatal(err)
				}
				if back.Patients() != wb.Patients() {
					b.Fatal("reopen lost patients")
				}
			}
		})
	}
}

// --- E10: distributed execution over remote shard servers --------------------------

// startBenchCluster saves the collection as an 8-shard snapshot and
// serves it from two loopback shard servers (4 shards each); returns a
// connected workbench plus the snapshot path for the loader benchmarks.
func startBenchCluster(b *testing.B, wb *core.Workbench) (*core.Workbench, string) {
	b.Helper()
	return startBenchClusterOpts(b, wb, engine.DefaultOptions())
}

// startBenchClusterOpts is startBenchCluster with explicit coordinator
// options — E12 needs the coordinator's result cache off so its warm arm
// measures feedback planning, not cache hits.
func startBenchClusterOpts(b *testing.B, wb *core.Workbench, opts engine.Options) (*core.Workbench, string) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "e10.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := wb.Save(f, core.SnapshotOptions{Shards: 8}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	var addrs []string
	for _, ids := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		// Server-side plan caches off: the "cold" arms reset the
		// coordinator's caches each iteration, and a warm server cache
		// would quietly turn them into wire-overhead measurements.
		srvOpts := engine.DefaultOptions()
		srvOpts.CacheSize = 0
		srv, err := engine.NewShardServer(path, ids, srvOpts)
		if err != nil {
			b.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { lis.Close() })
		go srv.Serve(lis)
		addrs = append(addrs, lis.Addr().String())
	}
	remote, err := core.Connect(addrs, engine.RemoteOptions{}, opts, wb.Window)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { remote.Close() })
	return remote, path
}

// BenchmarkE10_RemoteFanout prices the distributed execution path: the
// E6 cohort workload over loopback shard servers versus the in-process
// engine (cold = plan caches reset every iteration, warm = the
// refinement loop), the E8 skewed conjunction likewise, and the lazy
// OpenShards loader versus streaming the whole snapshot — one shard
// server's share (2 of 8 shards) against the full LoadSharded.
func BenchmarkE10_RemoteFanout(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	wb := workbenchAt(b, n)
	remote, path := startBenchCluster(b, wb)

	workload := query.And{
		query.Has{Pred: query.AllOf{
			query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}},
		query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
	}
	want, err := query.EvalIndexed(wb.Store, workload)
	if err != nil {
		b.Fatal(err)
	}
	engines := []struct {
		name string
		wb   *core.Workbench
	}{{"local", wb}, {"remote", remote}}
	for _, eng := range engines {
		b.Run("e6-cold/"+eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.wb.Engine.ResetCache()
				bits, err := eng.wb.Query(workload)
				if err != nil {
					b.Fatal(err)
				}
				if bits.Count() != want.Count() {
					b.Fatalf("cohort drifted: %d, want %d", bits.Count(), want.Count())
				}
			}
		})
		b.Run("e6-warm/"+eng.name, func(b *testing.B) {
			eng.wb.Engine.ResetCache()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bits, err := eng.wb.Query(workload)
				if err != nil {
					b.Fatal(err)
				}
				if bits.Count() != want.Count() {
					b.Fatalf("cohort drifted: %d, want %d", bits.Count(), want.Count())
				}
			}
		})
	}

	// E8's skewed conjunction: cost-based ordering happens on both sides
	// (coordinator from merged stats, shard servers from their own), so
	// the rare predicate drives remotely too.
	skewN := n
	skewed := skewedStore(skewN)
	skewWb := core.FromCollection(skewed.Collection(), wb.Window)
	skewRemote, _ := startBenchCluster(b, skewWb)
	skewWorkload := query.And{
		query.Has{Pred: query.MustCode("ICPC2", "C60"), MinCount: 2},
		query.Has{Pred: query.MustCode("ICPC2", "C40"), MinCount: 2},
		query.Has{Pred: query.MustCode("ICPC2", "R01"), MinCount: 2},
	}
	skewWant, err := query.EvalIndexed(skewed, skewWorkload)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range []struct {
		name string
		wb   *core.Workbench
	}{{"local", skewWb}, {"remote", skewRemote}} {
		b.Run("e8-cold/"+eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng.wb.Engine.ResetCache()
				bits, err := eng.wb.Query(skewWorkload)
				if err != nil {
					b.Fatal(err)
				}
				if bits.Count() != skewWant.Count() {
					b.Fatalf("cohort drifted: %d, want %d", bits.Count(), skewWant.Count())
				}
			}
		})
	}

	// Loader: one server's share of the snapshot via random access
	// versus streaming-decoding the whole file.
	info, err := store.Inspect(mustOpenFile(b, path))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("load/full-Load", func(b *testing.B) {
		b.SetBytes(info.Bytes)
		for i := 0; i < b.N; i++ {
			f, err := os.Open(path)
			if err != nil {
				b.Fatal(err)
			}
			col, _, _, err := store.Load(f)
			f.Close()
			if err != nil {
				b.Fatal(err)
			}
			if col.Len() != wb.Patients() {
				b.Fatal("full load lost patients")
			}
		}
	})
	b.Run("load/OpenShards-2-of-8", func(b *testing.B) {
		lazyBytes := int64(0)
		for _, sh := range info.ShardDetail[:2] {
			lazyBytes += sh.Bytes
		}
		b.SetBytes(lazyBytes)
		for i := 0; i < b.N; i++ {
			opened, _, err := store.OpenShards(path, 0, 1)
			if err != nil {
				b.Fatal(err)
			}
			got := 0
			for _, sh := range opened {
				got += sh.Col.Len()
			}
			if got == 0 {
				b.Fatal("lazy load lost patients")
			}
		}
	})
}

// BenchmarkE11_RemoteHistories prices the history-level RPCs that make a
// connected workbench serve the paper's own UI: one patient's timeline
// fetch (the /timeline page), a 100-sample cohort fetch (the cohort
// view), and the indicator panel two ways — server-side aggregation
// (fixed-size tallies per shard) versus shipping every cohort history
// and tallying at the coordinator, the tradeoff the aggregate RPC
// exists to win.
func BenchmarkE11_RemoteHistories(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	wb := workbenchAt(b, n)
	remote, _ := startBenchCluster(b, wb)

	id := wb.Store.Collection().IDs()[n/2]
	engines := []struct {
		name string
		wb   *core.Workbench
	}{{"local", wb}, {"remote", remote}}
	for _, eng := range engines {
		b.Run("single/"+eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				h, err := eng.wb.History(id)
				if err != nil {
					b.Fatal(err)
				}
				if h.Patient.ID != id {
					b.Fatal("wrong history")
				}
			}
		})
	}

	cohortExpr := query.Has{Pred: query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}}
	bits, err := wb.Query(cohortExpr)
	if err != nil {
		b.Fatal(err)
	}
	sample := bits.FirstN(100)
	want := sample.Count()
	for _, eng := range engines {
		b.Run("cohort-100/"+eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col, err := eng.wb.Histories(sample)
				if err != nil {
					b.Fatal(err)
				}
				if col.Len() != want {
					b.Fatalf("fetched %d of %d", col.Len(), want)
				}
			}
		})
	}

	// The indicator panel for the whole cohort: aggregate where the
	// histories live, versus ship-all-and-tally — identical numbers, very
	// different wire bills.
	wantInd, err := wb.Indicators(bits)
	if err != nil {
		b.Fatal(err)
	}
	for _, eng := range engines {
		b.Run("indicators-aggregate/"+eng.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ind, err := eng.wb.Indicators(bits)
				if err != nil {
					b.Fatal(err)
				}
				if ind != wantInd {
					b.Fatal("indicators drifted")
				}
			}
		})
	}
	b.Run("indicators-shipall/remote", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			col, err := remote.Histories(bits)
			if err != nil {
				b.Fatal(err)
			}
			ind := stats.ComputeIndicators(col, wb.Window)
			if ind != wantInd {
				b.Fatal("indicators drifted")
			}
		}
	})
}

func mustOpenFile(b *testing.B, path string) *os.File {
	b.Helper()
	f, err := os.Open(path)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { f.Close() })
	return f
}

// --- E4: web timelines -------------------------------------------------------------

func BenchmarkE4_WebTimelines(b *testing.B) {
	wb := workbenchAt(b, 21000)
	srv := httptest.NewServer(webapp.NewServer(wb, webapp.DefaultConfig()))
	defer srv.Close()
	client := srv.Client()
	ids := wb.Store.Collection().IDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		resp, err := client.Get(fmt.Sprintf("%s/timeline?patient=%d&pw=tromsø", srv.URL, uint64(id)))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
		resp.Body.Close()
	}
}

// --- E5: interaction latency ---------------------------------------------------------

func BenchmarkE5_InteractionLatency(b *testing.B) {
	for _, size := range []int{1000, 10000, 100000} {
		wbSize := size
		b.Run(fmt.Sprintf("n=%d/extract", size), func(b *testing.B) {
			wb := workbenchAt(b, wbSize)
			expr := query.Has{Pred: query.AllOf{
				query.TypeIs(model.TypeDiagnosis), query.MustCode("", `K8.|T90`)}}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := mustSession(b, wb)
				if err := sess.Extract(expr); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/align", size), func(b *testing.B) {
			wb := workbenchAt(b, wbSize)
			anchor := align.First(query.AllOf{
				query.TypeIs(model.TypeDiagnosis), query.MustCode("", `K8.|T90`)})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sess := mustSession(b, wb)
				if err := sess.AlignOn(anchor); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/render50", size), func(b *testing.B) {
			wb := workbenchAt(b, wbSize)
			sess := mustSession(b, wb)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if svg := sess.RenderTimeline(render.TimelineOptions{MaxRows: 50}); len(svg) == 0 {
					b.Fatal("empty")
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/details", size), func(b *testing.B) {
			wb := workbenchAt(b, wbSize)
			sess := mustSession(b, wb)
			h := sess.View().At(0)
			if h.Len() == 0 {
				b.Skip("empty first history")
			}
			at := h.Entries[0].Start
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = sess.Details(h.Patient.ID, at)
			}
		})
	}
}

// --- A1: merge noise ablation -----------------------------------------------------------

func BenchmarkA1_MergeNoiseAblation(b *testing.B) {
	backbone := []string{"A04", "T90", "K86", "F83", "K77"}
	noise := []string{"R74", "L03", "D01"}
	gen := func(eps float64, n int) [][]string {
		r := synth.NewRand(11)
		out := make([][]string, n)
		for i := range out {
			var seq []string
			for _, c := range backbone {
				for r.Bernoulli(eps) {
					seq = append(seq, Pick(r, noise))
				}
				seq = append(seq, c)
			}
			out[i] = seq
		}
		return out
	}
	seqs := gen(0.10, 40)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", Depth: 5})
			if err != nil {
				b.Fatal(err)
			}
			_ = g.Compression()
		}
	})
	b.Run("msa", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := graph.MSAMerge(seqs, seqalign.ChapterCost{System: "ICPC2"})
			_ = g.Compression()
		}
	})
}

// Pick re-exports synth.Pick for the bench generator.
func Pick[T any](r *synth.Rand, xs []T) T { return synth.Pick(r, xs) }

// --- A2: interval reasoning ---------------------------------------------------------------

func BenchmarkA2_IntervalReasoning(b *testing.B) {
	// An 8-interval chain network with erased edges.
	periods := make([]model.Period, 8)
	names := make([]string, 8)
	for i := range periods {
		start := model.Time(i) * 100
		periods[i] = model.Period{Start: start, End: start + 60}
		names[i] = fmt.Sprintf("ep%d", i)
	}
	base, err := temporal.FromPeriods(names, periods)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net := base.Clone()
		for j := 0; j+2 < net.Size(); j += 2 {
			net.Erase(j, j+2)
		}
		if !net.PathConsistency() {
			b.Fatal("inconsistent")
		}
	}
}

// --- A3: association mining ------------------------------------------------------------------

func BenchmarkA3_AssociationMining(b *testing.B) {
	wb := workbenchAt(b, 21000)
	seqs := diabeticSeqs(b, wb, 2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co := mining.CoOccurrence(seqs, mining.Options{MinSupport: 0.05})
		sq := mining.Sequential(seqs, mining.Options{MinSupport: 0.05})
		if len(co) == 0 || len(sq) == 0 {
			b.Fatal("no rules")
		}
	}
}

// --- X1: trajectory clustering -----------------------------------------------------------------

func BenchmarkX1_TrajectoryClustering(b *testing.B) {
	wb := workbenchAt(b, 21000)
	seqs := diabeticSeqs(b, wb, 60)
	cost := seqalign.ChapterCost{System: "ICPC2"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := cluster.Sequences(seqs, cost, 6)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Order()) != len(seqs) {
			b.Fatal("order lost items")
		}
	}
}

// --- E12: million-patient scale --------------------------------------------------

// e12Scale is the tentpole population: the containerized bitmaps and the
// feedback planner are proven at 1M patients, not extrapolated from 168k.
// -short caps at 100k so the CI smoke run stays quick.
func e12Scale() int {
	if testing.Short() {
		return 100_000
	}
	return 1_000_000
}

// e12Collection hand-builds the population — the full synth pipeline
// would dominate setup at this scale. Every patient carries two
// measurements: one from [0,100) (patient i reads i%100) and one from
// [1000,1100) on a decorrelated cycle, so ValueBetween predicates give
// precisely controlled selectivities that the cost model's uniform prior
// cannot see — exactly the correlated-conjunction shape the feedback
// loop exists to fix.
func e12Collection(n int) *model.Collection {
	base := model.Date(2010, 6, 1)
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1955, 1, 1)})
		h.Add(model.Entry{
			ID: uint64(2 * i), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: float64(i % 100),
		})
		h.Add(model.Entry{
			ID: uint64(2*i + 1), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: 1000 + float64((i*37)%100),
		})
		hs[i] = h
	}
	return model.MustCollection(hs...)
}

var (
	e12Fixture   *store.Store
	e12FixtureN  int
	e12FixtureMu sync.Mutex
)

func e12Store(b *testing.B) *store.Store {
	b.Helper()
	e12FixtureMu.Lock()
	defer e12FixtureMu.Unlock()
	if n := e12Scale(); e12Fixture == nil || e12FixtureN != n {
		e12Fixture = store.New(e12Collection(n))
		e12FixtureN = n
	}
	return e12Fixture
}

// BenchmarkE12_MillionPatient prices the PR-6 tentpole at scale. The
// workload is a correlated conjunction of two unbounded ValueBetween
// scans — identical priors, wildly different true selectivities (the
// narrow band is contained in the wide one) — so the cold plan runs them
// in compile order and the feedback re-plan runs the selective scan
// first. Result caches are off everywhere (CacheSize 0): the cold/warm
// gap is pure planning, every iteration recomputes the cohort. The
// distributed arms run the same pair over two loopback shard servers;
// setops prices a raw containerized And over two ~50%-dense postings.
func BenchmarkE12_MillionPatient(b *testing.B) {
	st := e12Store(b)
	n := e12Scale()
	vb := func(lo, hi float64) query.Expr {
		return query.Has{Pred: query.ValueBetween{Lo: lo, Hi: hi}}
	}
	wide, narrow := vb(0, 94), vb(90, 94) // 95% and 5%, narrow ⊂ wide
	workload := query.And{wide, narrow}
	want := n / 100 * 5
	check := func(b *testing.B, bits *store.Bitset, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if bits.Count() != want {
			b.Fatalf("cohort drifted: %d, want %d", bits.Count(), want)
		}
	}

	eng := engine.New(st, engine.Options{Shards: engine.DefaultOptions().Shards, CacheSize: 0})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.ResetCache() // feedback and plan memo too: every iteration plans blind
			bits, err := eng.Execute(workload)
			check(b, bits, err)
		}
	})
	b.Run("warm-feedback", func(b *testing.B) {
		eng.ResetCache()
		if _, err := eng.Execute(workload); err != nil { // prime: record true cardinalities
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bits, err := eng.Execute(workload)
			check(b, bits, err)
		}
	})

	// Three-way variant: two anti-correlated 50% bands plus an independent
	// 40% band. Greedy feedback ordering (leaf cardinalities only) leads
	// with the independent band; the join-order DP sees the observed 5%
	// prefix and runs the anti-correlated pair first.
	three := query.And{vb(0, 49), vb(45, 94), vb(1000, 1039)}
	b.Run("correlated3-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.ResetCache()
			bits, err := eng.Execute(three)
			if err != nil {
				b.Fatal(err)
			}
			if bits.Count() == 0 {
				b.Fatal("empty three-way cohort")
			}
		}
	})
	b.Run("correlated3-warm", func(b *testing.B) {
		eng.ResetCache()
		if _, err := eng.Execute(three); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bits, err := eng.Execute(three)
			if err != nil {
				b.Fatal(err)
			}
			if bits.Count() == 0 {
				b.Fatal("empty three-way cohort")
			}
		}
	})

	// Raw containerized set operations over population-scale bitsets.
	b.Run("setops-and", func(b *testing.B) {
		even := store.NewBitset(n)
		third := store.NewBitset(n)
		for i := 0; i < n; i += 2 {
			even.Set(i)
		}
		for i := 0; i < n; i += 3 {
			third.Set(i)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			acc := even.Clone()
			acc.And(third)
			if acc.Count() == 0 {
				b.Fatal("empty intersection")
			}
		}
	})

	// Distributed: the same correlated pair over two loopback shard
	// servers (result caches off on both sides; the coordinator's
	// feedback loop learns from remotely-evaluated leaves too).
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	wb := core.FromCollection(st.Collection(), window)
	coordOpts := engine.DefaultOptions()
	coordOpts.CacheSize = 0
	remote, _ := startBenchClusterOpts(b, wb, coordOpts)
	b.Run("distributed-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			remote.Engine.ResetCache()
			bits, err := remote.Query(workload)
			check(b, bits, err)
		}
	})
	b.Run("distributed-warm", func(b *testing.B) {
		remote.Engine.ResetCache()
		if _, err := remote.Query(workload); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			bits, err := remote.Query(workload)
			check(b, bits, err)
		}
	})
}

// --- E13: replicated failover under churn ------------------------------------

// benchReplica is one killable, restartable shard-server process stand-in:
// the listener tracks accepted connections so kill() tears down the
// listener and every live connection at once, exactly like a crashed
// process, and restart() brings a fresh server back on the same address.
type benchReplica struct {
	addr string
	path string
	ids  []int

	mu    sync.Mutex
	srv   *engine.ShardServer
	lis   net.Listener
	conns []net.Conn
}

// replicaListener ties one server incarnation to one fixed listener
// (a restarted server must never accept through its predecessor's),
// while registering accepted connections on the shared replica so
// kill() can sever them.
type replicaListener struct {
	net.Listener
	parent *benchReplica
}

func (l *replicaListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.parent.mu.Lock()
		l.parent.conns = append(l.parent.conns, c)
		l.parent.mu.Unlock()
	}
	return c, err
}

func (r *benchReplica) kill() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.lis != nil {
		r.lis.Close()
	}
	for _, c := range r.conns {
		c.Close()
	}
	r.conns = nil
}

// restart brings a fresh server back on the replica's address. It may
// run from the churn goroutine, so failures report via b.Error (Fatal
// is test-goroutine-only); the replica set keeps serving from the
// survivor either way.
func (r *benchReplica) restart(b *testing.B) {
	b.Helper()
	srvOpts := engine.DefaultOptions()
	srvOpts.CacheSize = 0
	srv, err := engine.NewShardServer(r.path, r.ids, srvOpts)
	if err != nil {
		b.Error(err)
		return
	}
	var lis net.Listener
	for attempt := 0; ; attempt++ {
		lis, err = net.Listen("tcp", r.addr)
		if err == nil {
			break
		}
		if attempt >= 20 {
			b.Errorf("rebind %s: %v", r.addr, err)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	r.mu.Lock()
	r.srv = srv
	r.lis = lis
	r.addr = lis.Addr().String()
	r.mu.Unlock()
	go srv.Serve(&replicaListener{Listener: lis, parent: r})
}

// startReplicatedCluster saves wb as a 4-shard snapshot and serves every
// shard from two independent replica servers, returning a strict
// coordinator whose per-shard backends are replica sets, plus the
// kill/restart handles.
func startReplicatedCluster(b *testing.B, wb *core.Workbench) (*core.Workbench, []*benchReplica) {
	b.Helper()
	path := filepath.Join(b.TempDir(), "e13.snap")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := wb.Save(f, core.SnapshotOptions{Shards: 4}); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	replicas := make([]*benchReplica, 2)
	for i := range replicas {
		replicas[i] = &benchReplica{addr: "127.0.0.1:0", path: path, ids: []int{0, 1, 2, 3}}
		replicas[i].restart(b)
		b.Cleanup(replicas[i].kill)
	}
	coordOpts := engine.DefaultOptions()
	coordOpts.CacheSize = 0 // every op must fan out and face the churn
	remote, err := core.Connect(
		[]string{replicas[0].addr + "|" + replicas[1].addr},
		engine.RemoteOptions{Timeout: 10 * time.Second},
		coordOpts, wb.Window)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { remote.Close() })
	return remote, replicas
}

// e13Session runs one mixed workbench operation — cohort query, timeline
// fetch or indicator aggregation, dealt round-robin — and returns its
// latency. Any error is fatal: the failover contract is zero query
// errors while replicas die.
func e13Session(b *testing.B, remote *core.Workbench, ids []model.PatientID, cohortBits *store.Bitset, i int) time.Duration {
	exprs := []query.Expr{
		query.Has{Pred: query.AllOf{
			query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}},
		query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
		query.SexIs(model.SexFemale),
	}
	t0 := time.Now()
	switch i % 3 {
	case 0:
		if _, err := remote.Query(exprs[(i/3)%len(exprs)]); err != nil {
			b.Fatalf("op %d: query: %v", i, err)
		}
	case 1:
		if _, err := remote.History(ids[i%len(ids)]); err != nil {
			b.Fatalf("op %d: timeline: %v", i, err)
		}
	default:
		if _, err := remote.Indicators(cohortBits); err != nil {
			b.Fatalf("op %d: indicators: %v", i, err)
		}
	}
	return time.Since(t0)
}

func reportPercentiles(b *testing.B, lat []time.Duration) {
	if len(lat) == 0 {
		return
	}
	sorted := append([]time.Duration(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) float64 {
		idx := int(p * float64(len(sorted)-1))
		return float64(sorted[idx].Microseconds()) / 1000.0
	}
	b.ReportMetric(pct(0.50), "p50-ms")
	b.ReportMetric(pct(0.99), "p99-ms")
}

// BenchmarkE13_ReplicatedFailover prices the replication tier's promise:
// mixed query/timeline/indicator sessions against a 2-replica cluster,
// (a) steady-state — the replication wrapper's overhead with everything
// healthy, (b) with one replica of every shard crashed mid-run — strict
// mode completes with zero errors, and (c) under kill/restart churn —
// one replica crashing and rejoining continuously. Each arm reports p50
// and p99 op latency alongside ns/op.
func BenchmarkE13_ReplicatedFailover(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	wb := workbenchAt(b, n)
	ids := wb.Store.Collection().IDs()

	b.Run("steady", func(b *testing.B) {
		remote, _ := startReplicatedCluster(b, wb)
		cohortBits, err := remote.Query(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
		if err != nil {
			b.Fatal(err)
		}
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, e13Session(b, remote, ids, cohortBits, i))
		}
		b.StopTimer()
		reportPercentiles(b, lat)
	})

	b.Run("one-replica-killed", func(b *testing.B) {
		remote, replicas := startReplicatedCluster(b, wb)
		cohortBits, err := remote.Query(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
		if err != nil {
			b.Fatal(err)
		}
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i == b.N/2 {
				// Crash one replica of every shard mid-benchmark. The
				// acceptance bar: zero errors from here on, in strict mode.
				replicas[0].kill()
			}
			lat = append(lat, e13Session(b, remote, ids, cohortBits, i))
		}
		b.StopTimer()
		reportPercentiles(b, lat)
	})

	b.Run("kill-restart-churn", func(b *testing.B) {
		remote, replicas := startReplicatedCluster(b, wb)
		cohortBits, err := remote.Query(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var churn sync.WaitGroup
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(60 * time.Millisecond):
				}
				replicas[0].kill()
				select {
				case <-stop:
					return
				case <-time.After(60 * time.Millisecond):
				}
				replicas[0].restart(b)
			}
		}()
		lat := make([]time.Duration, 0, b.N)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lat = append(lat, e13Session(b, remote, ids, cohortBits, i))
		}
		b.StopTimer()
		close(stop)
		churn.Wait()
		reportPercentiles(b, lat)
	})
}

// BenchmarkE14_QueryUnderIngest prices the live-ingest tentpole: the
// same cohort query (a) against a quiescent workbench — the warm-cache
// baseline, (b) while a writer appends follow-on rounds continuously —
// every append advances the generation, so plan memos and result caches
// re-epoch and the query pays planning plus base ∪ delta reads, and
// (c) after the feed stops and compaction folds the delta — warm-cache
// latency must recover to the baseline's neighborhood. Each arm reports
// p50 and p99 alongside ns/op.
func BenchmarkE14_QueryUnderIngest(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	cfg := synth.DefaultConfig(n)
	window := cfg.Window()
	opts := integrate.DefaultOptions()
	// Pinned horizon: appended rounds must not move the open-interval end.
	opts.OpenIntervalEnd = window.End.AddDays(30)

	freshWB := func(b *testing.B) *core.Workbench {
		b.Helper()
		wb, err := core.FromBundle(synth.Generate(cfg), opts, window)
		if err != nil {
			b.Fatal(err)
		}
		wb.IngestOptions = &opts
		return wb
	}
	q := query.And{
		query.Has{Pred: query.TypeIs(model.TypeDiagnosis)},
		query.Has{Pred: query.MustCode("ICPC2", "T90|K86")},
	}
	measure := func(b *testing.B, wb *core.Workbench) {
		lat := make([]time.Duration, 0, b.N)
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			if _, err := wb.Query(q); err != nil {
				b.Fatal(err)
			}
			lat = append(lat, time.Since(t0))
		}
		b.StopTimer()
		reportPercentiles(b, lat)
	}

	b.Run("quiescent", func(b *testing.B) {
		wb := freshWB(b)
		if _, err := wb.Query(q); err != nil { // warm
			b.Fatal(err)
		}
		b.ResetTimer()
		measure(b, wb)
	})

	b.Run("under-ingest", func(b *testing.B) {
		wb := freshWB(b)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			nextNew := uint64(n) + 1
			for round := 1; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				feed := synth.GenerateAppend(cfg, nextNew, nextNew+49, round)
				nextNew += 50
				if err := wb.Append(feed); err != nil {
					b.Error(err)
					return
				}
			}
		}()
		b.ResetTimer()
		measure(b, wb)
		close(stop)
		wg.Wait()
		st, _ := wb.IngestStats()
		b.ReportMetric(float64(st.Batches), "appends")
	})

	b.Run("recovered-after-compaction", func(b *testing.B) {
		wb := freshWB(b)
		nextNew := uint64(n) + 1
		for round := 1; round <= 5; round++ {
			feed := synth.GenerateAppend(cfg, nextNew, nextNew+49, round)
			nextNew += 50
			if err := wb.Append(feed); err != nil {
				b.Fatal(err)
			}
		}
		if _, err := wb.Compact(); err != nil {
			b.Fatal(err)
		}
		if _, err := wb.Query(q); err != nil { // warm at the final generation
			b.Fatal(err)
		}
		b.ResetTimer()
		measure(b, wb)
	})
}

// BenchmarkE15_RefineLoop prices the cohort-workspace tentpole: the
// explore loop as O(delta) instead of O(population). A 5%-selective
// parent cohort is materialized once over the E12 million-patient
// population; the refined expression adds one more conjunct. The
// from-scratch arm re-executes the whole conjunction (caches reset
// every iteration — the pre-workspace explore loop); the refine arm
// seeds from the cached parent and executes only the delta, masked.
// The remote arms contrast the two distribution strategies for the
// same refinement: pull-leaves ships every shard's full delta leaf to
// the coordinator and intersects there; pushed-mask ships the parent
// mask down (container-encoded, crc-checked) so each shard evaluates
// the delta over candidates only. All results are parity-checked
// against each other every iteration.
func BenchmarkE15_RefineLoop(b *testing.B) {
	st := e12Store(b)
	n := e12Scale()
	vb := func(lo, hi float64) query.Expr {
		return query.Has{Pred: query.ValueBetween{Lo: lo, Hi: hi}}
	}
	parent := vb(90, 94)    // 5% of the population
	delta := vb(1000, 1039) // 40% band on the decorrelated cycle
	refined := query.And{parent, delta}
	want := n / 100 * 2 // the two residues of the joint cycle
	check := func(b *testing.B, bits *store.Bitset, err error) {
		b.Helper()
		if err != nil {
			b.Fatal(err)
		}
		if bits.Count() != want {
			b.Fatalf("refined cohort drifted: %d, want %d", bits.Count(), want)
		}
	}
	ctx := context.Background()

	eng := engine.New(st, engine.Options{Shards: engine.DefaultOptions().Shards, CacheSize: 0})
	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			eng.ResetCache()
			bits, err := eng.Execute(refined)
			check(b, bits, err)
		}
	})
	b.Run("refine", func(b *testing.B) {
		eng.ResetCache()
		if _, err := eng.Materialize(ctx, "parent", parent); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			info, ref, err := eng.Refine(ctx, "r", refined)
			if err != nil {
				b.Fatal(err)
			}
			if ref.Mode != engine.RefineNarrow {
				b.Fatalf("refine mode %q, want narrow", ref.Mode)
			}
			if info.Count != want {
				b.Fatalf("refined cohort drifted: %d, want %d", info.Count, want)
			}
		}
	})

	// Distributed: the same refinement over two loopback shard servers.
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	wb := core.FromCollection(st.Collection(), window)
	coordOpts := engine.DefaultOptions()
	coordOpts.CacheSize = 0
	remote, _ := startBenchClusterOpts(b, wb, coordOpts)
	if _, err := remote.Engine.Materialize(ctx, "parent", parent); err != nil {
		b.Fatal(err)
	}
	parentBits, _, err := remote.Engine.CohortBits("parent")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("remote-pull-leaves", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// The pre-push-down strategy: evaluate the delta unmasked (every
			// shard ships its full leaf) and intersect at the coordinator.
			leaf, err := remote.Engine.Execute(delta)
			if err != nil {
				b.Fatal(err)
			}
			acc := parentBits.Clone()
			acc.And(leaf)
			check(b, acc, nil)
		}
	})
	b.Run("remote-pushed-mask", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			info, ref, err := remote.Engine.Refine(ctx, "r", refined)
			if err != nil {
				b.Fatal(err)
			}
			if ref.Mode != engine.RefineNarrow || !ref.Pushed {
				b.Fatalf("refinement %+v, want pushed narrow", ref)
			}
			if info.Count != want {
				b.Fatalf("refined cohort drifted: %d, want %d", info.Count, want)
			}
		}
	})
}

// BenchmarkE16_DistributedMining prices the analytics tentpole: mining
// chapter-level co-occurrence rules over a whole-population cohort,
// (a) in-process — the local map-reduce over store slices, (b) remote
// with the pre-Analyze strategy — every cohort history shipped to the
// coordinator and mined there, and (c) remote map-reduce — only the
// pushed-down mask and fixed-size integer partials cross the wire. All
// arms are parity-checked against each other; (c) beating (b) is the
// acceptance bar for distributing the analytics tier.
func BenchmarkE16_DistributedMining(b *testing.B) {
	n := 21000
	if testing.Short() {
		n = 5000
	}
	wb := workbenchAt(b, n)
	remote, _ := startBenchCluster(b, wb)
	cohortExpr := query.Expr(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	if _, err := wb.SaveCohort("e16", cohortExpr); err != nil {
		b.Fatal(err)
	}
	if _, err := remote.SaveCohort("e16", cohortExpr); err != nil {
		b.Fatal(err)
	}
	params := engine.MineParams{System: "ICPC2", Chapter: true}
	opt := mining.Options{MinSupport: 0.01, MinCount: 2}
	want, _, _, err := wb.MineRules("e16", params, opt)
	if err != nil {
		b.Fatal(err)
	}
	if len(want) == 0 {
		b.Fatal("no rules over the benchmark population")
	}
	checkRules := func(b *testing.B, got []mining.Rule) {
		b.Helper()
		if len(got) != len(want) || got[0] != want[0] {
			b.Fatalf("mined rules diverged: %d rules, want %d", len(got), len(want))
		}
	}

	b.Run("local-map-reduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rules, _, _, err := wb.MineRules("e16", params, opt)
			if err != nil {
				b.Fatal(err)
			}
			checkRules(b, rules)
		}
	})

	b.Run("remote-ship-histories", func(b *testing.B) {
		bits, _, err := remote.Engine.CohortBits("e16")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The pre-Analyze strategy: page every cohort history across
			// the wire and count at the coordinator.
			hs, err := remote.Engine.Histories(bits)
			if err != nil {
				b.Fatal(err)
			}
			c := mining.NewCounts(false, 0)
			for _, h := range hs {
				var seq []string
				for _, code := range h.CodeSequenceStable(model.TypeDiagnosis) {
					if code.System != "ICPC2" {
						continue
					}
					if ch := abstraction.ChapterOf(code); ch != "" {
						seq = append(seq, ch)
					}
				}
				if len(seq) > 0 {
					c.AddSequence(seq)
				}
			}
			checkRules(b, c.Rules(opt))
		}
	})

	b.Run("remote-map-reduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rules, _, _, err := remote.MineRules("e16", params, opt)
			if err != nil {
				b.Fatal(err)
			}
			checkRules(b, rules)
		}
	})
}
