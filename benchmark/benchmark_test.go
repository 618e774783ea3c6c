package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/synth"
	"pastas/internal/webapp"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want bool
	}{
		{200, 0.95, true}, {199, 0.95, false},
		{100, 0.90, true}, {99, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
	} {
		if got := tailSupported(tc.n, tc.q); got != tc.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", tc.n, tc.q, got, tc.want)
		}
	}
	for n, want := range map[int]float64{39: 0, 40: 0.75, 100: 0.90, 240: 0.95, 900: 0.95, 1000: 0.99} {
		if got := highestSupported(n); got != want {
			t.Errorf("highestSupported(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestQuantileInterpolates(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile([]float64{10, 20, 30, 40, 50}, 0.75); got != 40 {
		t.Errorf("p75 = %v, want 40", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of nothing = %v, want 0", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{Name: "webapp", Parent: -1, Start: 0, End: 100},
		{Name: "core", Parent: 0, Start: 10, End: 80},
		{Name: "compile", Parent: 1, Start: 10, End: 20},
		{Name: "execute", Parent: 1, Start: 20, End: 70},
	}
	want := []int64{30, 10, 10, 50}
	for i, got := range selfTimes(spans) {
		if got != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got, want[i])
		}
	}
}

// smallFixture is a synthesized workbench big enough for every template
// to find codes, built once per test binary.
func smallFixture(t *testing.T) (*core.Workbench, vocab) {
	t.Helper()
	wb, err := core.Synthesize(synth.DefaultConfig(6000))
	if err != nil {
		t.Fatal(err)
	}
	wb.Engine = engine.New(wb.Store, engineOptions(128))
	return wb, vocabOf(wb.Store)
}

func TestInputsRepeatForASeedAndDifferAcrossSeeds(t *testing.T) {
	wb, v := smallFixture(t)
	build := func(seed uint64) (string, string, string) {
		pool, err := newSpecPool(v, seed)
		if err != nil {
			t.Fatal(err)
		}
		in, err := newSessionInputs(v, wb.Patients(), pool, seed)
		if err != nil {
			t.Fatal(err)
		}
		var specs, draws, bundles bytes.Buffer
		for _, ps := range pool.specs {
			specs.Write(ps.JSON)
			specs.WriteByte('\n')
		}
		for i := 0; i < 50; i++ {
			sp, err := in.plan(i)
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range sp.Queries {
				draws.WriteString(string(rune('0' + q%10)))
			}
			for _, c := range sp.Chain {
				draws.Write(c)
			}
			draws.WriteString(sp.ViewPattern)
		}
		for round := 0; round < 3; round++ {
			ab, err := newAppendBundle(wb.Patients(), seed, round)
			if err != nil {
				t.Fatal(err)
			}
			bundles.Write(ab.JSON)
		}
		return specs.String(), draws.String(), bundles.String()
	}
	s1, d1, b1 := build(7)
	s1b, d1b, b1b := build(7)
	s2, d2, b2 := build(8)
	if s1 != s1b || d1 != d1b || b1 != b1b {
		t.Error("equal seeds generated different inputs")
	}
	if s1 == s2 {
		t.Error("different seeds generated the same spec pool")
	}
	if d1 == d2 {
		t.Error("different seeds generated the same session draws")
	}
	if b1 == b2 {
		t.Error("different seeds generated the same append bundles")
	}
}

func TestPoolSpecsCompileAndCrossTheWire(t *testing.T) {
	_, v := smallFixture(t)
	pool, err := newSpecPool(v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.specs) != poolSize {
		t.Fatalf("pool holds %d specs, want %d", len(pool.specs), poolSize)
	}
	seen := map[string]bool{}
	classes := map[string]int{}
	for i, ps := range pool.specs {
		if seen[string(ps.JSON)] {
			t.Errorf("spec %d is a duplicate: %s", i, ps.JSON)
		}
		seen[string(ps.JSON)] = true
		classes[ps.Class]++
		parsed, err := query.ParseSpec(ps.JSON)
		if err != nil {
			t.Fatalf("spec %d does not parse: %v", i, err)
		}
		expr, err := parsed.Compile()
		if err != nil {
			t.Fatalf("spec %d does not compile: %v: %s", i, err, ps.JSON)
		}
		plan, err := engine.Compile(expr)
		if err != nil {
			t.Fatalf("spec %d: engine.Compile: %v", i, err)
		}
		// An opaque plan cannot be shipped to a shard server: session-remote
		// would fail on an input session-local accepts.
		wire, err := engine.EncodePlan(engine.Optimize(plan))
		if err != nil {
			t.Fatalf("spec %d is not wire-encodable: %v: %s", i, err, ps.JSON)
		}
		if _, err := engine.DecodePlan(wire); err != nil {
			t.Fatalf("spec %d does not decode: %v", i, err)
		}
	}
	for _, class := range classByRank {
		if classes[class] == 0 {
			t.Errorf("no spec of class %s in the pool", class)
		}
	}
}

func TestZipfDrawFavoursLowRanks(t *testing.T) {
	p := &specPool{specs: make([]poolSpec, poolSize), cdf: zipfCDF(poolSize, zipfExponent)}
	r := newRNG(1, "test")
	hist := make([]int, poolSize)
	for i := 0; i < 20000; i++ {
		hist[p.draw(r)]++
	}
	if hist[0] <= hist[poolSize/2] || hist[0] <= hist[poolSize-1] {
		t.Errorf("rank 1 drawn %d times, rank %d %d times, rank %d %d times: not Zipf-shaped",
			hist[0], poolSize/2, hist[poolSize/2], poolSize, hist[poolSize-1])
	}
	if got := p.cdf[poolSize-1]; got != 1 {
		t.Errorf("cdf ends at %v, want 1", got)
	}
}

func TestScanOpCountsMatchTheOracle(t *testing.T) {
	const n = 2000
	st := thinStore(n)
	eng := engine.New(st, engineOptions(0))
	for i := 0; i < 12; i++ {
		op := newScanOp(5, i, n)
		want, err := query.EvalIndexed(st, op.Query)
		if err != nil {
			t.Fatal(err)
		}
		if want.Count() != op.Want {
			t.Errorf("op %d: band arithmetic says %d, query.EvalIndexed %d (%s)", i, op.Want, want.Count(), op.Query)
		}
		got, err := eng.Execute(query.And{op.Parent, op.Delta})
		if err != nil {
			t.Fatal(err)
		}
		if got.Count() != op.RefineWant {
			t.Errorf("op %d: refine arithmetic says %d, engine %d", i, op.RefineWant, got.Count())
		}
	}
}

// TestSessionScriptRuns drives whole sessions against a small workbench:
// it is the test that notices when an endpoint or a reply shape the
// benchmark depends on changes.
func TestSessionScriptRuns(t *testing.T) {
	wb, v := smallFixture(t)
	pool, err := newSpecPool(v, 1)
	if err != nil {
		t.Fatal(err)
	}
	in, err := newSessionInputs(v, wb.Patients(), pool, 1)
	if err != nil {
		t.Fatal(err)
	}
	d := &driver{h: webapp.NewServer(wb, webapp.DefaultConfig()), rec: newRecorder(), chk: newChecker(wb.Store)}
	for i := 0; i < 6; i++ {
		if err := d.session(in, i); err != nil {
			t.Fatal(err)
		}
	}
	if d.rec.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", d.rec.failed, d.rec.attempted, d.rec.failures)
	}
	if d.rec.attempted != 6*19 {
		t.Errorf("6 sessions sent %d requests, want %d", d.rec.attempted, 6*19)
	}
	for _, class := range []string{"query", "refine", "characterise", "analytics", "timeline", "session"} {
		if len(d.rec.samples[class]) == 0 {
			t.Errorf("no %s sample recorded", class)
		}
	}
	if d.rec.modes["narrow"] == 0 || d.rec.modes["widen"] == 0 {
		t.Errorf("refinements were not seeded: modes %v", d.rec.modes)
	}
	if len(wb.Cohorts()) != 0 {
		t.Errorf("sessions left %d cohorts behind", len(wb.Cohorts()))
	}
}

func TestCheckerCatchesAChangedCount(t *testing.T) {
	c := newChecker(nil)
	if !c.note([]byte("a"), 3) || !c.note([]byte("a"), 3) {
		t.Error("a repeated count was rejected")
	}
	if c.note([]byte("a"), 4) {
		t.Error("a changed count was accepted")
	}
	c.gen = 1
	if !c.note([]byte("a"), 4) {
		t.Error("a count at a new generation was compared with the old generation's")
	}
	d := newChecker(nil)
	d.note([]byte("a"), 3)
	if d.digest == c.digest {
		t.Error("digest does not depend on the sequence of counts")
	}
}

func TestCompareVerdicts(t *testing.T) {
	bf := benchmarkFile{EndToEnd: []boundedMetric{
		{"query_p50_ms", "ms", "lower", 0.10},
		{"ops_per_s", "1/s", "higher", 0.10},
	}}
	set := func(workload string, digest string, q, ops []float64) []report {
		var out []report
		for i := range q {
			out = append(out, report{
				Workload: workload, Seed: 1, Attempted: 100,
				Metrics: map[string]metricValue{"query_p50_ms": {q[i], "ms"}, "ops_per_s": {ops[i], "1/s"}},
				Info:    map[string]any{"answers_digest": digest},
			})
		}
		return out
	}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	var out bytes.Buffer
	if code := compareSets(set("session-local", "d", steady, steady), set("session-local", "d", steady, steady), bf, &out); code != 0 {
		t.Errorf("equal sets: exit %d\n%s", code, out.String())
	}
	out.Reset()
	slower := []float64{1.2, 1.21, 1.19, 1.2}
	if code := compareSets(set("session-local", "d", steady, steady), set("session-local", "d", slower, steady), bf, &out); code == 0 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a 20%% slower set passed a 10%% bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	fewer := []float64{0.8, 0.81, 0.79, 0.8}
	if code := compareSets(set("session-local", "d", steady, steady), set("session-local", "d", steady, fewer), bf, &out); code == 0 {
		t.Errorf("a 20%% lower throughput passed a 10%% bound\n%s", out.String())
	}
	out.Reset()
	noisy := []float64{0.8, 1.0, 1.2, 1.0}
	if code := compareSets(set("session-local", "d", noisy, steady), set("session-local", "d", noisy, steady), bf, &out); code != 0 || !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound was not reported as unresolved: exit %d\n%s", code, out.String())
	}
	out.Reset()
	a := append(set("session-local", "d1", steady, steady), set("session-remote", "d2", steady, steady)...)
	if code := compareSets(a, a, bf, &out); code == 0 || !strings.Contains(out.String(), "answers_digest") {
		t.Errorf("disagreeing digests passed: exit %d\n%s", code, out.String())
	}
}

// TestBenchmarkJSONListsWhatTheCodePrints keeps BENCHMARK.json and the
// metric tables in step: the driver refuses a run whose metrics are not
// exactly the ones the file names.
func TestBenchmarkJSONListsWhatTheCodePrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }               `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	for _, w := range doc.Workloads {
		if _, err := newWorkload(w.Name); err != nil {
			t.Errorf("BENCHMARK.json names workload %q: %v", w.Name, err)
		}
	}
	if len(doc.Workloads) != 4 {
		t.Errorf("BENCHMARK.json lists %d workloads, want 4", len(doc.Workloads))
	}
	same := func(kind string, defs []metricDef, name func(i int) (string, string), n int) {
		if n != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the code prints %d", kind, n, len(defs))
			return
		}
		for i, d := range defs {
			if gotName, gotUnit := name(i); gotName != d.Name || gotUnit != d.Unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s (%s), the code prints %s (%s)", kind, i, gotName, gotUnit, d.Name, d.Unit)
			}
		}
	}
	same("end_to_end", endToEnd, func(i int) (string, string) { return doc.EndToEnd[i].Name, doc.EndToEnd[i].Unit }, len(doc.EndToEnd))
	same("per_layer", perLayer, func(i int) (string, string) { return doc.PerLayer[i].Name, doc.PerLayer[i].Unit }, len(doc.PerLayer))
}

func TestSpreadIsTheInterquartileShare(t *testing.T) {
	if got := spreadOf([]float64{10, 10, 10, 10}); got != 0 {
		t.Errorf("spread of equal values = %v", got)
	}
	// Quartiles of 1..5 by interpolation are 2 and 4; the median is 3.
	if got := spreadOf([]float64{1, 2, 3, 4, 5}); got < 0.66 || got > 0.67 {
		t.Errorf("spread of 1..5 = %v, want 2/3", got)
	}
}

func TestCountingListenerCountsBothDirections(t *testing.T) {
	wb, _ := smallFixture(t)
	dir := t.TempDir()
	path, _, err := saveSnapshot(wb, dir, "small.snap")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := startCluster(path, wb.Window, phases{})
	if err != nil {
		t.Fatal(err)
	}
	before := cl.wire.Load()
	bits, err := cl.wb.Query(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	if err != nil {
		t.Fatal(err)
	}
	local, err := wb.Query(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(local) {
		t.Error("the cluster and the local engine disagree")
	}
	if cl.wire.Load() <= before {
		t.Error("a remote query moved no bytes through the counting listener")
	}
	if err := cl.stop(); err != nil {
		t.Fatal(err)
	}
}
