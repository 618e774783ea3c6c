package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/stats"
	"pastas/internal/store"
)

// cohortEngines builds fresh engines over the shared parity fixture so
// materialized cohorts cannot leak into other tests' workspaces.
func cohortEngines(t testing.TB) (*model.Collection, *store.Store, []*Engine) {
	t.Helper()
	col, st, _ := parityEngines(t)
	var engines []*Engine
	for _, shards := range []int{1, 4, 16} {
		engines = append(engines, New(st, Options{Shards: shards, Workers: 4, CacheSize: 32}))
	}
	return col, st, engines
}

// TestCohortRefineParityFixed drives the recognizer through every mode
// — exact, narrow, widen, narrow-with-negation, scratch — and checks
// each refined bitset against the per-history scan, the legacy
// interpreter, and a from-scratch Execute, at shard counts {1, 4, 16}.
func TestCohortRefineParityFixed(t *testing.T) {
	col, st, engines := cohortEngines(t)
	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	narrow := query.And{parent, query.SexIs(model.SexFemale)}
	widen := query.Or{parent, query.Has{Pred: query.TypeIs(model.TypeMedication)}}
	excl := query.And{parent, query.Not{E: query.Has{Pred: query.MustCode("", `K8.`)}}}

	for _, e := range engines {
		ctx := context.Background()
		info, err := e.Materialize(ctx, "diag", parent)
		if err != nil {
			t.Fatalf("shards=%d Materialize: %v", e.NumShards(), err)
		}
		if want := scanBits(col, st, parent); info.Count != want.Count() {
			t.Fatalf("shards=%d materialized count %d, scan %d", e.NumShards(), info.Count, want.Count())
		}

		cases := []struct {
			name string
			q    query.Expr
			mode string
		}{
			{"exact", parent, RefineExact},
			{"narrow", narrow, RefineNarrow},
			{"widen", widen, RefineWiden},
			{"excl", excl, RefineNarrow},
			{"scratch", query.Has{Pred: query.TypeIs(model.TypeStay)}, RefineScratch},
		}
		for _, tc := range cases {
			_, ref, err := e.Refine(ctx, "r-"+tc.name, tc.q)
			if err != nil {
				t.Fatalf("shards=%d Refine(%s): %v", e.NumShards(), tc.name, err)
			}
			if ref.Mode != tc.mode {
				t.Errorf("shards=%d Refine(%s): mode %q, want %q", e.NumShards(), tc.name, ref.Mode, tc.mode)
			}
			if tc.mode != RefineScratch && ref.Seed != "diag" {
				t.Errorf("shards=%d Refine(%s): seed %q, want \"diag\"", e.NumShards(), tc.name, ref.Seed)
			}
			if ref.Pushed {
				t.Errorf("shards=%d Refine(%s): Pushed=true on a local engine", e.NumShards(), tc.name)
			}
			bits, _, err := e.CohortBits("r-" + tc.name)
			if err != nil {
				t.Fatalf("shards=%d CohortBits(%s): %v", e.NumShards(), tc.name, err)
			}
			want := scanBits(col, st, tc.q)
			if !bits.Equal(want) {
				t.Errorf("shards=%d Refine(%s) diverges from scan: %d vs %d",
					e.NumShards(), tc.name, bits.Count(), want.Count())
			}
			legacy, err := query.EvalIndexed(st, tc.q)
			if err != nil {
				t.Fatalf("EvalIndexed(%s): %v", tc.name, err)
			}
			if !bits.Equal(legacy) {
				t.Errorf("shards=%d Refine(%s) diverges from EvalIndexed", e.NumShards(), tc.name)
			}
			fresh, err := e.Execute(tc.q)
			if err != nil {
				t.Fatalf("shards=%d Execute(%s): %v", e.NumShards(), tc.name, err)
			}
			if !bits.Equal(fresh) {
				t.Errorf("shards=%d Refine(%s) diverges from from-scratch Execute", e.NumShards(), tc.name)
			}
		}
	}
}

// TestCohortRefineParityRandom is the property test: a random parent
// cohort refined by random narrowing / widening / excluding deltas must
// be bit-identical to the per-history scan regardless of which mode the
// recognizer picks.
func TestCohortRefineParityRandom(t *testing.T) {
	col, st, engines := cohortEngines(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		parent := randExpr(r, 1)
		delta := randLeaf(r)
		e := engines[r.Intn(len(engines))]
		ctx := context.Background()
		if _, err := e.Materialize(ctx, "p", parent); err != nil {
			t.Fatalf("Materialize(%s): %v", parent, err)
		}
		for name, q := range map[string]query.Expr{
			"n": query.And{parent, delta},
			"w": query.Or{parent, delta},
			"x": query.And{parent, query.Not{E: delta}},
		} {
			_, _, err := e.Refine(ctx, name, q)
			if err != nil {
				t.Fatalf("Refine(%s): %v", q, err)
			}
			bits, _, err := e.CohortBits(name)
			if err != nil {
				t.Fatal(err)
			}
			if want := scanBits(col, st, q); !bits.Equal(want) {
				t.Errorf("shards=%d refine %s diverges from scan for %s: %d vs %d",
					e.NumShards(), name, q, bits.Count(), want.Count())
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestCohortInvalidationAcrossGenerations: a cohort materialized at
// generation G must be invisible at G+1 — not droppable, not listed, not
// a seed for Explain or Refine — because the population it was computed
// over no longer exists.
func TestCohortInvalidationAcrossGenerations(t *testing.T) {
	st := store.New(fbCollection(300))
	e := New(st, Options{Shards: 4, CacheSize: 32})
	ctx := context.Background()

	parent := valueScan(0, 94)
	if _, err := e.Materialize(ctx, "base", parent); err != nil {
		t.Fatal(err)
	}
	if got := e.Cohorts(); len(got) != 1 || got[0].Name != "base" {
		t.Fatalf("Cohorts() = %+v, want one entry \"base\"", got)
	}
	narrow := query.And{parent, valueScan(90, 94)}
	x, err := e.Explain(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if x.Seed == nil || x.Seed.Cohort != "base" || x.Seed.Mode != RefineNarrow {
		t.Fatalf("Explain before append: seed %+v, want narrow from \"base\"", x.Seed)
	}

	appendPatient(t, st, 10001, 50)

	if e.DropCohort("base") { // first, before anything else reads the new generation
		t.Error("DropCohort dropped a cohort the append had already invalidated")
	}
	if got := e.Cohorts(); len(got) != 0 {
		t.Fatalf("Cohorts() after append = %+v, want empty: a generation-G cohort must not survive G+1", got)
	}
	x, err = e.Explain(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if x.Seed != nil {
		t.Fatalf("Explain after append still reports seed %+v — a stale cohort is seeding plans", x.Seed)
	}
	_, ref, err := e.Refine(ctx, "post", narrow)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Mode != RefineScratch {
		t.Fatalf("Refine after append: mode %q, want scratch (stale cohort must not seed)", ref.Mode)
	}
}

// TestWorkspaceEvictsLeastRecentlyUsed: one generation holds at most
// workspaceSize cohorts; saving one more evicts the least recently saved
// or read.
func TestWorkspaceEvictsLeastRecentlyUsed(t *testing.T) {
	e := New(store.New(fbCollection(50)), Options{Shards: 1})
	name := func(i int) string { return fmt.Sprintf("c%04d", i) }
	for i := 0; i <= workspaceSize; i++ {
		if i == workspaceSize {
			e.CohortBits(name(0)) // the oldest save becomes the latest read
		}
		if _, err := e.Materialize(context.Background(), name(i), query.TrueExpr{}); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.Cohorts()); n != workspaceSize {
		t.Fatalf("%d cohorts listed, want %d", n, workspaceSize)
	}
	for i, kept := range map[int]bool{0: true, 1: false, 2: true, workspaceSize: true} {
		if _, _, err := e.CohortBits(name(i)); (err == nil) != kept {
			t.Errorf("cohort %s: kept = %v, want %v", name(i), err == nil, kept)
		}
	}
}

// TestCohortRefineAfterAppendParity: re-materializing after an append
// and refining again must be parity-identical to a from-scratch
// evaluation over the grown population.
func TestCohortRefineAfterAppendParity(t *testing.T) {
	col := fbCollection(300)
	st := store.New(col)
	e := New(st, Options{Shards: 4, CacheSize: 32})
	ctx := context.Background()

	parent := valueScan(0, 94)
	narrow := query.And{parent, valueScan(40, 60)}
	if _, err := e.Materialize(ctx, "base", parent); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 3; i++ {
		appendPatient(t, st, model.PatientID(20001+i), float64(45+i*20))
	}

	// Re-materialize at the new generation, then refine: the narrow path
	// must see the appended patients.
	if _, err := e.Materialize(ctx, "base", parent); err != nil {
		t.Fatal(err)
	}
	_, ref, err := e.Refine(ctx, "narrow", narrow)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Mode != RefineNarrow || ref.Seed != "base" {
		t.Fatalf("re-materialized refine: %+v, want narrow seeded by \"base\"", ref)
	}
	bits, _, err := e.CohortBits("narrow")
	if err != nil {
		t.Fatal(err)
	}
	want := scanBits(st.Collection(), st, narrow)
	if !bits.Equal(want) {
		t.Fatalf("refine after append diverges from scan: %d vs %d", bits.Count(), want.Count())
	}
	fresh, err := e.Execute(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if !bits.Equal(fresh) {
		t.Fatal("refine after append diverges from from-scratch Execute")
	}
}

// TestCohortProfileMergeParity: the per-shard partial profiles must
// merge to exactly the sequential single-pass aggregation, at every
// shard count.
func TestCohortProfileMergeParity(t *testing.T) {
	col, st, engines := cohortEngines(t)
	window := model.Period{Start: model.Date(2005, 1, 1), End: model.Date(2015, 1, 1)}
	exprs := []query.Expr{
		query.TrueExpr{},
		query.Has{Pred: query.TypeIs(model.TypeDiagnosis)},
		query.And{query.SexIs(model.SexFemale), query.Has{Pred: query.TypeIs(model.TypeMedication)}},
	}
	for _, q := range exprs {
		bits := scanBits(col, st, q)
		var cohort []*model.History
		for i, h := range col.Histories() {
			if bits.Get(i) {
				cohort = append(cohort, h)
			}
		}
		want := stats.ComputeCohortProfile(model.MustCollection(cohort...), window)
		for _, e := range engines {
			got, err := e.Profile(bits, window)
			if err != nil {
				t.Fatalf("shards=%d Profile(%s): %v", e.NumShards(), q, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("shards=%d Profile(%s) merge diverges:\n got  %+v\n want %+v",
					e.NumShards(), q, got, want)
			}
		}
	}
}

// TestExplainSeedAnnotation checks the human-readable mask provenance:
// the explain output names the seeding cohort, its cardinality, and
// whether the mask is applied locally or pushed down.
func TestExplainSeedAnnotation(t *testing.T) {
	_, st, _ := cohortEngines(t)
	e := New(st, Options{Shards: 4, CacheSize: 32})
	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	if _, err := e.Materialize(context.Background(), "diag", parent); err != nil {
		t.Fatal(err)
	}
	x, err := e.Explain(query.And{parent, query.SexIs(model.SexFemale)})
	if err != nil {
		t.Fatal(err)
	}
	if x.Seed == nil {
		t.Fatal("Explain.Seed == nil for a narrowing refinement of a materialized cohort")
	}
	if x.Seed.Cohort != "diag" || x.Seed.Mode != RefineNarrow || x.Seed.Pushed {
		t.Fatalf("SeedInfo = %+v, want local narrow from \"diag\"", x.Seed)
	}
	if x.Seed.Delta == "" {
		t.Fatal("SeedInfo.Delta empty: the delta fragment must be named")
	}
	out := x.String()
	if !strings.Contains(out, `seed: cohort "diag"`) || !strings.Contains(out, "masked locally") {
		t.Fatalf("explain output missing seed annotation:\n%s", out)
	}

	// An exact match explains as answering from cache.
	x, err = e.Explain(parent)
	if err != nil {
		t.Fatal(err)
	}
	if x.Seed == nil || x.Seed.Mode != RefineExact || x.Seed.Pushed {
		t.Fatalf("exact SeedInfo = %+v", x.Seed)
	}
	if !strings.Contains(x.String(), "refine executes nothing") {
		t.Fatalf("exact explain output missing annotation:\n%s", x.String())
	}
}

// TestCohortValidation: hostile names and opaque expressions are loud
// errors, never saved cohorts.
func TestCohortValidation(t *testing.T) {
	_, st, _ := cohortEngines(t)
	e := New(st, Options{Shards: 2, CacheSize: 0})
	ctx := context.Background()
	ok := query.TrueExpr{}

	bad := []string{"", strings.Repeat("x", 201), "new\nline", "nul\x00byte", "del\x7f"}
	for _, name := range bad {
		if _, err := e.Materialize(ctx, name, ok); err == nil {
			t.Errorf("Materialize(%q) accepted a hostile name", name)
		}
	}

	opaque := query.Has{Pred: opaquePred{name: "f", fn: func(*model.Entry) bool { return true }}}
	if _, err := e.Materialize(ctx, "f", opaque); err == nil {
		t.Error("Materialize accepted an opaque expression")
	}
	if _, _, err := e.Refine(ctx, "f", opaque); err == nil {
		t.Error("Refine accepted an opaque expression")
	}
	if _, ok := e.workspaceEntries(); ok {
		t.Error("rejected cohorts leaked into the workspace")
	}

	if _, _, err := e.CohortBits("missing"); err == nil {
		t.Error("CohortBits(missing) must error")
	}
}

// workspaceEntries reports whether the engine's workspace holds any
// entry at the current generation (test-only helper).
func (e *Engine) workspaceEntries() (int, bool) {
	cs := e.Cohorts()
	return len(cs), len(cs) > 0
}
