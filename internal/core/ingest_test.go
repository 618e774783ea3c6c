package core

import (
	"reflect"
	"sync"
	"testing"

	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/sources"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// mergeBundles concatenates extracts in delivery order — what the
// registries would have shipped as one big batch.
func mergeBundles(parts ...*sources.Bundle) *sources.Bundle {
	out := &sources.Bundle{}
	for _, p := range parts {
		out.Persons = append(out.Persons, p.Persons...)
		out.GPClaims = append(out.GPClaims, p.GPClaims...)
		out.Prescriptions = append(out.Prescriptions, p.Prescriptions...)
		out.Episodes = append(out.Episodes, p.Episodes...)
		out.Municipal = append(out.Municipal, p.Municipal...)
		out.Specialist = append(out.Specialist, p.Specialist...)
		out.Physio = append(out.Physio, p.Physio...)
	}
	return out
}

// wbAtShards builds a store-backed workbench with pinned ingest options:
// at shards 0 over a local engine, which follows appends, and otherwise
// over a coordinator of that many local shards of the store as built.
func wbAtShards(t testing.TB, b *sources.Bundle, opts integrate.Options, window model.Period, shards int) *Workbench {
	t.Helper()
	col, _, err := integrate.Build(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(col)
	eopts := engine.Options{Workers: 4, CacheSize: 64}
	eng := engine.New(st, eopts)
	if shards > 0 {
		if eng, err = engine.NewFromBackends(engine.LocalShards(st.Pin(), shards), eopts); err != nil {
			t.Fatal(err)
		}
	}
	o := opts
	return &Workbench{Store: st, Engine: eng, Window: window, IngestOptions: &o}
}

func ingestQueries(window model.Period) []query.Expr {
	return []query.Expr{
		StudyCriteria(window),
		query.Has{Pred: query.MustCode("ICPC2", "T90|K86")},
		query.And{
			query.Has{Pred: query.TypeIs(model.TypeMedication)},
			query.Has{Pred: query.MustCode("ICPC2", ".*")},
		},
		query.Has{Pred: query.SourceIs(model.SourceHospital)},
	}
}

// TestIncrementalMatchesBatch: a workbench that loads the base extract
// and then Appends two follow-on rounds must be query- and
// indicator-identical to one batch-built from the concatenation — over a
// local engine and over 1, 4 and 16 local shards, both before and after
// compaction.
func TestIncrementalMatchesBatch(t *testing.T) {
	const basePop = 150
	cfg := synth.DefaultConfig(basePop)
	base := synth.Generate(cfg)
	r1 := synth.GenerateAppend(cfg, basePop+1, basePop+10, 1)
	r2 := synth.GenerateAppend(cfg, basePop+11, basePop+18, 2)
	window := cfg.Window()
	// Pin the open-interval horizon: the default moves with each bundle's
	// latest date, which would legitimately diverge the two runs.
	opts := integrate.DefaultOptions()
	opts.OpenIntervalEnd = window.End.AddDays(30)

	combined := mergeBundles(base, r1, r2)
	queries := ingestQueries(window)

	for _, shards := range []int{0, 1, 4, 16} {
		batch := wbAtShards(t, combined, opts, window, shards)
		incr := wbAtShards(t, base, opts, window, 0)
		for _, round := range []*sources.Bundle{r1, r2} {
			if err := incr.Append(round); err != nil {
				t.Fatal(err)
			}
		}
		if g := incr.Engine.Generation(); g != 2 {
			t.Fatalf("shards=%d: generation after two appends = %d", shards, g)
		}
		if incr.Patients() != batch.Patients() || incr.Entries() != batch.Entries() {
			t.Fatalf("shards=%d: incremental %d patients/%d entries, batch %d/%d",
				shards, incr.Patients(), incr.Entries(), batch.Patients(), batch.Entries())
		}

		compare := func(stage string) {
			for qi, q := range queries {
				bb, err := batch.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				ib, err := incr.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				idsB := batch.Store.IDsOf(bb)
				idsI := incr.Store.IDsOf(ib)
				if !reflect.DeepEqual(idsB, idsI) {
					t.Fatalf("shards=%d %s query %d: cohorts diverge (%d batch vs %d incremental)",
						shards, stage, qi, len(idsB), len(idsI))
				}
				indB, err := batch.Indicators(bb)
				if err != nil {
					t.Fatal(err)
				}
				indI, err := incr.Indicators(ib)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(indB, indI) {
					t.Fatalf("shards=%d %s query %d: indicators diverge\nbatch       %+v\nincremental %+v",
						shards, stage, qi, indB, indI)
				}
			}
		}
		compare("pre-compaction")
		if _, err := incr.Compact(); err != nil {
			t.Fatal(err)
		}
		if st, _ := incr.IngestStats(); st.DeltaEntries != 0 {
			t.Fatalf("shards=%d: delta not empty after Compact: %+v", shards, st)
		}
		compare("post-compaction")
	}
}

// TestNoStaleAnswersUnderConcurrentIngest hammers one workbench with
// queries while a writer appends rounds and compacts. Every answer must
// equal the reference interpreter's answer over some generation the
// query's execution overlapped — a stale cache hit or a torn read would
// produce an answer matching no generation. Run with -race in CI.
func TestNoStaleAnswersUnderConcurrentIngest(t *testing.T) {
	const basePop = 120
	const rounds = 8
	cfg := synth.DefaultConfig(basePop)
	window := cfg.Window()
	opts := integrate.DefaultOptions()
	opts.OpenIntervalEnd = window.End.AddDays(30)
	wb := wbAtShards(t, synth.Generate(cfg), opts, window, 0)

	q := query.Has{Pred: query.MustCode("ICPC2", "T90|K86")}

	// refs[g] is the reference answer at generation g, computed by the
	// plain indexed interpreter over a frozen revision. Written only by
	// the writer goroutine; read only after the join.
	refs := make([][]model.PatientID, rounds+1)
	profiles := make([]stats.CohortProfile, rounds+1) // the same cohort's profile, sequentially
	record := func(g uint64) error {
		frozen := wb.Store.Freeze()
		bits, err := query.EvalIndexed(frozen, q)
		if err != nil {
			return err
		}
		refs[g] = frozen.IDsOf(bits)
		profiles[g] = stats.ComputeCohortProfile(frozen.Subset(bits), window)
		return nil
	}
	if err := record(0); err != nil {
		t.Fatal(err)
	}

	type obs struct {
		g0, g1 uint64
		ids    []model.PatientID
	}
	const readers = 4
	samples := make([][]obs, readers)
	errCh := make(chan error, readers+1)
	done := make(chan struct{})
	var wg sync.WaitGroup

	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for round := 1; round <= rounds; round++ {
			first := uint64(basePop + (round-1)*5 + 1)
			b := synth.GenerateAppend(cfg, first, first+4, round)
			if err := wb.Append(b); err != nil {
				errCh <- err
				return
			}
			if err := record(uint64(round)); err != nil {
				errCh <- err
				return
			}
			if round%3 == 0 {
				if _, err := wb.Compact(); err != nil {
					errCh <- err
					return
				}
			}
		}
	}()

	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				g0 := wb.Engine.Generation()
				bits, err := wb.Query(q)
				if err != nil {
					errCh <- err
					return
				}
				g1 := wb.Engine.Generation()
				// Ordinals are append-only, so mapping an older bitset
				// through the current revision's ID table is exact.
				samples[r] = append(samples[r], obs{g0, g1, wb.Store.IDsOf(bits)})
			}
		}(r)
	}
	// One more reader analyses while the writer appends: it reads the
	// frame each generation carries forward, and its profile must be some
	// overlapped generation's. A cohort from before an append no longer
	// fits the population; that refusal is the contract, not a failure.
	type profiled struct {
		g0, g1 uint64
		prof   stats.CohortProfile
	}
	var analysed []profiled
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			g0 := wb.Engine.Generation()
			bits, err := wb.Query(q)
			if err != nil {
				errCh <- err
				return
			}
			prof, err := wb.Engine.Profile(bits, window)
			if err != nil {
				if bits.Len() != wb.Patients() || wb.Engine.Generation() != g0 {
					continue
				}
				errCh <- err
				return
			}
			analysed = append(analysed, profiled{g0, wb.Engine.Generation(), prof})
		}
	}()
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	for _, a := range analysed {
		ok := false
		for g := a.g0; g <= a.g1 && g <= rounds; g++ {
			ok = ok || a.prof == profiles[g]
		}
		if !ok {
			t.Fatalf("profile %+v matches no generation in [%d, %d] — a stale or torn frame", a.prof, a.g0, a.g1)
		}
	}
	if len(analysed) == 0 {
		t.Error("no profile samples collected")
	}

	total := 0
	for r := range samples {
		for _, o := range samples[r] {
			total++
			ok := false
			for g := o.g0; g <= o.g1 && g <= rounds; g++ {
				if reflect.DeepEqual(refs[g], o.ids) {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("reader %d: answer (%d ids) matches no generation in [%d, %d] — stale or torn",
					r, len(o.ids), o.g0, o.g1)
			}
		}
	}
	if total == 0 {
		t.Error("no query samples collected")
	}
}
