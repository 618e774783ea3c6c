package main

// ingest-mixed: the rich fixture reopened from its snapshot into a mutable
// workbench, then rounds of append → counts → one refine chain →
// timelines of just-updated patients. Every append advances the store
// generation, so the plan memo, the result cache and the refine seeds are
// invalidated and delta postings lengthen reads: a read-path gain bought
// with append, compaction or snapshot cost shows here, and so does the
// reverse. Writer and reader alternate on the one client; the only
// concurrency is the program's own background compaction.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"pastas/internal/core"
	"pastas/internal/model"
	"pastas/internal/store"
	"pastas/internal/webapp"
)

const (
	roundQueries   = 10
	compactEvery   = 10 // an explicit Compact() every 10th round
	warmupRounds   = 2
	reopenChecks   = 1 // Save → core.Open round trips after the timed phase
	reopenMeasured = 3 // … and after the traced pass, where reopen_s is measured
)

type ingestWorkload struct {
	dir    string
	snap   string
	window model.Period
	wb     *core.Workbench
	h      http.Handler
	in     *sessionInputs
	chk    *checker
	next   int // next round
	// afterIngest, when set, runs right after each ingest request (the
	// traced pass reads the pending delta there).
	afterIngest func()
	// saved is the layout of the last post-ingest snapshot reopen wrote.
	saved *store.SnapshotInfo
}

func (w *ingestWorkload) setup(r *run) error {
	built, err := buildRich(r.ph)
	if err != nil {
		return err
	}
	w.window = built.Window
	if w.dir, err = newWorkDir(); err != nil {
		return err
	}
	err = r.ph.timed("store.snapshot_save_s", func() error {
		w.snap, _, err = saveSnapshot(built, w.dir, "rich.snap")
		return err
	})
	if err != nil {
		return err
	}
	built = nil // the mutable workbench below is the only copy kept
	err = r.ph.timed("store.snapshot_load_s", func() error {
		w.wb, err = openSnapshot(w.snap, w.window)
		return err
	})
	if err != nil {
		return err
	}
	v := vocabOf(w.wb.Store)
	pool, err := newSpecPool(v, r.seed)
	if err != nil {
		return err
	}
	if w.in, err = newSessionInputs(v, richPatients, pool, r.seed); err != nil {
		return err
	}
	if err := checkOracle(r, pool, w.wb.Store, w.wb); err != nil {
		return err
	}
	w.wb.Engine.ResetCache()
	w.h = webapp.NewServer(w.wb, webapp.DefaultConfig())
	w.chk = newChecker(w.wb.Store)
	warm := &driver{h: w.h, rec: newRecorder(), chk: w.chk}
	for ; w.next < warmupRounds; w.next++ {
		if err := w.round(warm, w.next, r.seed); err != nil {
			return err
		}
	}
	warmupProblems(r, warm.rec)
	runtime.GC()
	return nil
}

// ingestReply is what POST /api/ingest answers with.
type ingestReply struct {
	Generation uint64 `json:"generation"`
	Patients   int    `json:"patients"`
}

// round runs round i: the analyst saves a base cohort, new data arrives
// (one ingest request), then ten counts, the three refinements of the
// base — which the append has just invalidated, so the first of them
// cannot be seeded and runs from scratch — two timelines of patients the
// bundle updated, and an explicit compaction every tenth round. The whole
// round is the workload's "session".
func (w *ingestWorkload) round(d *driver, i int, seed uint64) error {
	ab, err := newAppendBundle(richPatients, seed, i)
	if err != nil {
		return err
	}
	sp, err := w.in.plan(i)
	if err != nil {
		return err
	}
	rnd := newRNG(seed, fmt.Sprintf("round-%d", i))

	names := chainNames(fmt.Sprintf("r%d", i))
	total := d.saveBase(names[0], sp.Chain[0])

	resp, dur := d.do("ingest", "POST", "/api/ingest?"+pw, ab.JSON)
	total += dur
	d.rec.add("ingest", dur)
	d.rec.sums["ingest_patients"] += float64(ab.Patients)
	d.rec.sums["ingest_s"] += dur.Seconds()
	if resp.Code == 200 {
		var out ingestReply
		if err := json.Unmarshal(resp.Body.Bytes(), &out); err != nil {
			d.rec.fail("ingest round %d: bad reply: %v", i, err)
		} else {
			d.chk.gen = out.Generation
			if want := richPatients + (i+1)*newPerRound; out.Patients != want {
				d.rec.fail("ingest round %d: population %d, want %d", i, out.Patients, want)
			}
		}
	}

	if w.afterIngest != nil {
		w.afterIngest()
	}

	for k := 0; k < roundQueries; k++ {
		_, dur := d.queryCount(w.in.pool.specs[w.in.pool.draw(rnd)].JSON)
		d.rec.add("query", dur)
		total += dur
	}

	total += d.refineSteps(names, sp.Chain)

	for k := 0; k < 2; k++ {
		total += d.timeline(ab.Updated[rnd.intn(len(ab.Updated))])
	}
	total += d.drop(names[1:]) // the base went with the generation it was saved at

	if (i+1)%compactEvery == 0 {
		t0 := time.Now()
		_, err := w.wb.Compact()
		dur := time.Since(t0)
		d.rec.op("compact", dur)
		total += dur
		if err != nil {
			d.rec.fail("compact round %d: %v", i, err)
		}
	}
	d.rec.add("session", total)
	return nil
}

func (w *ingestWorkload) measure(r *run) error {
	r.rec = newRecorder()
	d := &driver{h: w.h, rec: r.rec, chk: w.chk}
	stop := r.deadline(time.Now())
	for time.Now().Before(stop) {
		if err := w.round(d, w.next, r.seed); err != nil {
			return err
		}
		w.next++
	}
	r.info["sessions"] = w.next - warmupRounds
	r.info["refine_modes"] = r.rec.modes
	r.info["answers_digest"] = fmt.Sprintf("%016x", w.chk.digest)
	r.info["append_patients_per_s"] = ratio(r.rec.sums["ingest_patients"], r.rec.sums["ingest_s"])
	_, _, err := w.reopen(r, reopenChecks)
	return err
}

// reopen saves the post-ingest workbench and reopens it n times, checking
// that population, entries and a seed-chosen spec's count survive the
// round trip. It returns each Save's and each core.Open's duration in
// seconds.
func (w *ingestWorkload) reopen(r *run, n int) (saves, opens []float64, err error) {
	ps := w.in.pool.specs[newRNG(r.seed, "reopen").intn(poolSize)]
	expr, err := ps.Spec.Compile()
	if err != nil {
		return nil, nil, err
	}
	before, err := w.wb.Query(expr)
	if err != nil {
		return nil, nil, err
	}
	for k := 0; k < n; k++ {
		t0 := time.Now()
		path, info, err := saveSnapshot(w.wb, w.dir, "post-ingest.snap")
		if err != nil {
			return nil, nil, err
		}
		w.saved = info
		saves = append(saves, time.Since(t0).Seconds())
		t0 = time.Now()
		re, err := openSnapshot(path, w.window)
		if err != nil {
			return nil, nil, fmt.Errorf("reopen: %w", err)
		}
		opens = append(opens, time.Since(t0).Seconds())
		after, err := re.Query(expr)
		if err != nil {
			return nil, nil, err
		}
		if re.Patients() != w.wb.Patients() || re.Entries() != w.wb.Entries() || after.Count() != before.Count() {
			r.problem("reopen %d: %d patients / %d entries / count %d, want %d / %d / %d", k,
				re.Patients(), re.Entries(), after.Count(), w.wb.Patients(), w.wb.Entries(), before.Count())
		}
		if err := re.Close(); err != nil {
			return nil, nil, err
		}
	}
	r.info["reopen_round_trips"] = n
	return saves, opens, nil
}

func (w *ingestWorkload) teardown() error {
	var first error
	if w.wb != nil {
		first = w.wb.Close()
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}
