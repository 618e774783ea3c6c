package main

// The four workloads. All are closed-loop with one client goroutine; the
// timed phase starts whole sessions until --seconds have passed, so every
// sample is a complete operation. Count metrics come from the traced
// pass, which replays fixed operation counts and therefore repeats
// exactly for a seed.

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/query"
	"pastas/internal/store"
	"pastas/internal/webapp"
)

const (
	warmupSessions = 20 // untimed, before every measured phase
	oracleSpecs    = 16 // pool specs checked against query.EvalIndexed in set-up
)

// checkOracle evaluates seed-chosen pool specs with the repo's oracle and
// with the engine under test; the counts must agree.
func checkOracle(r *run, pool *specPool, oracle *store.Store, wb *core.Workbench) error {
	rnd := newRNG(r.seed, "oracle")
	for k := 0; k < oracleSpecs; k++ {
		ps := pool.specs[rnd.intn(len(pool.specs))]
		expr, err := ps.Spec.Compile()
		if err != nil {
			return fmt.Errorf("oracle: compile %s: %w", ps.JSON, err)
		}
		want, err := query.EvalIndexed(oracle, expr)
		if err != nil {
			return fmt.Errorf("oracle: %s: %w", ps.JSON, err)
		}
		got, err := wb.Query(expr)
		if err != nil {
			return fmt.Errorf("oracle: engine: %s: %w", ps.JSON, err)
		}
		if got.Count() != want.Count() {
			r.problem("oracle: %s: engine %d, query.EvalIndexed %d", ps.JSON, got.Count(), want.Count())
		}
	}
	r.info["oracle_specs_checked"] = oracleSpecs
	return nil
}

// warmupProblems reports operations that failed before the measured phase.
func warmupProblems(r *run, rec *recorder) {
	if rec.failed > 0 {
		r.problem("warm-up: %d failed ops, first: %v", rec.failed, rec.failures)
	}
}

// sessionWorkload is session-local and session-remote: the same sessions,
// same seed, same specs, over a local 8-shard engine or over a
// coordinator on two loopback shard servers.
type sessionWorkload struct {
	remote bool

	local *core.Workbench // the fixture; also the oracle's store
	dir   string
	snap  string
	saved *store.SnapshotInfo // the snapshot the cluster serves
	cl    *cluster
	h     http.Handler
	in    *sessionInputs
	chk   *checker
	next  int    // next session index
	warm  counts // the warm-up's counters, for the traced pass's replay check
}

// target is the workbench the HTTP server fronts.
func (w *sessionWorkload) target() *core.Workbench {
	if w.remote {
		return w.cl.wb
	}
	return w.local
}

func (w *sessionWorkload) setup(r *run) error {
	var err error
	if w.local, err = buildRich(r.ph); err != nil {
		return err
	}
	v := vocabOf(w.local.Store)
	pool, err := newSpecPool(v, r.seed)
	if err != nil {
		return err
	}
	if w.in, err = newSessionInputs(v, richPatients, pool, r.seed); err != nil {
		return err
	}
	if w.remote {
		if w.dir, err = newWorkDir(); err != nil {
			return err
		}
		err = r.ph.timed("store.snapshot_save_s", func() error {
			w.snap, w.saved, err = saveSnapshot(w.local, w.dir, "rich.snap")
			return err
		})
		if err != nil {
			return err
		}
		if w.cl, err = startCluster(w.snap, w.local.Window, r.ph); err != nil {
			return err
		}
	}
	if err := w.checkOracle(r, pool); err != nil {
		return err
	}
	w.h = webapp.NewServer(w.target(), webapp.DefaultConfig())
	w.chk = newChecker(w.local.Store)
	if w.remote && !r.trace {
		// In one process the coordinator, both shard servers and the
		// fixture share a heap, and every collection marks all of it. The
		// fixture has done its work (snapshot saved, oracle checked), so
		// the timed phase lets it go rather than time its garbage
		// collection; refinements are then not re-checked by the oracle
		// here — the answers digest must equal session-local's instead.
		// The traced pass keeps the fixture: its single-layer timings
		// read the store.
		w.local, w.chk.oracle = nil, nil
	}
	warm := &driver{h: w.h, rec: newRecorder(), chk: w.chk}
	before := readCounts(w.target().Engine, w.cl)
	for ; w.next < warmupSessions; w.next++ {
		if err := warm.session(w.in, w.next); err != nil {
			return err
		}
	}
	w.warm = readCounts(w.target().Engine, w.cl).since(before, warm.rec, w.chk)
	warmupProblems(r, warm.rec)
	runtime.GC()
	return nil
}

// checkOracle runs the set-up oracle check without leaving a trace in the
// system under test: a local engine's caches are reset afterwards; a
// cluster is checked through a second, throw-away coordinator, so the
// measured one's connections are as fresh at the warm-up as they are when
// the traced pass replays it (wire bytes repeat exactly only then).
func (w *sessionWorkload) checkOracle(r *run, pool *specPool) error {
	if !w.remote {
		defer w.local.Engine.ResetCache()
		return checkOracle(r, pool, w.local.Store, w.local)
	}
	probe, err := core.Connect(w.cl.addrs, engine.RemoteOptions{}, engineOptions(128), w.local.Window)
	if err != nil {
		return err
	}
	defer probe.Close()
	return checkOracle(r, pool, w.local.Store, probe)
}

// digestSessions is how many sessions (warm-up included) the answers
// digest covers: a fixed prefix, so a time-bounded run prints the same
// digest whatever number of sessions it completes beyond it.
const digestSessions = warmupSessions + traceSessions

func (w *sessionWorkload) measure(r *run) error {
	r.rec = newRecorder()
	d := &driver{h: w.h, rec: r.rec, chk: w.chk}
	stop := r.deadline(time.Now())
	for time.Now().Before(stop) {
		if err := d.session(w.in, w.next); err != nil {
			return err
		}
		w.next++
		if w.next == digestSessions {
			r.info["answers_digest"] = fmt.Sprintf("%016x", w.chk.digest)
			r.info["answers_digest_sessions"] = digestSessions
		}
	}
	r.info["sessions"] = w.next - warmupSessions
	r.info["refine_modes"] = r.rec.modes
	return nil
}

func (w *sessionWorkload) teardown() error {
	var first error
	if w.cl != nil {
		first = w.cl.stop()
	}
	if w.local != nil {
		if err := w.local.Close(); err != nil && first == nil {
			first = err
		}
	}
	if w.dir != "" {
		if err := os.RemoveAll(w.dir); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// scanWorkload is scan-1m: direct engine calls on the thin million-patient
// fixture with the result cache off. Per-shard scan evaluation, feedback
// planning, fan-out/merge and the container kernels dominate; caches,
// HTTP and codecs are bypassed.
type scanWorkload struct {
	st   *store.Store
	eng  *engine.Engine
	next int
}

func (w *scanWorkload) setup(r *run) error {
	t0 := time.Now()
	w.st = thinStore(thinPatients)
	r.ph["store.new_s"] = time.Since(t0).Seconds()
	w.eng = engine.New(w.st, engineOptions(0))
	// The oracle check: the first operations' exact band arithmetic must
	// agree with query.EvalIndexed, so the arithmetic itself is checked.
	for i := 0; i < 2; i++ {
		op := newScanOp(r.seed, i, thinPatients)
		want, err := query.EvalIndexed(w.st, op.Query)
		if err != nil {
			return err
		}
		if want.Count() != op.Want {
			r.problem("oracle: scan op %d: band arithmetic %d, query.EvalIndexed %d", i, op.Want, want.Count())
		}
	}
	// The refine class's wide parents, materialized untimed, once.
	for _, p := range scanParents(r.seed) {
		if _, err := w.eng.Materialize(context.Background(), p.name(), p.expr()); err != nil {
			return fmt.Errorf("materialize %s: %w", p.name(), err)
		}
	}
	warm := newRecorder()
	for ; w.next < warmupSessions; w.next++ {
		if err := w.op(warm, w.next, r.seed, nil); err != nil {
			return err
		}
	}
	warmupProblems(r, warm)
	runtime.GC()
	return nil
}

// op runs iteration i: one query op and one refine op, each from cold
// caches (ResetCache is untimed), each checked against the exact count.
func (w *scanWorkload) op(rec *recorder, i int, seed uint64, sink spanSink) error {
	op := newScanOp(seed, i, thinPatients)
	ctx := context.Background()

	w.eng.ResetCache()
	t0 := time.Now()
	bits, err := w.eng.Execute(op.Query)
	qd := time.Since(t0)
	if sink != nil {
		sink("query", i, t0, qd)
	}
	rec.op("query", qd)
	if err != nil {
		rec.fail("scan query %d: %v", i, err)
	} else if bits.Count() != op.Want {
		rec.fail("scan query %d: count %d, want %d", i, bits.Count(), op.Want)
	}

	// The parent was materialized in set-up (saved cohorts survive
	// ResetCache: they are user state, not derived state).
	w.eng.ResetCache()
	t0 = time.Now()
	info, ref, err := w.eng.Refine(ctx, "child", query.And{op.Parent, op.Delta})
	rd := time.Since(t0)
	if sink != nil {
		sink("refine", i, t0, rd)
	}
	rec.op("refine", rd)
	rec.modes[ref.Mode]++
	if err != nil {
		rec.fail("scan refine %d: %v", i, err)
	} else if info.Count != op.RefineWant {
		rec.fail("scan refine %d: count %d, want %d", i, info.Count, op.RefineWant)
	}
	w.eng.DropCohort("child")
	rec.add("session", qd+rd)
	return nil
}

func (w *scanWorkload) measure(r *run) error {
	r.rec = newRecorder()
	stop := r.deadline(time.Now())
	for time.Now().Before(stop) {
		if err := w.op(r.rec, w.next, r.seed, nil); err != nil {
			return err
		}
		w.next++
	}
	r.info["sessions"] = w.next - warmupSessions
	r.info["refine_modes"] = r.rec.modes
	return nil
}

func (w *scanWorkload) teardown() error {
	if w.eng == nil {
		return nil
	}
	return w.eng.Close()
}
