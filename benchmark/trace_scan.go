package main

// The traced pass of scan-1m. Every operation starts from reset caches, so
// a replay needs no state to be restored: pass A runs iterations 20–59
// without spans, pass T runs them again with spans, and the ladder replays
// sampled operations at the engine and at the eight local backends.

import (
	"context"
	"fmt"
	"time"

	"pastas/internal/engine"
	"pastas/internal/query"
	"pastas/internal/store"
)

func (w *scanWorkload) traced(r *run) error {
	tr := newTracer()
	r.tr = tr
	first, last := warmupSessions, warmupSessions+traceSessions
	chk := newChecker(nil) // scan-1m checks exact counts itself; the digest is not used

	recA, recT := newRecorder(), newRecorder()
	before := readCounts(w.eng, nil)
	for i := first; i < last; i++ {
		if err := w.op(recA, i, r.seed, nil); err != nil {
			return err
		}
	}
	cA := readCounts(w.eng, nil).since(before, recA, chk)
	before = readCounts(w.eng, nil)
	for i := first; i < last; i++ {
		err := w.op(recT, i, r.seed, func(name string, op int, start time.Time, d time.Duration) {
			tr.add("top/"+name, op, -1, start, d)
		})
		if err != nil {
			return err
		}
	}
	cT := readCounts(w.eng, nil).since(before, recT, chk)

	r.rec = recA
	r.rec.attempted += recT.attempted
	r.rec.failed += recT.failed
	r.rec.failures = append(r.rec.failures, recT.failures...)
	r.info["counts"] = cA
	r.info["refine_modes"] = recA.modes

	v := r.values
	v["trace.nondeterministic_counts"] = float64(compareCounts(r, "traced replay", cA, cT))
	v["engine.result_cache_hit_ratio"] = cA.hitRatio() // the result cache is off: must read 0
	v["engine.backend_calls_per_op"] = ratio(float64(cA.BackendCalls), float64(cA.Ops))
	v["engine.refine_seeded_ratio"] = ratio(float64(cA.Seeded), float64(cA.Refines))
	for _, class := range []string{"query", "refine"} {
		v["trace."+class+"_top_rung_delta_ratio"] = topRungDelta(recT.samples[class], recA.samples[class])
		r.info[class+"_untraced_p50_ms"] = median(recA.samples[class])
		r.info[class+"_traced_p50_ms"] = median(recT.samples[class])
	}

	ctx := context.Background()
	workers := fanOutWorkers
	backends := localBackends(w.st)
	var evalOne, evalMasked, and, or, andnot []float64
	for op := 0; op < ladderOps; op++ {
		so := newScanOp(r.seed, first+op, thinPatients)
		for _, temp := range temperatures {
			name := func(rung string) string { return "query/" + rung + "/" + temp }
			// Warm means the planner's feedback is primed: the result cache
			// is off, so a warm execution recomputes the cohort under the
			// re-planned join order.
			w.eng.ResetCache()
			if temp == "warm" {
				if _, err := w.eng.Execute(so.Query); err != nil {
					return err
				}
			}
			engRung, err := tr.timed(name("engine"), op, -1, func() error {
				_, _, err := w.eng.ExecuteStatus(ctx, so.Query)
				return err
			})
			if err != nil {
				return err
			}
			var plan engine.Plan
			if _, err := tr.timed(name("compile_optimize"), op, -1, func() error {
				p, err := engine.Compile(so.Query)
				plan = engine.OptimizeWithStats(p, w.eng.Stats())
				return err
			}); err != nil {
				return err
			}
			if _, err := tr.timed(name("backends"), op, engRung, func() error {
				return evalAll(backends, workers, plan, nil)
			}); err != nil {
				return err
			}
		}

		// Refine: the narrow step at the engine, the same expression from
		// scratch, and the delta alone at the backends under the parent's mask.
		full := query.And{so.Parent, so.Delta}
		for _, temp := range temperatures {
			w.eng.ResetCache()
			refine := func() error { _, _, err := w.eng.Refine(ctx, "child", full); return err }
			if temp == "warm" {
				if err := refine(); err != nil {
					return err
				}
				w.eng.DropCohort("child")
			}
			narrow, err := tr.timed("refine/engine/"+temp, op, -1, refine)
			if err != nil {
				return err
			}
			tr.alias("refine_mode/narrow/"+temp, narrow)
			w.eng.DropCohort("child")
			// The seed's parents would seed the "scratch" arm too: set them
			// aside for it and put them back after.
			parents := scanParents(r.seed)
			saved := make([]*store.Bitset, len(parents))
			var mask *store.Bitset
			for k, p := range parents {
				bits, _, err := w.eng.CohortBits(p.name())
				if err != nil {
					return err
				}
				saved[k] = bits
				if p.expr().String() == so.Parent.String() {
					mask = bits
				}
				w.eng.DropCohort(p.name())
			}
			if _, err := tr.timed("refine_mode/scratch/"+temp, op, -1, func() error {
				_, err := w.eng.Materialize(ctx, "child", full)
				return err
			}); err != nil {
				return err
			}
			w.eng.DropCohort("child")
			for k, p := range parents {
				if err := w.eng.AdoptCohort(p.name(), p.expr(), saved[k]); err != nil {
					return err
				}
			}
			delta, err := engine.Compile(so.Delta)
			if err != nil {
				return err
			}
			masks := maskSlices(backends, mask)
			if _, err := tr.timed("refine/backends/"+temp, op, narrow, func() error {
				return evalAll(backends, workers, delta, masks)
			}); err != nil {
				return err
			}

			if temp == "warm" {
				continue
			}
			// One shard alone, without and with the parent's mask, and the
			// container kernels on the operation's own operands: the
			// parent cohort and the delta's full-population result.
			us, err := timeUS(1, func() error { _, err := backends[0].EvalPlan(ctx, delta, nil); return err })
			if err != nil {
				return err
			}
			evalOne = append(evalOne, us)
			us, err = timeUS(1, func() error { _, err := backends[0].EvalPlan(ctx, delta, masks[0]); return err })
			if err != nil {
				return err
			}
			evalMasked = append(evalMasked, us)
			other, err := w.eng.Execute(so.Delta)
			if err != nil {
				return err
			}
			x, y, z := kernelsUS(mask, other, 1)
			and, or, andnot = append(and, x), append(or, y), append(andnot, z)
		}
	}

	rows := budget(tr, map[string][]string{
		"query":  {"engine", "backends"},
		"refine": {"engine", "backends"},
	})
	r.info["budget"] = rows
	r.info["budget_table"] = budgetTable(r.workload, rows)
	r.info["operand_containers"] = fmt.Sprintf("%d", (thinPatients+65535)/65536)

	v["engine.compile_optimize_us"] = tr.medianUS("query/compile_optimize/cold")
	v["engine.execute_cold_us"] = tr.medianUS("query/engine/cold")
	v["engine.execute_warm_us"] = tr.medianUS("query/engine/warm")
	v["engine.coordinator_self_us"] = tr.medianSelfUS("query/engine/cold")
	v["engine.refine_narrow_us"] = tr.medianUS("refine_mode/narrow/cold")
	v["engine.refine_scratch_us"] = tr.medianUS("refine_mode/scratch/cold")
	v["engine.local_evalplan_us"] = median(evalOne)
	v["engine.local_evalplan_masked_us"] = median(evalMasked)
	v["store.bitset_and_us"], v["store.bitset_or_us"], v["store.bitset_andnot_us"] = median(and), median(or), median(andnot)
	setupPhaseMetrics(r)
	return nil
}
