package main

// The traced pass of ingest-mixed. Appends cannot be replayed on one
// store, so the rungs of the ingest operation run on three workbenches
// opened from the same snapshot and fed the same bundles in the same
// order: A takes them through POST /api/ingest (and runs the rest of the
// round), B through Workbench.Append, C through integrate.Consumer.Consume
// and Store.Append called apart, then folds its delta with Compact. The
// read-path ladder then runs on A at its post-ingest state.

import (
	"time"

	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/store"
)

const traceRounds = 12

func (w *ingestWorkload) traced(r *run) error {
	tr := newTracer()
	r.tr = tr
	wbB, err := openSnapshot(w.snap, w.window)
	if err != nil {
		return err
	}
	defer wbB.Close()
	wbC, err := openSnapshot(w.snap, w.window)
	if err != nil {
		return err
	}
	defer wbC.Close()
	stC := wbC.Store
	consumer := integrate.NewConsumer(integrate.DefaultOptions(), func(person uint64) (model.Time, bool) {
		v := stC.Pin()
		if o, ok := v.Ordinal(model.PatientID(person)); ok {
			return v.HistoryAt(o).Patient.Birth, true
		}
		return 0, false
	}, stC.MaxEntryID()+1)

	rec := newRecorder()
	d := &driver{h: w.h, rec: rec, chk: w.chk}
	compactions := w.wb.Store.Ingest().Compactions
	cache := w.wb.Engine.CacheStats()
	deltaPeak := 0
	w.afterIngest = func() { deltaPeak = max(deltaPeak, w.wb.Store.Ingest().DeltaEntries) }
	defer func() { w.afterIngest = nil }()
	first := w.next
	var consumeUS, appendUS, compactUS, coreSelfUS []float64
	for ; w.next < first+traceRounds; w.next++ {
		ab, err := newAppendBundle(richPatients, r.seed, w.next)
		if err != nil {
			return err
		}
		// The warm-up rounds ran on A alone: bring B and C level first.
		if w.next == first {
			for i := 0; i < first; i++ {
				prev, err := newAppendBundle(richPatients, r.seed, i)
				if err != nil {
					return err
				}
				if err := wbB.Append(prev.Bundle); err != nil {
					return err
				}
				batch, err := consumer.Consume(prev.Bundle)
				if err != nil {
					return err
				}
				if _, err := stC.Append(storeBatch(batch)); err != nil {
					return err
				}
				stC.Compact()
			}
		}
		if err := w.round(d, w.next, r.seed); err != nil {
			return err
		}

		core, err := tr.timed("ingest/core", w.next, -1, func() error { return wbB.Append(ab.Bundle) })
		if err != nil {
			return err
		}
		// B's Append may have started a background compaction; let it
		// finish before timing C on the same two cores.
		for stop := time.Now().Add(time.Second); wbB.Store.Ingest().DeltaEntries > 0 && time.Now().Before(stop); {
			time.Sleep(time.Millisecond)
		}

		var batch *integrate.Batch
		consume, err := tr.timed("ingest/consume", w.next, core, func() error {
			var err error
			batch, err = consumer.Consume(ab.Bundle)
			return err
		})
		if err != nil {
			return err
		}
		apply, err := tr.timed("ingest/store_append", w.next, core, func() error {
			_, err := stC.Append(storeBatch(batch))
			return err
		})
		if err != nil {
			return err
		}
		compact, _ := tr.timed("ingest/compact", w.next, -1, func() error { stC.Compact(); return nil })
		consumeUS, appendUS, compactUS = append(consumeUS, tr.us(consume)), append(appendUS, tr.us(apply)), append(compactUS, tr.us(compact))
		coreSelfUS = append(coreSelfUS, tr.us(core)-tr.us(consume)-tr.us(apply))
	}
	r.rec = rec
	r.info["refine_modes"] = rec.modes

	v := r.values
	v["integrate.consume_us"] = median(consumeUS)
	v["store.append_us"] = median(appendUS)
	v["store.compact_us"] = median(compactUS)
	v["core.append_self_us"] = median(coreSelfUS)
	// Background compaction is single-flight and asynchronous: its count is
	// the one counter exempt from the repeat-exactly rule.
	v["store.compactions_count"] = float64(w.wb.Store.Ingest().Compactions - compactions)
	v["store.delta_entries_peak"] = float64(deltaPeak)
	v["ingest.append_patients_per_s"] = ratio(rec.sums["ingest_patients"], rec.sums["ingest_s"])
	v["step.timeline_p50_ms"] = median(rec.samples["timeline"])
	refines, seeded := countModes(rec.modes)
	v["engine.refine_seeded_ratio"] = ratio(float64(seeded), float64(refines))
	// The cache's counters are the engine's own and survive a generation;
	// the per-backend ones restart with every append, so
	// engine.backend_calls_per_op is not read here.
	after := w.wb.Engine.CacheStats()
	v["engine.result_cache_hit_ratio"] = ratio(float64(after.Hits-cache.Hits), float64(after.Hits+after.Misses-cache.Hits-cache.Misses))

	// The read path at the post-ingest state: the session workloads'
	// ladder and single-layer timings, on workbench A.
	reads := &sessionWorkload{local: w.wb, h: w.h, in: w.in}
	if err := reads.ladder(r, tr, first, first+traceSessions); err != nil {
		return err
	}
	if err := reads.layers(r, first, first+traceSessions); err != nil {
		return err
	}

	saves, opens, err := w.reopen(r, reopenMeasured)
	if err != nil {
		return err
	}
	v["ingest.reopen_s"] = median(opens)
	v["store.snapshot_save_s"] = median(saves)
	v["store.snapshot_bytes_per_entry"] = ratio(float64(w.saved.Bytes), float64(w.saved.Entries))
	setupPhaseMetrics(r)
	return nil
}

// storeBatch converts an integrated batch into the store's append form,
// as Workbench.Append does.
func storeBatch(b *integrate.Batch) store.AppendBatch {
	ab := store.AppendBatch{NewHistories: b.NewPatients}
	for _, u := range b.Updates {
		ab.Updates = append(ab.Updates, store.HistoryUpdate{ID: u.ID, Entries: u.Entries})
	}
	return ab
}
