package main

// The traced pass of session-local and session-remote.
//
//	A   sessions 20–59, no spans: the exported counters are read before
//	    and after (the count metrics) and the step medians recorded;
//	W'  caches reset (remote: servers restarted), warm-up sessions 0–19
//	    replayed — the counters must equal the first warm-up's;
//	T   sessions 20–59 again, one span per request — the counters must
//	    equal pass A's, and the top-rung medians are compared with A's
//	    (trace.*_top_rung_delta_ratio);
//	L   the ladder: sampled operations of T replayed rung by rung, from
//	    cold caches and after one priming call, plus the single-layer
//	    timings no rung isolates (codecs, kernels, render, analytics).

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"pastas/internal/engine"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/store"
	"pastas/internal/webapp"
)

// reset returns the system under test to the state it had before the
// warm-up: a local engine drops its caches, planner feedback and plan
// memo; a cluster is restarted, because the shard servers' own caches
// cannot be reset from outside.
func (w *sessionWorkload) reset() error {
	if !w.remote {
		w.local.Engine.ResetCache()
		return nil
	}
	if err := w.cl.stop(); err != nil {
		return err
	}
	cl, err := startCluster(w.snap, w.local.Window, phases{})
	if err != nil {
		return err
	}
	w.cl = cl
	w.h = webapp.NewServer(cl.wb, webapp.DefaultConfig())
	return nil
}

// sessions runs sessions [from, to) on one driver.
func (w *sessionWorkload) sessions(d *driver, from, to int) error {
	for i := from; i < to; i++ {
		if err := d.session(w.in, i); err != nil {
			return err
		}
	}
	return nil
}

func (w *sessionWorkload) traced(r *run) error {
	tr := newTracer()
	r.tr = tr
	first, last := warmupSessions, warmupSessions+traceSessions

	// Pass A.
	recA := newRecorder()
	before := readCounts(w.target().Engine, w.cl)
	if err := w.sessions(&driver{h: w.h, rec: recA, chk: w.chk}, first, last); err != nil {
		return err
	}
	cA := readCounts(w.target().Engine, w.cl).since(before, recA, w.chk)

	// Pass W': the warm-up again, from reset state.
	if err := w.reset(); err != nil {
		return err
	}
	chk := newChecker(w.local.Store)
	recW := newRecorder()
	before = readCounts(w.target().Engine, w.cl)
	if err := w.sessions(&driver{h: w.h, rec: recW, chk: chk}, 0, first); err != nil {
		return err
	}
	cW := readCounts(w.target().Engine, w.cl).since(before, recW, chk)
	nondet := compareCounts(r, "warm-up replay", w.warm, cW)

	// Pass T.
	recT := newRecorder()
	before = readCounts(w.target().Engine, w.cl)
	dT := &driver{h: w.h, rec: recT, chk: chk}
	dT.span = func(name string, op int, start time.Time, d time.Duration) {
		tr.add("top/"+name, op, -1, start, d)
	}
	if err := w.sessions(dT, first, last); err != nil {
		return err
	}
	cT := readCounts(w.target().Engine, w.cl).since(before, recT, chk)
	nondet += compareCounts(r, "traced replay", cA, cT)

	r.rec = recA
	r.rec.attempted += recW.attempted + recT.attempted
	r.rec.failed += recW.failed + recT.failed
	r.rec.failures = append(append(r.rec.failures, recW.failures...), recT.failures...)
	r.info["answers_digest"] = fmt.Sprintf("%016x", w.chk.digest)
	r.info["answers_digest_sessions"] = last
	r.info["counts"] = cA
	r.info["refine_modes"] = recA.modes

	v := r.values
	v["trace.nondeterministic_counts"] = float64(nondet)
	v["engine.result_cache_hit_ratio"] = cA.hitRatio()
	v["engine.backend_calls_per_op"] = ratio(float64(cA.BackendCalls), float64(cA.Ops))
	v["engine.remote_bytes_per_op"] = ratio(float64(cA.WireBytes), float64(cA.Ops))
	v["engine.refine_seeded_ratio"] = ratio(float64(cA.Seeded), float64(cA.Refines))
	v["step.characterise_p50_ms"] = median(recA.samples["characterise"])
	v["step.analytics_p50_ms"] = median(recA.samples["analytics"])
	v["step.timeline_p50_ms"] = median(recA.samples["timeline"])
	for _, class := range []string{"query", "refine", "timeline"} {
		v["trace."+class+"_top_rung_delta_ratio"] = topRungDelta(recT.samples[class], recA.samples[class])
		r.info[class+"_untraced_p50_ms"] = median(recA.samples[class])
		r.info[class+"_traced_p50_ms"] = median(recT.samples[class])
	}

	if err := w.ladder(r, tr, first, last); err != nil {
		return err
	}
	if err := w.layers(r, first, last); err != nil {
		return err
	}
	if w.saved != nil {
		v["store.snapshot_bytes_per_entry"] = ratio(float64(w.saved.Bytes), float64(w.saved.Entries))
	}
	setupPhaseMetrics(r)
	return nil
}

// serve sends one request outside any recorder (the ladder times it
// itself) and reports a non-2xx status as an error.
func serve(h http.Handler, method, target string, body []byte) error {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, request(method, target, body))
	if w.Code < 200 || w.Code > 299 {
		return fmt.Errorf("%s %s: status %d: %.200s", method, target, w.Code, w.Body.String())
	}
	return nil
}

// ladderBackends returns the per-shard backends the bottom rung calls: a
// local engine's eight views of the store, or fresh connections to the
// cluster's shard servers.
func (w *sessionWorkload) ladderBackends() ([]engine.ShardBackend, error) {
	if !w.remote {
		return localBackends(w.local.Store), nil
	}
	var out []engine.ShardBackend
	for _, addr := range w.cl.addrs {
		bs, _, err := engine.DialShards(addr, engine.RemoteOptions{})
		if err != nil {
			for _, b := range out {
				b.Close()
			}
			return nil, err
		}
		out = append(out, bs...)
	}
	return out, nil
}

var temperatures = []string{"cold", "warm"}

// rungs is the state the ladder's three op classes share.
type rungs struct {
	w        *sessionWorkload
	tr       *tracer
	ctx      context.Context
	workers  int
	backends []engine.ShardBackend
}

// prepare puts the caches in a rung's starting state. Cache state is made
// identical for every rung of one operation: ResetCache before each rung
// for the cold ladder, one priming call before each rung for the warm one.
func (l *rungs) prepare(temp string, prime func() error) error {
	if temp == "cold" {
		l.w.target().Engine.ResetCache()
		return nil
	}
	return prime()
}

// ladder replays sampled operations of sessions [first, last) rung by
// rung and turns the spans into the budget table and the self-time
// metrics.
func (w *sessionWorkload) ladder(r *run, tr *tracer, first, last int) error {
	backends, err := w.ladderBackends()
	if err != nil {
		return err
	}
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	l := &rungs{w: w, tr: tr, ctx: context.Background(), workers: fanOutWorkers, backends: backends}

	// Query class: the distinct specs the sessions drew, in draw order.
	// Refine class: the sessions' chains.
	var specs []poolSpec
	var plans []sessionPlan
	seen := map[int]bool{}
	for i := first; i < last; i++ {
		sp, err := w.in.plan(i)
		if err != nil {
			return err
		}
		if len(plans) < ladderOps {
			plans = append(plans, sp)
		}
		for _, qi := range sp.Queries {
			if !seen[qi] && len(specs) < ladderOps {
				seen[qi] = true
				specs = append(specs, w.in.pool.specs[qi])
			}
		}
	}
	for op, ps := range specs {
		if err := l.query(op, ps); err != nil {
			return err
		}
	}
	for op, sp := range plans {
		if err := l.refine(op, sp); err != nil {
			return err
		}
	}
	// Timeline class: seed-chosen patients of the fixture.
	rnd := newRNG(r.seed, "ladder-timeline")
	for op := 0; op < ladderOps; op++ {
		if err := l.timeline(op, model.PatientID(1+rnd.intn(richPatients))); err != nil {
			return err
		}
	}

	names := []string{"webapp", "core", "engine"}
	if w.remote {
		names = append(names, "backends")
	}
	rows := budget(tr, map[string][]string{"query": names, "refine": names, "timeline": {"webapp", "fetch", "render"}})
	r.info["budget"] = rows
	r.info["budget_table"] = budgetTable(r.workload, rows)

	v := r.values
	v["webapp.query_self_us"] = tr.medianSelfUS("query/webapp/cold")
	v["core.query_self_us"] = tr.medianSelfUS("query/core/cold")
	v["engine.compile_optimize_us"] = tr.medianUS("query/compile_optimize/cold")
	v["engine.execute_cold_us"] = tr.medianUS("query/engine/cold")
	v["engine.execute_warm_us"] = tr.medianUS("query/engine/warm")
	if w.remote {
		v["engine.coordinator_self_us"] = tr.medianSelfUS("query/engine/cold")
	}
	v["webapp.refine_self_us"] = tr.medianSelfUS("refine/webapp/cold")
	v["core.refine_self_us"] = tr.medianSelfUS("refine/core/cold")
	v["engine.refine_narrow_us"] = tr.medianUS("refine_mode/narrow/cold")
	v["engine.refine_widen_us"] = tr.medianUS("refine_mode/widen/cold")
	v["engine.refine_exclude_us"] = tr.medianUS("refine_mode/exclude/cold")
	v["engine.refine_scratch_us"] = tr.medianUS("refine_mode/scratch/cold")
	v["webapp.timeline_self_us"] = tr.medianSelfUS("timeline/webapp/cold")
	v["engine.history_fetch_us"] = tr.medianUS("timeline/fetch/cold")
	v["render.timeline_us"] = tr.medianUS("timeline/render/cold")
	return nil
}

// query replays one count at the handler, at core, at the engine and — on
// a coordinator — at the backends.
func (l *rungs) query(op int, ps poolSpec) error {
	wb := l.w.target()
	eng := wb.Engine
	expr, err := ps.Spec.Compile()
	if err != nil {
		return err
	}
	for _, temp := range temperatures {
		name := func(rung string) string { return "query/" + rung + "/" + temp }
		webappRung := func() error { return serve(l.w.h, "POST", "/api/cohorts/query?"+pw, ps.JSON) }
		if err := l.prepare(temp, webappRung); err != nil {
			return err
		}
		top, err := l.tr.timed(name("webapp"), op, -1, webappRung)
		if err != nil {
			return err
		}

		coreRung := func() error {
			bits, _, err := wb.QueryStatus(expr)
			if err != nil {
				return err
			}
			_, err = eng.IDsOf(bits.FirstN(webapp.DefaultConfig().MaxCohortSample))
			return err
		}
		if err := l.prepare(temp, coreRung); err != nil {
			return err
		}
		core, err := l.tr.timed(name("core"), op, top, coreRung)
		if err != nil {
			return err
		}

		// Engine rung: what core calls — compile, plan (memo, feedback)
		// and execute in one. Compiling and optimizing the plan the
		// backend rung needs is timed beside it, not inside it.
		engineRung := func() error {
			_, _, err := eng.ExecuteStatus(l.ctx, expr)
			return err
		}
		if err := l.prepare(temp, engineRung); err != nil {
			return err
		}
		engRung, err := l.tr.timed(name("engine"), op, core, engineRung)
		if err != nil {
			return err
		}
		var plan engine.Plan
		if _, err := l.tr.timed(name("compile_optimize"), op, -1, func() error {
			p, err := engine.Compile(expr)
			plan = engine.OptimizeWithStats(p, eng.Stats())
			return err
		}); err != nil {
			return err
		}

		// Backend rung, coordinator only: a local engine answers index
		// leaves from its pinned postings and never hands a whole plan to
		// its backends, so there the engine is the bottom rung.
		if !l.w.remote {
			continue
		}
		backendRung := func() error { return evalAll(l.backends, l.workers, plan, nil) }
		if err := l.prepare(temp, backendRung); err != nil {
			return err
		}
		if _, err := l.tr.timed(name("backends"), op, engRung, backendRung); err != nil {
			return err
		}
	}
	return nil
}

// refine replays one whole chain — narrow, widen, exclude — at the
// handler, at core and at the engine, then the final expression with
// nothing to seed it, then (on a coordinator) the narrow step's delta at
// the backends under the base cohort's mask. The budget's refine class is
// the narrow step; the other modes are reported at the engine rung only.
func (l *rungs) refine(op int, sp sessionPlan) error {
	wb := l.w.target()
	eng := wb.Engine
	var exprs [4]query.Expr
	for k, s := range sp.Specs {
		var err error
		if exprs[k], err = s.Compile(); err != nil {
			return err
		}
	}
	names := chainNames("ladder")
	modes := [4]string{"", "narrow", "widen", "exclude"}
	dropRefined := func() {
		for _, n := range names[1:] {
			eng.DropCohort(n)
		}
	}
	steps := []struct {
		rung string
		call func(k int) error
	}{
		{"webapp", func(k int) error {
			return serve(l.w.h, "POST", "/api/cohorts/refine?"+pw, cohortBody(names[k], sp.Chain[k]))
		}},
		{"core", func(k int) error {
			_, _, err := wb.RefineCohort(names[k], exprs[k])
			return err
		}},
		{"engine", func(k int) error {
			_, _, err := eng.Refine(l.ctx, names[k], exprs[k])
			return err
		}},
	}
	for _, temp := range temperatures {
		parent := [4]int{-1, -1, -1, -1}
		for _, step := range steps {
			if _, err := eng.Materialize(l.ctx, names[0], exprs[0]); err != nil {
				return err
			}
			if temp == "warm" {
				for k := 1; k < 4; k++ {
					if err := step.call(k); err != nil {
						return err
					}
				}
				dropRefined()
			}
			for k := 1; k < 4; k++ {
				if temp == "cold" {
					eng.ResetCache() // saved cohorts survive: they are user state
				}
				class := "refine"
				if k > 1 {
					class = "refine-" + modes[k]
				}
				i, err := l.tr.timed(class+"/"+step.rung+"/"+temp, op, parent[k], func() error { return step.call(k) })
				if err != nil {
					return err
				}
				parent[k] = i
				if step.rung == "engine" {
					l.tr.alias("refine_mode/"+modes[k]+"/"+temp, i)
				}
			}
			dropRefined()
			eng.DropCohort(names[0])
		}

		scratch := func() error {
			_, err := eng.Materialize(l.ctx, names[3], exprs[3])
			return err
		}
		if err := l.prepare(temp, func() error { err := scratch(); eng.DropCohort(names[3]); return err }); err != nil {
			return err
		}
		if _, err := l.tr.timed("refine_mode/scratch/"+temp, op, -1, scratch); err != nil {
			return err
		}
		eng.DropCohort(names[3])

		if !l.w.remote {
			continue
		}
		if _, err := eng.Materialize(l.ctx, names[0], exprs[0]); err != nil {
			return err
		}
		mask, _, err := eng.CohortBits(names[0])
		eng.DropCohort(names[0])
		if err != nil {
			return err
		}
		deltaExpr, err := sp.Narrow.Compile()
		if err != nil {
			return err
		}
		delta, err := engine.Compile(deltaExpr)
		if err != nil {
			return err
		}
		delta = engine.OptimizeWithStats(delta, eng.Stats())
		masks := maskSlices(l.backends, mask)
		masked := func() error { return evalAll(l.backends, l.workers, delta, masks) }
		if err := l.prepare(temp, masked); err != nil {
			return err
		}
		if _, err := l.tr.timed("refine/backends/"+temp, op, parent[1], masked); err != nil {
			return err
		}
	}
	return nil
}

// timeline replays one personal timeline: the handler, and under it the
// history fetch and the render it is made of.
func (l *rungs) timeline(op int, id model.PatientID) error {
	eng := l.w.target().Engine
	target := fmt.Sprintf("/timeline?patient=%d&%s", id, pw)
	opts := render.TimelineOptions{Width: 1000, Height: 220, ZoomY: 5, Tooltips: true, Legend: true} // the handler's
	for _, temp := range temperatures {
		webappRung := func() error { return serve(l.w.h, "GET", target, nil) }
		if err := l.prepare(temp, webappRung); err != nil {
			return err
		}
		top, err := l.tr.timed("timeline/webapp/"+temp, op, -1, webappRung)
		if err != nil {
			return err
		}
		var h *model.History
		fetch := func() error {
			var err error
			h, err = eng.HistoryByID(id)
			return err
		}
		if err := l.prepare(temp, fetch); err != nil {
			return err
		}
		if _, err := l.tr.timed("timeline/fetch/"+temp, op, top, fetch); err != nil {
			return err
		}
		if _, err := l.tr.timed("timeline/render/"+temp, op, top, func() error {
			_ = render.Timeline(model.MustCollection(h), opts)
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// layers times the single layers no ladder rung isolates, on the
// workload's own operands: the specs, plans, masks, histories and cohorts
// of the traced sessions.
func (w *sessionWorkload) layers(r *run, first, last int) error {
	wb := w.target()
	eng := wb.Engine
	st := w.local.Store // the same population the shard servers serve
	v := r.values
	const reps = 5

	// The codec and single-shard timings use the everyday counts only
	// (the class query_p50_ms falls in), so their medians describe one
	// kind of plan and can be set against each other.
	var specs []poolSpec
	var finals []query.Expr // the sessions' refined cohorts
	var bases []query.Expr
	var views []string
	for i := first; i < last && len(finals) < ladderOps; i++ {
		sp, err := w.in.plan(i)
		if err != nil {
			return err
		}
		for _, qi := range sp.Queries {
			if ps := w.in.pool.specs[qi]; ps.Class == classCodes {
				specs = append(specs, ps)
			}
		}
		f, err := sp.Specs[3].Compile()
		if err != nil {
			return err
		}
		b, err := sp.Specs[0].Compile()
		if err != nil {
			return err
		}
		finals, bases, views = append(finals, f), append(bases, b), append(views, sp.ViewPattern)
	}

	// query: ParseSpec + Compile. engine: the plan codec on the optimized
	// plans.
	var parse, planCodec, planBytes []float64
	for _, ps := range specs {
		us, err := timeUS(reps, func() error {
			s, err := query.ParseSpec(ps.JSON)
			if err != nil {
				return err
			}
			_, err = s.Compile()
			return err
		})
		if err != nil {
			return err
		}
		parse = append(parse, us)
		expr, err := ps.Spec.Compile()
		if err != nil {
			return err
		}
		p, err := engine.Compile(expr)
		if err != nil {
			return err
		}
		plan := engine.OptimizeWithStats(p, eng.Stats())
		var wire []byte
		us, err = timeUS(reps, func() error {
			var err error
			if wire, err = engine.EncodePlan(plan); err != nil {
				return err
			}
			_, err = engine.DecodePlan(wire)
			return err
		})
		if err != nil {
			return err
		}
		planCodec, planBytes = append(planCodec, us), append(planBytes, float64(len(wire)))
	}
	v["query.parse_compile_us"] = median(parse)
	v["engine.wire_plan_codec_us"] = median(planCodec)
	v["engine.wire_plan_bytes"] = median(planBytes)

	// store: postings lookups on the pool's codes; bitset kernels and the
	// mask codec on the sessions' own cohorts.
	var lookup []float64
	for _, c := range w.in.codes.codes {
		us, err := timeUS(reps, func() error {
			_ = st.WithCode(c.System, c.Value)
			_, err := st.WithCodeRegex(c.System, c.Value[:1]+".*")
			return err
		})
		if err != nil {
			return err
		}
		lookup = append(lookup, us/2)
	}
	v["store.postings_lookup_us"] = median(lookup)

	var and, or, andnot, maskCodec, maskBytes []float64
	var cohorts []*store.Bitset
	for k := range finals {
		a, err := eng.Execute(finals[k])
		if err != nil {
			return err
		}
		b, err := eng.Execute(bases[(k+1)%len(bases)])
		if err != nil {
			return err
		}
		cohorts = append(cohorts, a)
		x, y, z := kernelsUS(a, b, reps)
		and, or, andnot = append(and, x), append(or, y), append(andnot, z)
		var wire []byte
		us, err := timeUS(reps, func() error {
			var err error
			if wire, err = b.MarshalBinary(); err != nil {
				return err
			}
			return new(store.Bitset).UnmarshalBinary(wire)
		})
		if err != nil {
			return err
		}
		maskCodec, maskBytes = append(maskCodec, us), append(maskBytes, float64(len(wire)))
	}
	v["store.bitset_and_us"], v["store.bitset_or_us"], v["store.bitset_andnot_us"] = median(and), median(or), median(andnot)
	v["engine.wire_mask_codec_us"], v["engine.wire_mask_bytes"] = median(maskCodec), median(maskBytes)

	// engine: characterise and analytics on the sessions' refined cohorts.
	mine, err := engine.MineRequest(engine.MineParams{System: "ICPC2", Chapter: true})
	if err != nil {
		return err
	}
	episodes, err := engine.EpisodesRequest(engine.EpisodeParams{Gap: 90 * model.Day})
	if err != nil {
		return err
	}
	var profile, indicators, mineUS, episodesUS []float64
	for _, bits := range cohorts[:min(16, len(cohorts))] {
		for _, step := range []struct {
			out *[]float64
			fn  func() error
		}{
			{&profile, func() error { _, err := eng.Profile(bits, wb.Window); return err }},
			{&indicators, func() error { _, err := eng.Indicators(bits, wb.Window); return err }},
			{&mineUS, func() error { _, err := eng.Analyze(bits, mine); return err }},
			{&episodesUS, func() error { _, err := eng.Analyze(bits, episodes); return err }},
		} {
			us, err := timeUS(1, step.fn)
			if err != nil {
				return err
			}
			*step.out = append(*step.out, us)
		}
	}
	v["engine.profile_us"], v["engine.indicators_us"] = median(profile), median(indicators)
	v["engine.analyze_mine_us"], v["engine.analyze_episodes_us"] = median(mineUS), median(episodesUS)

	// render and the history codec: one history, and a 50-row cohort view.
	var view, codec1, codec50 []float64
	for _, pattern := range views[:min(8, len(views))] {
		bits, err := st.WithCodeRegex("", pattern)
		if err != nil {
			return err
		}
		col, err := w.local.Histories(bits)
		if err != nil {
			return err
		}
		us, err := timeUS(1, func() error {
			_ = render.Timeline(col, render.TimelineOptions{MaxRows: 50, Tooltips: true, Legend: true})
			return nil
		})
		if err != nil {
			return err
		}
		view = append(view, us)
		hs := col.Histories()
		for _, n := range []int{1, 50} {
			part := hs[:min(n, len(hs))]
			us, err := timeUS(reps, func() error {
				payload, sum := store.EncodeHistories(part)
				_, err := store.DecodeHistories(payload, sum, len(part))
				return err
			})
			if err != nil {
				return err
			}
			if n == 1 {
				codec1 = append(codec1, us)
			} else {
				codec50 = append(codec50, us)
			}
		}
	}
	v["render.cohortview_us"] = median(view)
	v["store.histcodec_1_us"], v["store.histcodec_50_us"] = median(codec1), median(codec50)

	// engine: the same plan on one shard — on a local view of it and, for
	// session-remote, over the wire to the server holding it — and the
	// payload-free round trip under every remote call.
	backends, err := w.ladderBackends()
	if err != nil {
		return err
	}
	defer func() {
		for _, b := range backends {
			b.Close()
		}
	}()
	ctx := context.Background()
	m := backends[0].Meta()
	local := engine.NewLocalBackend(st.Pin().Sub(m.Offset, m.Offset+m.Patients), m.Shard)
	var localUS, remoteUS []float64
	for _, ps := range specs {
		expr, err := ps.Spec.Compile()
		if err != nil {
			return err
		}
		p, err := engine.Compile(expr)
		if err != nil {
			return err
		}
		plan := engine.OptimizeWithStats(p, eng.Stats())
		us, err := timeUS(reps, func() error { _, err := local.EvalPlan(ctx, plan, nil); return err })
		if err != nil {
			return err
		}
		localUS = append(localUS, us)
		if !w.remote {
			continue
		}
		us, err = timeUS(reps, func() error { _, err := backends[0].EvalPlan(ctx, plan, nil); return err })
		if err != nil {
			return err
		}
		remoteUS = append(remoteUS, us)
	}
	v["engine.local_evalplan_us"] = median(localUS)
	if w.remote {
		probe, err := timeUS(200, func() error { return backends[0].(engine.Prober).Probe(ctx) })
		if err != nil {
			return err
		}
		v["engine.remote_probe_us"] = probe
		v["engine.remote_evalplan_us"] = median(remoteUS)
		v["engine.remote_overhead_us"] = median(remoteUS) - median(localUS)
	}
	return nil
}
