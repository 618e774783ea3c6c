package engine

// The grouped fan-out contract: a coordinator sends one call per shard
// server, not per shard, for every operation, and nothing about the
// answers changes — counts and refinements over any server layout equal
// the same evaluation made shard by shard and the reference interpreter,
// analyses, history fetches and ID listings their sequential references; a
// lost server takes exactly its own shards with it; one bad item of a
// multi-shard Eval never touches its neighbours.

import (
	"context"
	"errors"
	"hash/crc32"
	"math/rand"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

func seq(from, to int) []int {
	var out []int
	for i := from; i < to; i++ {
		out = append(out, i)
	}
	return out
}

// groupedLayouts builds coordinators over the parity population at eight
// shards, one per server layout the grouping has to get right.
func groupedLayouts(t *testing.T, opts Options) map[string]*Engine {
	t.Helper()
	col, st, _ := parityEngines(t)
	ropts := RemoteOptions{Timeout: 30 * time.Second}
	flat := func(sv *servedShards) []ShardBackend {
		var out []ShardBackend
		for _, bs := range sv.backends {
			out = append(out, bs...)
		}
		return out
	}
	layouts := map[string][]ShardBackend{
		"1x8":   flat(serveShards(t, col, 8, [][]int{seq(0, 8)}, ropts)),
		"4+4":   flat(serveShards(t, col, 8, [][]int{seq(0, 4), seq(4, 8)}, ropts)),
		"1+2+5": flat(serveShards(t, col, 8, [][]int{{0}, {1, 2}, seq(3, 8)}, ropts)),
	}
	// A remote group interleaved with in-process views of the other shards.
	mixed := flat(serveShards(t, col, 8, [][]int{seq(0, 8)}, ropts))
	for i := 1; i < len(mixed); i += 2 {
		m := mixed[i].Meta()
		mixed[i] = NewLocalBackend(st.Pin().Sub(m.Offset, m.Offset+m.Patients), m.Shard)
	}
	layouts["local+remote"] = mixed
	// Two servers of all eight shards, dialed as one replicated group.
	layouts["replicas"] = serveReplicas(t, col, 8, 2, nil).backends

	engines := make(map[string]*Engine, len(layouts))
	for name, backends := range layouts {
		eng, err := NewFromBackends(backends, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Cleanup(func() { eng.Close() })
		engines[name] = eng
	}
	return engines
}

// perShard is the evaluation the grouped fan-out replaces: one EvalPlan
// per backend with its slice of the mask, merged by offset.
func perShard(t *testing.T, eng *Engine, p Plan, mask *store.Bitset) *store.Bitset {
	t.Helper()
	tp := eng.topoNow()
	out := tp.empty()
	for _, b := range tp.backends {
		m := b.Meta()
		var local *store.Bitset
		if mask != nil {
			local = mask.SliceRange(m.Offset, m.Offset+m.Patients)
		}
		bits, err := b.EvalPlan(context.Background(), p, local)
		if err != nil {
			t.Fatalf("per-shard EvalPlan on shard %d: %v", m.Shard, err)
		}
		out.OrAt(bits, m.Offset)
	}
	return out
}

// roundTrips totals the engine's round trips: members of one group share
// a counter, so each group is read once.
func roundTrips(eng *Engine) (trips, evals uint64) {
	counted := map[int]bool{}
	for _, s := range eng.ShardStats() {
		evals += s.Queries
		if !counted[s.Group] {
			counted[s.Group] = true
			trips += s.RoundTrips
		}
	}
	return trips, evals
}

// groupsHolding counts the server groups with a member of the cohort on
// one of their shards: the round trips a cohort operation is allowed.
func groupsHolding(eng *Engine, bits *store.Bitset) uint64 {
	tp := eng.topoNow()
	groups := map[int]bool{}
	for i, b := range tp.backends {
		if m := b.Meta(); bits.AnyInRange(m.Offset, m.Offset+m.Patients) {
			groups[tp.groupOf[i]] = true
		}
	}
	return uint64(len(groups))
}

// checkCohortOps runs every cohort operation — Analyze under every
// registered kind, Histories, IDsOf — over the cohort bits select: each
// answer equals its sequential reference over the collection, and each
// took exactly one round trip per server group holding a member.
func checkCohortOps(t *testing.T, name string, eng *Engine, col *model.Collection, bits *store.Bitset) {
	t.Helper()
	cohort := cohortOf(col, bits)
	ops := map[string]func(){
		"Histories": func() {
			hs, err := eng.Histories(bits)
			if err != nil || len(hs) != cohort.Len() {
				t.Fatalf("%s: Histories = %d histories, %v; want %d", name, len(hs), err, cohort.Len())
			}
			for i, h := range hs {
				sameHistory(t, h, cohort.At(i))
			}
		},
		"IDsOf": func() {
			ids, err := eng.IDsOf(bits)
			if err != nil || !reflect.DeepEqual(ids, cohort.IDs()) && len(ids)+cohort.Len() > 0 {
				t.Fatalf("%s: IDsOf = %v, %v; want %v", name, ids, err, cohort.IDs())
			}
		},
	}
	for _, tc := range analyzeCases(t) {
		ops["Analyze("+tc.name+")"] = func() {
			got, err := eng.Analyze(bits, tc.req)
			if err != nil {
				t.Fatalf("%s: Analyze(%s): %v", name, tc.name, err)
			}
			if want := tc.want(cohort); !reflect.DeepEqual(tc.view(got), want) {
				t.Fatalf("%s: Analyze(%s) differs from the sequential reference\n got %+v\nwant %+v", name, tc.name, tc.view(got), want)
			}
		}
	}
	want := groupsHolding(eng, bits)
	for op, run := range ops {
		before, _ := roundTrips(eng)
		run()
		if after, _ := roundTrips(eng); after-before != want {
			t.Errorf("%s: %s over a cohort on %d server groups took %d round trips", name, op, want, after-before)
		}
	}
}

// TestGroupedParity: over every layout, unmasked and masked evaluation
// through the grouped fan-out ≡ the same calls made shard by shard ≡
// query.EvalIndexed, and narrow / widen / exclude refinements land on the
// reference cohort; every cohort operation over the whole population, a
// cohort that leaves the first shards empty, one patient and nobody equals
// its reference in one round trip per server group holding a member.
func TestGroupedParity(t *testing.T) {
	col, st, _ := parityEngines(t)
	ctx := context.Background()
	for name, eng := range groupedLayouts(t, Options{Workers: 4, CacheSize: 32}) {
		r := rand.New(rand.NewSource(12))
		for i := 0; i < 25; i++ {
			e := randExpr(r, 2)
			want, err := query.EvalIndexed(st, e)
			if err != nil {
				t.Fatal(err)
			}
			p, err := Compile(e)
			if err != nil {
				t.Fatal(err)
			}
			p = Optimize(p)
			tp := eng.topoNow()
			got, _, err := eng.evalAll(ctx, tp, PolicyStrict, p, nil)
			if err != nil {
				t.Fatalf("%s: evalAll(%s): %v", name, e, err)
			}
			if !got.Equal(want) || !got.Equal(perShard(t, eng, p, nil)) {
				t.Fatalf("%s: grouped count of %s diverges: %d, reference %d", name, e, got.Count(), want.Count())
			}
			// A random mask, emptied over the first quarter of the
			// population so some shards are not listed at all.
			mask := store.NewBitset(st.Len())
			for o := st.Len() / 4; o < st.Len(); o++ {
				if r.Intn(3) == 0 {
					mask.Set(o)
				}
			}
			masked, _, err := eng.evalAll(ctx, tp, PolicyStrict, p, mask)
			if err != nil {
				t.Fatalf("%s: masked evalAll(%s): %v", name, e, err)
			}
			if !masked.Equal(want.Clone().And(mask)) || !masked.Equal(perShard(t, eng, p, mask)) {
				t.Fatalf("%s: grouped masked eval of %s diverges from per-shard calls", name, e)
			}
		}

		sparse, one := store.NewBitset(st.Len()), store.NewBitset(st.Len())
		for o := st.Len() / 4; o < st.Len(); o += 1 + r.Intn(5) {
			sparse.Set(o)
		}
		one.Set(st.Len() - 1)
		for cname, bits := range map[string]*store.Bitset{
			"everyone": eng.topoNow().all(), "sparse": sparse, "one patient": one, "nobody": store.NewBitset(st.Len()),
		} {
			checkCohortOps(t, name+", "+cname, eng, col, bits)
		}

		parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
		delta := query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2}
		if _, err := eng.Materialize(ctx, "parent", parent); err != nil {
			t.Fatalf("%s: Materialize: %v", name, err)
		}
		for step, tc := range map[string]struct {
			q    query.Expr
			mode string
		}{
			"narrow":  {query.And{parent, delta}, RefineNarrow},
			"widen":   {query.Or{parent, delta}, RefineWiden},
			"exclude": {query.And{parent, query.Not{E: delta}}, RefineNarrow},
		} {
			_, ref, err := eng.Refine(ctx, step, tc.q)
			if err != nil {
				t.Fatalf("%s: Refine(%s): %v", name, step, err)
			}
			if ref.Mode != tc.mode || !ref.Pushed {
				t.Errorf("%s: Refine(%s) = %+v, want a pushed %s", name, step, ref, tc.mode)
			}
			bits, _, err := eng.CohortBits(step)
			if err != nil {
				t.Fatal(err)
			}
			want, err := query.EvalIndexed(st, tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(want) {
				t.Errorf("%s: %s refinement has %d patients, reference %d", name, step, bits.Count(), want.Count())
			}
		}
	}
}

// listingRPC is a shard server's RPC surface that notes which shards each
// Eval and cohort call lists before answering it.
type listingRPC struct {
	*ShardRPC
	mu     sync.Mutex
	listed map[string][][]int // method → the shard ids of each call, in item order
}

func (r *listingRPC) note(method string, n int, shard func(k int) int) {
	shards := make([]int, n)
	for k := range shards {
		shards[k] = shard(k)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.listed[method] = append(r.listed[method], shards)
}

// calls counts the calls of one method noted so far.
func (r *listingRPC) calls(method string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.listed[method])
}

func (r *listingRPC) Eval(args *EvalArgs, reply *EvalReply) error {
	r.note("Eval", len(args.Items), func(k int) int { return args.Items[k].Shard })
	return r.ShardRPC.Eval(args, reply)
}

func (r *listingRPC) Analyze(args *AnalyzeRPCArgs, reply *AnalyzeRPCReply) error {
	r.note("Analyze", len(args.Items), func(k int) int { return args.Items[k].Shard })
	return r.ShardRPC.Analyze(args, reply)
}

func (r *listingRPC) Fetch(args *FetchArgs, reply *FetchReply) error {
	r.note("Fetch", len(args.Items), func(k int) int { return args.Items[k].Shard })
	return r.ShardRPC.Fetch(args, reply)
}

func (r *listingRPC) IDs(args *IDsArgs, reply *IDsReply) error {
	r.note("IDs", len(args.Items), func(k int) int { return args.Items[k].Shard })
	return r.ShardRPC.IDs(args, reply)
}

// TestGroupedRoundTrips: over 2 servers × 4 shards an unmasked count is 8
// evaluations in exactly 2 round trips, a refinement at most 2, a masked
// evaluation whose candidates sit on one server 1, an analysis, a history
// fetch and an ID listing 2 — 1 when the cohort sits on one server — and a
// timeline 2 Locate + 1 Fetch. A cohort call lists the shards holding a
// member, in shard order, and no other. A replicated pair of 8-shard
// servers is one group: a count is 1 round trip, and one probe round 2
// Describe calls, one per member.
func TestGroupedRoundTrips(t *testing.T) {
	col, st, _ := parityEngines(t)
	ctx := context.Background()
	engines := groupedLayouts(t, Options{Workers: 4, CacheSize: 0})
	eng := engines["4+4"]
	delta := func(fn func()) (trips, evals uint64) {
		t0, e0 := roundTrips(eng)
		fn()
		t1, e1 := roundTrips(eng)
		return t1 - t0, e1 - e0
	}

	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	trips, evals := delta(func() {
		if _, err := eng.Materialize(ctx, "parent", parent); err != nil {
			t.Fatal(err)
		}
	})
	if trips != 2 || evals != 8 {
		t.Errorf("unmasked count: %d evaluations in %d round trips, want 8 in 2", evals, trips)
	}

	trips, evals = delta(func() {
		if _, ref, err := eng.Refine(ctx, "narrow", query.And{parent, query.SexIs(model.SexFemale)}); err != nil || !ref.Pushed {
			t.Fatalf("Refine = %+v, %v", ref, err)
		}
	})
	if trips < 1 || trips > 2 || evals != 8 {
		t.Errorf("refinement: %d evaluations in %d round trips, want 8 in ≤ 2", evals, trips)
	}

	// Candidates on the first server's shards only: the second server is
	// not called at all.
	tp := eng.topoNow()
	firstHalf := store.NewBitset(st.Len())
	for o := 0; o < tp.backends[4].Meta().Offset; o += 2 {
		firstHalf.Set(o)
	}
	trips, _ = delta(func() {
		if _, _, err := eng.evalAll(ctx, tp, PolicyStrict, parityPlan(t), firstHalf); err != nil {
			t.Fatal(err)
		}
	})
	if trips != 1 {
		t.Errorf("masked evaluation over one server's shards took %d round trips, want 1", trips)
	}

	req, err := EpisodesRequest(EpisodeParams{Gap: 90 * model.Day})
	if err != nil {
		t.Fatal(err)
	}
	for cohort, bits := range map[string]*store.Bitset{"both servers": tp.all(), "the first server": firstHalf} {
		want := groupsHolding(eng, bits)
		for op, run := range map[string]func() error{
			"Analyze":   func() error { _, err := eng.Analyze(bits, req); return err },
			"Histories": func() error { _, err := eng.Histories(bits); return err },
			"IDsOf":     func() error { _, err := eng.IDsOf(bits); return err },
		} {
			trips, _ = delta(func() {
				if err := run(); err != nil {
					t.Fatalf("%s over %s: %v", op, cohort, err)
				}
			})
			if trips != want {
				t.Errorf("%s over a cohort on %s took %d round trips, want %d", op, cohort, trips, want)
			}
		}
	}

	// One server of eight shards behind a recorder, a cohort on three of
	// them: each cohort call is one call listing exactly those three.
	sv := serveShards(t, col, 8, [][]int{seq(0, 8)}, RemoteOptions{Timeout: 30 * time.Second})
	rec := &listingRPC{ShardRPC: &ShardRPC{s: sv.servers[0]}, listed: map[string][][]int{}}
	backends, _, err := DialShards(serveRPCStub(t, rec).Addr().String(), RemoteOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	listing, err := NewFromBackends(backends, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer listing.Close()
	some := store.NewBitset(st.Len())
	for _, shard := range []int{5, 2, 3} {
		some.Set(backends[shard].Meta().Offset)
	}
	if _, err := listing.Analyze(some, req); err != nil {
		t.Fatal(err)
	}
	if _, err := listing.Histories(some); err != nil {
		t.Fatal(err)
	}
	if _, err := listing.IDsOf(some); err != nil {
		t.Fatal(err)
	}
	for _, method := range []string{"Analyze", "Fetch", "IDs"} {
		if got := rec.listed[method]; !reflect.DeepEqual(got, [][]int{{2, 3, 5}}) {
			t.Errorf("%s calls listed shards %v, want one call listing [2 3 5]", method, got)
		}
	}

	id := st.Collection().At(st.Len() - 1).Patient.ID
	trips, _ = delta(func() {
		h, err := eng.HistoryByID(id)
		if err != nil || h.Patient.ID != id {
			t.Fatalf("HistoryByID(%s) = %v, %v", id, h, err)
		}
	})
	if trips != 3 {
		t.Errorf("HistoryByID took %d round trips, want 2 Locate + 1 Fetch", trips)
	}
	if _, err := eng.HistoryByID(model.PatientID(1 << 40)); !errors.Is(err, ErrNoPatient) {
		t.Errorf("HistoryByID of an unknown patient = %v, want ErrNoPatient", err)
	}

	eng = engines["replicas"] // delta now counts the replicated layout
	trips, evals = delta(func() {
		if _, err := eng.Execute(parent); err != nil {
			t.Fatal(err)
		}
	})
	if trips != 1 || evals != 8 {
		t.Errorf("replicated unmasked count: %d evaluations in %d round trips, want 8 in 1", evals, trips)
	}
	conn := eng.topoNow().backends[0].(*RemoteBackend).conn
	sent := func() (n uint64) {
		_, health := conn.health()
		for _, h := range health {
			n += h.Calls
		}
		return n
	}
	before := sent()
	conn.probeAll()
	if probes := sent() - before; probes != 2 {
		t.Errorf("one probe round over a replicated pair of 8-shard servers sent %d Describe calls, want 2", probes)
	}
}

// groupedCluster is a coordinator over 2 servers × 4 shards with the
// servers' handles, for killing and draining one of them.
func groupedCluster(t *testing.T, opts Options) (*Engine, *servedShards) {
	t.Helper()
	col, _, _ := parityEngines(t)
	sv := serveShards(t, col, 8, [][]int{seq(0, 4), seq(4, 8)}, RemoteOptions{Timeout: 5 * time.Second})
	eng, err := NewFromBackends(append(append([]ShardBackend(nil), sv.backends[0]...), sv.backends[1]...), opts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, sv
}

// TestGroupedStrictNeverPartial: a server killed while counts are in
// flight turns them into errors naming a shard; every answer that does
// come back is the complete cohort.
func TestGroupedStrictNeverPartial(t *testing.T) {
	_, st, _ := parityEngines(t)
	eng, sv := groupedCluster(t, Options{Workers: 4, CacheSize: 0})
	e := query.Expr(query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2})
	want, err := query.EvalIndexed(st, e)
	if err != nil {
		t.Fatal(err)
	}
	var answered atomic.Int64
	failed := make(chan error, 1)
	go func() {
		for {
			got, err := eng.Execute(e)
			if err != nil {
				failed <- err
				return
			}
			if !got.Equal(want) {
				failed <- errors.New("partial cohort returned without an error")
				return
			}
			answered.Add(1)
		}
	}()
	for answered.Load() < 20 {
		time.Sleep(time.Millisecond)
	}
	sv.listeners[1].kill()
	select {
	case err := <-failed:
		if !strings.Contains(err.Error(), "shard") || !IsUnavailable(err) {
			t.Errorf("count over a killed server failed with %v, want an unavailable shard named", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("counts kept succeeding over a dead server")
	}
}

// TestGroupedDegraded: under PolicyDegraded a dead server is missing as
// exactly its own shard set, the answer is the reference minus those
// ranges, and nothing of it is cached.
func TestGroupedDegraded(t *testing.T) {
	_, st, _ := parityEngines(t)
	eng, sv := groupedCluster(t, Options{Workers: 4, CacheSize: 32, Policy: PolicyDegraded})
	e := query.Expr(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	want, err := query.EvalIndexed(st, e)
	if err != nil {
		t.Fatal(err)
	}
	sv.listeners[1].kill()
	got, status, err := eng.ExecuteStatus(context.Background(), e)
	if err != nil {
		t.Fatalf("degraded count errored instead of degrading: %v", err)
	}
	if !reflect.DeepEqual(status.MissingShards, seq(4, 8)) {
		t.Fatalf("MissingShards = %v, want the dead server's [4 5 6 7]", status.MissingShards)
	}
	live := store.NewBitset(st.Len())
	for o := 0; o < eng.BackendInfo()[4].Offset; o++ {
		live.Set(o)
	}
	if !got.Equal(want.Clone().And(live)) {
		t.Errorf("degraded cohort has %d patients, the live shards' answer %d", got.Count(), want.Clone().And(live).Count())
	}
	if n := eng.CacheStats().Entries; n != 0 {
		t.Errorf("degraded answer left %d entries in the result cache", n)
	}
	// Every cohort operation loses the same four shards: an analysis
	// degrades to the live shards' tally and names the missing ones — all
	// of them, no others; fetches and listings are strict under either
	// policy.
	everyone := eng.topoNow().all()
	for _, tc := range analyzeCases(t) {
		part, status, err := eng.AnalyzeStatus(context.Background(), everyone, tc.req)
		if err != nil || !reflect.DeepEqual(status.MissingShards, seq(4, 8)) || part.HistoryCount() > live.Count() ||
			tc.req.Kind == AnalyzeSpan && part.HistoryCount() != live.Count() {
			t.Errorf("degraded Analyze(%s) = %d histories, missing %v, %v; want at most the live %d and [4 5 6 7] missing",
				tc.name, part.HistoryCount(), status.MissingShards, err, live.Count())
		}
	}
	if _, err := eng.Histories(everyone); !IsUnavailable(err) {
		t.Errorf("Histories over a dead server = %v, want unavailable", err)
	}
	if _, err := eng.IDsOf(everyone); !IsUnavailable(err) {
		t.Errorf("IDsOf over a dead server = %v, want unavailable", err)
	}
	if _, err := eng.Materialize(context.Background(), "c", e); !IsUnavailable(err) {
		t.Errorf("Materialize over a dead server = %v, want unavailable", err)
	}
}

// TestGroupedDraining: a server in Shutdown refuses the group's call with
// the drain refusal — ErrDraining for a strict coordinator, exactly its
// shards missing for a degraded one.
func TestGroupedDraining(t *testing.T) {
	e := query.Expr(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	for _, policy := range []Policy{PolicyStrict, PolicyDegraded} {
		eng, sv := groupedCluster(t, Options{Workers: 4, CacheSize: 0, Policy: policy})
		if _, err := eng.Execute(e); err != nil {
			t.Fatalf("healthy cluster: %v", err)
		}
		if err := sv.servers[0].Shutdown(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		_, status, err := eng.ExecuteStatus(context.Background(), e)
		switch policy {
		case PolicyStrict:
			if !errors.Is(err, ErrDraining) {
				t.Errorf("strict count over a draining server = %v, want ErrDraining", err)
			}
		case PolicyDegraded:
			if err != nil || !reflect.DeepEqual(status.MissingShards, seq(0, 4)) {
				t.Errorf("degraded count over a draining server = %v, %v; want shards [0 1 2 3] missing", status, err)
			}
		}
	}
}

// TestEvalHostileItems drives malformed multi-shard Evals straight at a
// shard server: structural abuse is a call error, a bad item is that
// item's error only, and nothing panics.
func TestEvalHostileItems(t *testing.T) {
	col, _, _ := parityEngines(t)
	sv := serveShards(t, col, 4, [][]int{seq(0, 4)}, RemoteOptions{Timeout: 30 * time.Second})
	client, err := rpc.Dial("tcp", sv.listeners[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	plan, err := planToWire(parityPlan(t))
	if err != nil {
		t.Fatal(err)
	}
	eval := func(items ...ShardItem) ([]EvalResult, error) {
		var reply EvalReply
		err := client.Call("PastasShard.Eval", &EvalArgs{Plan: plan, Items: items}, &reply)
		return reply.Results, err
	}

	clean, err := eval(ShardItem{Shard: 0}, ShardItem{Shard: 1}, ShardItem{Shard: 2}, ShardItem{Shard: 3})
	if err != nil {
		t.Fatalf("well-formed multi-shard Eval refused: %v", err)
	}
	for k, res := range clean {
		if res.Err != "" || len(res.Bits) == 0 {
			t.Fatalf("clean item %d = %+v", k, res)
		}
	}

	for name, items := range map[string][]ShardItem{
		"zero items":       nil,
		"same shard twice": {{Shard: 1}, {Shard: 2}, {Shard: 1}},
		"10⁶ items":        make([]ShardItem, 1_000_000),
	} {
		if _, err := eval(items...); err == nil {
			t.Errorf("Eval with %s accepted", name)
		}
	}
	var reply EvalReply
	for name, bad := range map[string]wirePlan{
		"no node kind":          {},
		"an unknown node kind":  {Kind: "bogus"},
		"a scan without a body": {Kind: wireScan},
		"an invalid pattern":    {Kind: wireIndex, Op: int(OpCode), Pattern: "("},
	} {
		if err := client.Call("PastasShard.Eval", &EvalArgs{Plan: bad, Items: []ShardItem{{Shard: 0}}}, &reply); err == nil {
			t.Errorf("Eval of a plan with %s accepted", name)
		}
	}

	good, err := store.NewBitset(sv.backends[0][1].Meta().Patients).Not().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	short, err := store.NewBitset(10).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	crcOf := func(b []byte) uint32 { return crc32.Checksum(b, maskCRCTable) }
	for name, bad := range map[string]ShardItem{
		"unknown shard":         {Shard: 9},
		"bad crc":               {Shard: 1, Mask: good, MaskCRC: crcOf(good) ^ 1},
		"wrong-population mask": {Shard: 1, Mask: short, MaskCRC: crcOf(short)},
	} {
		results, err := eval(ShardItem{Shard: 0}, bad, ShardItem{Shard: 2})
		if err != nil {
			t.Errorf("%s: one bad item failed the whole call: %v", name, err)
			continue
		}
		if results[1].Err == "" || len(results[1].Bits) != 0 {
			t.Errorf("%s: bad item answered %+v, want its own error", name, results[1])
		}
		if !reflect.DeepEqual(results[0], clean[0]) || !reflect.DeepEqual(results[2], clean[2]) {
			t.Errorf("%s: a bad item changed its neighbours' results", name)
		}
	}
	// Fetch and IDs refuse the same structural abuse, and — a listing or a
	// fetch with a hole in it being none — fail the call on a bad item,
	// naming its shard; a well-formed call answers afterwards.
	goodItem := ShardItem{Shard: 1, Mask: good, MaskCRC: crcOf(good)}
	for name, row := range map[string]struct {
		fetch    []FetchItem
		ids      []ShardItem
		mentions string
	}{
		"zero items":       {nil, nil, "lists 0 items"},
		"same shard twice": {[]FetchItem{{Shard: 1}, {Shard: 2}, {Shard: 1}}, []ShardItem{goodItem, {Shard: 2}, goodItem}, "shard 1 twice"},
		"10⁶ items":        {make([]FetchItem, 1_000_000), make([]ShardItem, 1_000_000), "lists 1000000 items"},
		"unknown shard":    {[]FetchItem{{Shard: 0}, {Shard: 9}}, []ShardItem{goodItem, {Shard: 9, Mask: good, MaskCRC: crcOf(good)}}, "shard 9"},
		"item out of its shard's range": {[]FetchItem{{Shard: 0}, {Shard: 2, Ordinals: []int{1 << 30}}},
			[]ShardItem{goodItem, {Shard: 2, Mask: short, MaskCRC: crcOf(short)}}, "shard 2"},
		"a bad item for shard 3": {[]FetchItem{{Shard: 3, Ordinals: []int{2, 1}}}, []ShardItem{goodItem, {Shard: 3}}, "shard 3"},
	} {
		wantErr(t, "Fetch with "+name, client.Call("PastasShard.Fetch", &FetchArgs{Items: row.fetch}, new(FetchReply)), row.mentions)
		wantErr(t, "IDs with "+name, client.Call("PastasShard.IDs", &IDsArgs{Items: row.ids}, new(IDsReply)), row.mentions)
	}
	var fetched FetchReply
	if err := client.Call("PastasShard.Fetch", &FetchArgs{Items: []FetchItem{{Shard: 1, Ordinals: []int{0, 2}}, {Shard: 0}}}, &fetched); err != nil || len(fetched.Segments) != 2 {
		t.Errorf("well-formed Fetch after hostile ones = %d segments, %v", len(fetched.Segments), err)
	}
	var listed IDsReply
	if err := client.Call("PastasShard.IDs", &IDsArgs{Items: []ShardItem{goodItem}}, &listed); err != nil ||
		len(listed.IDs) != 1 || len(listed.IDs[0]) != sv.backends[0][1].Meta().Patients {
		t.Errorf("well-formed IDs after hostile ones = %v, %v", listed.IDs, err)
	}

	// The coordinator turns a bad item into a failed query under either
	// policy: it is a bug, not an outage.
	_, errs := sv.backends[0][0].(*RemoteBackend).conn.eval(context.Background(), plan,
		[]ShardMeta{{Shard: 0}, {Shard: 9}}, []*store.Bitset{nil, nil})
	if errs[0] != nil || errs[1] == nil || IsUnavailable(errs[1]) {
		t.Errorf("client-side item errors = %v, want only item 1 failing, not as unavailable", errs)
	}
	conn := sv.backends[0][0].(*RemoteBackend).conn
	strays := []ShardMeta{sv.backends[0][0].Meta(), {Shard: 9, Patients: 1}}
	_, err = conn.analyze(context.Background(), AnalyzeSpan, SpanRequest().params, strays, []*store.Bitset{nil, nil})
	wantErr(t, "grouped Analyze listing a stray shard", err, conn.addr, "shard 9")
	_, ferr := conn.fetch(context.Background(), strays, [][]int{{0}, {0}})
	wantErr(t, "grouped Fetch listing a stray shard", ferr, conn.addr, "shard 9")
	_, ierr := conn.ids(context.Background(), strays, []*store.Bitset{store.NewBitset(strays[0].Patients), store.NewBitset(1)})
	wantErr(t, "grouped IDs listing a stray shard", ierr, conn.addr, "shard 9")
	if IsUnavailable(err) || IsUnavailable(ferr) || IsUnavailable(ierr) {
		t.Errorf("a bad item reads as an outage: %v / %v / %v", err, ferr, ierr)
	}
}

// slowDescribe is a fake shard server whose Describe announces itself and
// blocks until released, for holding calls in flight.
type slowDescribe struct{ entered, release chan struct{} }

func (s *slowDescribe) Describe(_ *DescribeArgs, _ *DescribeReply) error {
	s.entered <- struct{}{}
	<-s.release
	return nil
}

// TestCancelledCallKeepsConnection: two calls share one connection; one
// caller's context is cancelled mid-call. The other call still completes,
// on the same connection — the listener accepted exactly once.
func TestCancelledCallKeepsConnection(t *testing.T) {
	// entered is sized for the two calls plus the redial-retry a torn
	// connection would cost, so a regression fails the test, not hangs it.
	fake := &slowDescribe{entered: make(chan struct{}, 3), release: make(chan struct{})}
	lis := serveRPCStub(t, fake)
	conn, err := newRemoteConn(lis.Addr().String(), RemoteOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.close()
	call := func(ctx context.Context) chan error {
		done := make(chan error, 1)
		go func() {
			_, err := rpcCall[DescribeReply](ctx, conn, "Describe", &DescribeArgs{})
			done <- err
		}()
		return done
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancelled, other := call(ctx), call(context.Background())
	<-fake.entered
	<-fake.entered // both calls are in their handlers
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled call returned %v, want context.Canceled", err)
	}
	close(fake.release)
	if err := <-other; err != nil {
		t.Errorf("the other caller's call failed: %v", err)
	}
	lis.mu.Lock()
	n := len(lis.conns)
	lis.mu.Unlock()
	if n != 1 {
		t.Errorf("listener accepted %d connections, want 1 — a cancelled call tore the shared connection down", n)
	}
}
