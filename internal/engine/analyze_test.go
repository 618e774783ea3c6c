package engine

// The distributed-analytics contract, as one table over every registered
// analyzer kind (analyzeCases): the merged answer equals a sequential
// reference — stats.ComputeIndicators and stats.ComputeCohortProfile, a
// single-threaded pass of the mining/episode/scenario map step — at shard
// counts {1, 4, 16}, over remote shard servers and in-process local
// backends alike, with the cohort mask pushed down; a partial survives
// the gob stream it rides; hostile typed requests (unknown kind, another
// kind's params, corrupt mask) and hostile partials are loud errors, never
// panics; and
// fault injection degrades or fails over exactly like every other
// fan-out. Runs under -race in CI — the map steps read shared histories
// concurrently, so a mutating step would fail here.

import (
	"bytes"
	"context"
	"encoding/gob"
	"net/rpc"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"pastas/internal/abstraction"
	"pastas/internal/integrate"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/synth"
	"pastas/internal/temporal"
)

// analyzeCase is one registered kind under representative parameters,
// with the sequential reference its distributed answer must equal: want
// computes the reference over the cohort's histories in collection order,
// view renders a merged partial in the reference's form.
type analyzeCase struct {
	name string
	req  AnalyzeRequest
	want func(cohort *model.Collection) any
	view func(Partial) any
}

var caseWindow = model.Period{Start: model.Date(2005, 1, 1), End: model.Date(2015, 1, 1)}

// analyzeCases sweeps every registered kind: plain and sequential mining,
// episode tallies, a scenario over chapter labels the synthetic population
// actually emits, the utilization tally read both ways, and the span. A
// kind registered without a row here fails the sweep.
func analyzeCases(t testing.TB) []analyzeCase {
	t.Helper()
	var cases []analyzeCase
	mapStep := func(name string, req AnalyzeRequest, err error) {
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, analyzeCase{
			name: name, req: req,
			want: func(cohort *model.Collection) any { return normalizePartial(refAnalyze(t, cohort, req)) },
			view: func(p Partial) any { return normalizePartial(p) },
		})
	}
	req, err := MineRequest(MineParams{System: "ICPC2"})
	mapStep("mine", req, err)
	req, err = MineRequest(MineParams{Sequential: true, MaxGap: 3, Chapter: true})
	mapStep("mine/sequential", req, err)
	req, err = EpisodesRequest(EpisodeParams{Gap: 90 * model.Day})
	mapStep("episodes", req, err)
	req, err = ScenarioRequest(ScenarioParams{Gap: 90 * model.Day, Scenario: temporal.Scenario{
		Steps: []string{"T", "K"},
		Relations: []temporal.StepRel{
			{I: 0, J: 1, Rel: temporal.Before | temporal.Meets | temporal.Overlaps},
		},
	}})
	mapStep("scenario", req, err)

	cases = append(cases, analyzeCase{name: AnalyzeUtilization, req: utilizationRequest(caseWindow),
		want: func(cohort *model.Collection) any {
			return [2]any{stats.ComputeIndicators(cohort, caseWindow), stats.ComputeCohortProfile(cohort, caseWindow)}
		},
		view: func(p Partial) any {
			u := p.(*stats.Utilization)
			return [2]any{u.Indicators().Finalize(caseWindow), u.Profile()}
		}})
	cases = append(cases, analyzeCase{name: AnalyzeSpan, req: SpanRequest(),
		want: func(cohort *model.Collection) any { return refSpan(cohort.Histories()) },
		view: func(p Partial) any { return *p.(*SpanTally) }})

	covered := map[string]bool{}
	for _, c := range cases {
		covered[c.req.Kind] = true
	}
	for kind := range analyzers {
		if !covered[kind] {
			t.Fatalf("analyzer kind %q is registered but has no row in analyzeCases", kind)
		}
	}
	return cases
}

// utilizationRequest builds the utilization kind's request, as
// Engine.Indicators and Engine.Profile do.
func utilizationRequest(w model.Period) AnalyzeRequest {
	return AnalyzeRequest{Kind: AnalyzeUtilization, params: &window{w}}
}

// refSpan is the span reference: model.Collection.Span's walk over
// History.Span, with the two counts the tally carries beside it.
func refSpan(hs []*model.History) SpanTally {
	want := SpanTally{Histories: len(hs), Period: model.MustCollection(hs...).Span()}
	for _, h := range hs {
		if h.Len() > 0 {
			want.Spanned++
		}
	}
	return want
}

// cohortOf is the sub-collection a global-ordinal bitset selects.
func cohortOf(col *model.Collection, bits *store.Bitset) *model.Collection {
	var hs []*model.History
	bits.Range(func(i int) bool {
		hs = append(hs, col.At(i))
		return true
	})
	return model.MustCollection(hs...)
}

// refAnalyze is the single-threaded, fresh-allocation reference for the
// map-step kinds: each history goes through the exported slice-returning
// forms (CodeSequenceStable + AddSequence, EpisodeTally.AddHistory,
// EpisodesStable), sequentially in collection order, with no sharding, no
// merge, no wire codec and no scratch carried from one history to the
// next in the path.
func refAnalyze(t testing.TB, cohort *model.Collection, req AnalyzeRequest) Partial {
	t.Helper()
	part := analyzers[req.Kind].newPartial(req.params)
	for _, h := range cohort.Histories() {
		switch p := req.params.(type) {
		case *MineParams:
			var seq []string
			for _, c := range h.CodeSequenceStable(model.TypeDiagnosis) {
				switch {
				case p.System != "" && c.System != p.System:
				case !p.Chapter:
					seq = append(seq, c.Value)
				case abstraction.ChapterOf(c) != "":
					seq = append(seq, abstraction.ChapterOf(c))
				}
			}
			if len(seq) > 0 {
				part.(*mining.Counts).AddSequence(seq)
			}
		case *EpisodeParams:
			part.(*abstraction.EpisodeTally).AddHistory(h, p.Gap)
		case *ScenarioParams:
			part.(*temporal.ScenarioTally).Add(p.Scenario.MatchEpisodes(abstraction.EpisodesStable(h, p.Gap)))
		default:
			t.Fatalf("refAnalyze: no reference for kind %q", req.Kind)
		}
	}
	return part
}

// normalizePartial maps nil and empty maps to the same representation:
// gob transports an empty map as an absent field, which decodes to nil —
// semantically identical, so the comparison must not distinguish them.
func normalizePartial(p Partial) Partial {
	switch v := p.(type) {
	case *mining.Counts:
		if v.Single == nil {
			v.Single = map[string]int{}
		}
		if v.Pair == nil {
			v.Pair = map[[2]string]int{}
		}
	case *abstraction.EpisodeTally:
		if v.ByDominant == nil {
			v.ByDominant = map[string]int{}
		}
	}
	return p
}

// TestAnalyzeParity is the acceptance property: remote shard servers and
// a local-backend fan-out both reproduce the sequential reference
// exactly, for every kind, at shard counts {1, 4, 16}, over the whole
// population and over a pushed-down cohort mask.
func TestAnalyzeParity(t *testing.T) {
	col, st, _ := parityEngines(t)
	cases := analyzeCases(t)
	cohortExpr := query.Expr(query.Has{Pred: query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}})
	for _, shards := range []int{1, 4, 16} {
		fix := startShardServers(t, col, shards, 2, RemoteOptions{Timeout: 30 * time.Second})
		localDist := shardedEngine(t, st, shards, Options{Workers: 4, CacheSize: 32})
		for _, expr := range []query.Expr{query.TrueExpr{}, cohortExpr} {
			bits, err := fix.eng.Execute(expr)
			if err != nil {
				t.Fatal(err)
			}
			cohort := cohortOf(col, bits)
			for _, tc := range cases {
				want := tc.want(cohort)
				for name, eng := range map[string]*Engine{"remote": fix.eng, "local-dist": localDist} {
					got, err := eng.Analyze(bits, tc.req)
					if err != nil {
						t.Fatalf("shards=%d %s Analyze(%s over %s): %v", shards, name, tc.name, expr, err)
					}
					if !reflect.DeepEqual(tc.view(got), want) {
						t.Fatalf("shards=%d %s %s over %s: answer differs from the sequential reference\n got %+v\nwant %+v",
							shards, name, tc.name, expr, tc.view(got), want)
					}
					if got.HistoryCount() > bits.Count() {
						t.Fatalf("shards=%d %s %s: tallied %d histories from a %d-member cohort",
							shards, name, tc.name, got.HistoryCount(), bits.Count())
					}
				}
			}
		}
		localDist.Close()
	}
}

// TestAnalyzePartialWireMerge: for every kind, two shards' partials merged
// after crossing a gob stream as a connection carries them — typed values
// in the reply struct, the second one without its type descriptor — equal
// the same partials merged directly, and both equal the sequential
// reference: the stream neither loses nor invents a tally.
func TestAnalyzePartialWireMerge(t *testing.T) {
	col, _, _ := parityEngines(t)
	halves := [2]*store.Bitset{store.NewBitset(col.Len()), store.NewBitset(col.Len())}
	for i := 0; i < col.Len(); i++ {
		halves[i%2].Set(i)
	}
	for _, tc := range analyzeCases(t) {
		spec := analyzers[tc.req.Kind]
		direct, wired := spec.newPartial(tc.req.params), spec.newPartial(tc.req.params)
		var stream bytes.Buffer
		enc, dec := gob.NewEncoder(&stream), gob.NewDecoder(&stream)
		for _, mask := range halves {
			part, err := tallyAnalyze(col.At, col.Len(), AnalyzeArgs{Kind: tc.req.Kind, Params: tc.req.params, Mask: mask})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := enc.Encode(&AnalyzeRPCReply{Partial: part}); err != nil {
				t.Fatalf("%s: encode partial: %v", tc.name, err)
			}
			var reply AnalyzeRPCReply
			if err := dec.Decode(&reply); err != nil {
				t.Fatalf("%s: decode partial: %v", tc.name, err)
			}
			if err := spec.checkPartial(reply.Partial); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if err := spec.merge(direct, part); err != nil {
				t.Fatal(err)
			}
			if err := spec.merge(wired, reply.Partial); err != nil {
				t.Fatal(err)
			}
		}
		if want := tc.want(col); !reflect.DeepEqual(tc.view(direct), want) || !reflect.DeepEqual(tc.view(wired), want) {
			t.Errorf("%s: merged partials differ from the reference\n direct %+v\n wired  %+v\n want   %+v",
				tc.name, tc.view(direct), tc.view(wired), want)
		}
	}
}

// TestAnalyzeRulesDeterministic: the coordinator-side finalization over
// merged counts yields the same ruleset, in the same order, from the
// remote partials as from the reference — the end-to-end byte-identity
// the CLI diff test relies on.
func TestAnalyzeRulesDeterministic(t *testing.T) {
	col, _, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 30 * time.Second})
	bits, err := fix.eng.Execute(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := MineRequest(MineParams{System: "ICPC2", Chapter: true})
	if err != nil {
		t.Fatal(err)
	}
	part, err := fix.eng.Analyze(bits, req)
	if err != nil {
		t.Fatal(err)
	}
	opt := mining.Options{MinSupport: 0.01, MinCount: 2}
	got := part.(*mining.Counts).Rules(opt)
	want := refAnalyze(t, cohortOf(col, bits), req).(*mining.Counts).Rules(opt)
	if len(got) == 0 {
		t.Fatal("no rules mined from the parity population; the fixture no longer exercises mining")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("distributed rules differ from reference:\n got %v\nwant %v", got, want)
	}
	if !reflect.DeepEqual(mining.Top(got, 5), mining.Top(want, 5)) {
		t.Fatalf("Top(5) differs between distributed and reference rules")
	}
}

// otherKind returns the first case of another analyzer kind: the source of
// "another kind's" params and partials.
func otherKind(cases []analyzeCase, kind string) analyzeCase {
	for _, tc := range cases {
		if tc.req.Kind != kind {
			return tc
		}
	}
	panic("one analyzer kind only")
}

// invalidParams are parameter values no request builder lets through, in
// each kind's own registered type: what only a hostile peer can send. The
// utilization kind has none — every window is meaningful.
func invalidParams() map[string]any {
	one := SpanParams(1)
	return map[string]any{
		AnalyzeMine:     &MineParams{MaxGap: -1},
		AnalyzeEpisodes: &EpisodeParams{},
		AnalyzeScenario: &ScenarioParams{Gap: model.Day, Scenario: temporal.Scenario{
			Steps: []string{"T"}, Relations: []temporal.StepRel{{I: 0, J: 5, Rel: temporal.Before}}}},
		AnalyzeSpan: &one,
	}
}

// wantErr fails the test unless err is an error mentioning every one of
// the given fragments.
func wantErr(t *testing.T, what string, err error, mentions ...string) {
	t.Helper()
	if err == nil {
		t.Errorf("%s: want an error, got success", what)
		return
	}
	for _, m := range mentions {
		if !strings.Contains(err.Error(), m) {
			t.Errorf("%s: error %q does not mention %q", what, err, m)
		}
	}
}

// TestAnalyzeHostileRPC drives hostile typed requests at a live shard
// server over a raw rpc.Client, for every kind: each malformed request is a
// loud per-call error — naming the shard where one is at fault — the
// connection and server survive, and a well-formed call still answers
// afterwards, a multi-shard one with the server-side merge of its shards.
func TestAnalyzeHostileRPC(t *testing.T) {
	col, _, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 1, RemoteOptions{Timeout: 10 * time.Second})
	client, err := rpc.Dial("tcp", fix.listeners[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	shardPatients := fix.eng.BackendInfo()[0].Patients
	call := func(args AnalyzeRPCArgs) (Partial, error) {
		var reply AnalyzeRPCReply
		err := client.Call(rpcServiceName+".Analyze", &args, &reply)
		return reply.Partial, err
	}
	mask := store.NewBitset(shardPatients)
	mask.Set(0)
	maskData, crc, err := encodeMask(mask)
	if err != nil {
		t.Fatal(err)
	}
	wrongData, wrongCRC, err := encodeMask(store.NewBitset(shardPatients + 17))
	if err != nil {
		t.Fatal(err)
	}
	good := ShardItem{Shard: 0, Mask: maskData, MaskCRC: crc}

	cases := analyzeCases(t)
	invalid := invalidParams()
	for _, tc := range cases {
		kind, params := tc.req.Kind, tc.req.params
		type row struct {
			name     string
			args     AnalyzeRPCArgs
			mentions []string
		}
		rows := []row{
			{"unknown kind", AnalyzeRPCArgs{Kind: "bogus", Params: params, Items: []ShardItem{good}}, []string{"unknown analyzer kind"}},
			{"nil params", AnalyzeRPCArgs{Kind: kind, Items: []ShardItem{good}}, []string{kind, "params are <nil>"}},
			{"another kind's params", AnalyzeRPCArgs{Kind: kind, Params: otherKind(cases, kind).req.params, Items: []ShardItem{good}}, []string{kind, "params are"}},
			{"zero items", AnalyzeRPCArgs{Kind: kind, Params: params}, []string{"lists 0 items"}},
			{"a shard twice", AnalyzeRPCArgs{Kind: kind, Params: params, Items: []ShardItem{good, {Shard: 1}, good}}, []string{"shard 0 twice"}},
			{"10⁶ items", AnalyzeRPCArgs{Kind: kind, Params: params, Items: make([]ShardItem, 1_000_000)}, []string{"lists 1000000 items"}},
			{"unknown shard", AnalyzeRPCArgs{Kind: kind, Params: params, Items: []ShardItem{good, {Shard: 9}}}, []string{"shard 9"}},
			{"bad crc", AnalyzeRPCArgs{Kind: kind, Params: params, Items: []ShardItem{{Shard: 1}, {Shard: 0, Mask: maskData, MaskCRC: crc ^ 1}}}, []string{"shard 0", "checksum"}},
			{"wrong-length mask", AnalyzeRPCArgs{Kind: kind, Params: params, Items: []ShardItem{{Shard: 0, Mask: wrongData, MaskCRC: wrongCRC}}}, []string{"shard 0", "mask covers"}},
		}
		if bad, ok := invalid[kind]; ok {
			rows = append(rows, row{"invalid values", AnalyzeRPCArgs{Kind: kind, Params: bad, Items: []ShardItem{good}}, []string{kind}})
		}
		for _, row := range rows {
			_, err := call(row.args)
			wantErr(t, tc.name+": "+row.name, err, row.mentions...)
		}

		// The server must still answer well-formed requests on the same
		// connection — the abuse above cannot have wedged or killed it.
		part, err := call(AnalyzeRPCArgs{Kind: kind, Params: params, Items: []ShardItem{good}})
		if err != nil {
			t.Fatalf("%s: well-formed call after hostile ones: %v", tc.name, err)
		}
		if err := analyzers[kind].checkPartial(part); err != nil {
			t.Fatal(err)
		}
		if got := part.HistoryCount(); got < 0 || got > 1 {
			t.Fatalf("%s: one-member mask tallied %d histories", tc.name, got)
		}
		part, err = call(AnalyzeRPCArgs{Kind: kind, Params: params, Items: []ShardItem{{Shard: 2}, {Shard: 0}, {Shard: 3}, {Shard: 1}}})
		if err != nil {
			t.Fatalf("%s: well-formed four-shard call: %v", tc.name, err)
		}
		if want := tc.want(col); !reflect.DeepEqual(tc.view(part), want) {
			t.Errorf("%s: the server's merge of its four shards differs from the reference\n got %+v\nwant %+v", tc.name, tc.view(part), want)
		}
	}
}

// hostileRPC is a fake shard server that advertises one well-formed shard
// and then answers the data RPCs with whatever it was loaded with — the
// server a coordinator must never trust.
type hostileRPC struct {
	meta     ShardMeta
	ids      [][]model.PatientID
	partial  Partial
	segments []FetchSegment
}

func (r *hostileRPC) Describe(_ *DescribeArgs, reply *DescribeReply) error {
	reply.Shards, reply.TotalPatients = []ShardMeta{r.meta}, r.meta.Patients
	return nil
}

func (r *hostileRPC) IDs(_ *IDsArgs, reply *IDsReply) error {
	reply.IDs = r.ids
	return nil
}

func (r *hostileRPC) Analyze(_ *AnalyzeRPCArgs, reply *AnalyzeRPCReply) error {
	reply.Partial = r.partial
	return nil
}

func (r *hostileRPC) Fetch(_ *FetchArgs, reply *FetchReply) error {
	reply.Segments = r.segments
	return nil
}

// dialHostile serves r and dials it; addr is what every refusal of its
// replies must name.
func dialHostile(t *testing.T, r *hostileRPC) (b ShardBackend, addr string) {
	t.Helper()
	addr = serveRPCStub(t, r).Addr().String()
	backends, _, err := DialShards(addr, RemoteOptions{Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { backends[0].Close() })
	return backends[0], addr
}

// TestAnalyzeHostilePartial: for every kind, a reply partial is refused —
// the error naming the server — when it is missing, is another kind's, is
// internally inconsistent (each kind's own check), or claims more
// histories than the shards asked hold; the connection survives each, and
// an honest partial from an honest-sized shard is accepted.
func TestAnalyzeHostilePartial(t *testing.T) {
	inconsistent := map[string][]Partial{
		AnalyzeMine:     {&mining.Counts{N: 1, Single: map[string]int{"T90": 2}}},
		AnalyzeEpisodes: {&abstraction.EpisodeTally{Histories: 1, WithEpisodes: 2, Episodes: 2}},
		AnalyzeScenario: {&temporal.ScenarioTally{Histories: 1, Bound: 2}},
		// One partial per reading it fails: the indicators, then the
		// profile twice (nobody in an age band; more sexed than patients).
		AnalyzeUtilization: {&stats.Utilization{Patients: 1, Females: 2}, &stats.Utilization{Patients: 1},
			&stats.Utilization{Patients: 1, Females: 1, Males: 1, AgeBands: [7]int{1}}},
		AnalyzeSpan: {&SpanTally{Histories: 1, Spanned: 2}},
	}
	col, _, _ := parityEngines(t)
	cases := analyzeCases(t)
	honest := func(tc analyzeCase) Partial {
		part, err := tallyAnalyze(col.At, col.Len(), AnalyzeArgs{Kind: tc.req.Kind, Params: tc.req.params})
		if err != nil {
			t.Fatal(err)
		}
		return part
	}
	for _, tc := range cases {
		bad := inconsistent[tc.req.Kind]
		if len(bad) == 0 {
			t.Fatalf("analyzer kind %q has no inconsistent partial here", tc.req.Kind)
		}
		srv := &hostileRPC{meta: ShardMeta{Patients: 1, Entries: 1}}
		b, addr := dialHostile(t, srv)
		analyze := func() (Partial, error) {
			return b.Analyze(context.Background(), AnalyzeArgs{Kind: tc.req.Kind, Params: tc.req.params})
		}
		for name, row := range map[string]struct {
			partial  Partial
			mentions string
		}{
			"no partial":             {nil, "partial is <nil>"},
			"another kind's partial": {honest(otherKind(cases, tc.req.Kind)), "partial is"},
			// An honest tally over the whole population, from a server whose
			// one shard advertises a single patient.
			"more histories than the shard holds": {honest(tc), "hold 1"},
		} {
			srv.partial = row.partial
			_, err := analyze()
			wantErr(t, tc.name+": "+name, err, addr, row.mentions)
		}
		for _, srv.partial = range bad {
			_, err := analyze()
			wantErr(t, tc.name+": inconsistent partial", err, addr, "tally")
		}
		srv.partial = analyzers[tc.req.Kind].newPartial(tc.req.params)
		if _, err := analyze(); err != nil {
			t.Errorf("%s: an empty, consistent partial on the same connection: %v", tc.name, err)
		}
	}
}

// TestRemoteFetchEnforcesCounts: a server answering a fetch with more or
// fewer segments than shards asked, or a segment with more or fewer
// histories than ordinals asked, is refused — the error naming the server
// and, for a segment, the shard — and the matching reply is accepted on the
// same connection.
func TestRemoteFetchEnforcesCounts(t *testing.T) {
	col, _, _ := parityEngines(t)
	segment := func(n int) FetchSegment {
		data, sum := store.EncodeHistories(col.Histories()[:n])
		return FetchSegment{Histories: data, Checksum: sum}
	}
	srv := &hostileRPC{meta: ShardMeta{Shard: 3, Patients: 8, Entries: 1}}
	b, addr := dialHostile(t, srv)
	fetch := func() ([]*model.History, error) { return b.FetchHistories(context.Background(), []int{1, 5}) }
	for name, row := range map[string]struct {
		segments []FetchSegment
		mentions []string
	}{
		"no segment":        {nil, []string{addr, "0 segments for 1 shards"}},
		"two segments":      {[]FetchSegment{segment(2), segment(2)}, []string{addr, "2 segments for 1 shards"}},
		"one history short": {[]FetchSegment{segment(1)}, []string{addr, "shard 3"}},
		"one history over":  {[]FetchSegment{segment(3)}, []string{addr, "shard 3"}},
		"flipped byte":      {[]FetchSegment{{Histories: segment(2).Histories, Checksum: segment(2).Checksum ^ 1}}, []string{addr, "shard 3"}},
	} {
		srv.segments = row.segments
		_, err := fetch()
		wantErr(t, name, err, row.mentions...)
	}
	srv.segments = []FetchSegment{segment(2)}
	if hs, err := fetch(); err != nil || len(hs) != 2 {
		t.Errorf("matching reply = %d histories, %v", len(hs), err)
	}
}

// TestRemoteIDsOfEnforcesCount: a server answering more or fewer IDs than
// bits were selected, or more or fewer listings than shards asked, is
// refused — concatenated by position, the slices would misalign the whole
// cohort listing.
func TestRemoteIDsOfEnforcesCount(t *testing.T) {
	bits := store.NewBitset(8)
	bits.Set(1)
	bits.Set(5)
	srv := &hostileRPC{meta: ShardMeta{Patients: 8, Entries: 1}}
	b, addr := dialHostile(t, srv)
	for name, ids := range map[string][][]model.PatientID{
		"fewer":        {{7}},
		"more":         {{7, 8, 9}},
		"no listing":   nil,
		"two listings": {{7, 8}, {9, 10}},
	} {
		srv.ids = ids
		_, err := b.IDsOf(context.Background(), bits)
		wantErr(t, name+" IDs than selected", err, addr)
	}
	srv.ids = [][]model.PatientID{{7, 8}}
	if got, err := b.IDsOf(context.Background(), bits); err != nil || len(got) != 2 {
		t.Errorf("matching reply = %v, %v", got, err)
	}
}

// TestAnalyzeBadRequest: a coordinator-level request with an unknown kind,
// without parameters, with another kind's parameters or with a
// stale-generation bitset fails before any fan-out, and the request
// builders refuse invalid values.
func TestAnalyzeBadRequest(t *testing.T) {
	_, st, engines := parityEngines(t)
	eng := engines[0]
	bits, err := eng.Execute(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	req, err := EpisodesRequest(EpisodeParams{Gap: 90 * model.Day})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Analyze(bits, AnalyzeRequest{Kind: "bogus", params: req.params}); err == nil {
		t.Fatal("unknown kind: want error")
	}
	if _, err := eng.Analyze(bits, AnalyzeRequest{Kind: AnalyzeMine}); err == nil {
		t.Fatal("a request no builder made: want error")
	}
	if _, err := eng.Analyze(bits, AnalyzeRequest{Kind: AnalyzeMine, params: req.params}); err == nil {
		t.Fatal("episode params under the mine kind: want error")
	}
	for kind, bad := range invalidParams() {
		if _, err := eng.Analyze(bits, AnalyzeRequest{Kind: kind, params: bad}); err == nil {
			t.Fatalf("%s: invalid values: want error", kind)
		}
	}
	if _, err := MineRequest(MineParams{MaxGap: -1}); err == nil {
		t.Fatal("negative MaxGap: want error")
	}
	if _, err := EpisodesRequest(EpisodeParams{}); err == nil {
		t.Fatal("zero gap: want error")
	}
	if _, err := ScenarioRequest(ScenarioParams{Gap: model.Day, Scenario: temporal.Scenario{
		Steps: []string{"T"}, Relations: []temporal.StepRel{{I: 0, J: 5, Rel: temporal.Before}},
	}}); err == nil {
		t.Fatal("out-of-range scenario relation: want error")
	}
	short := store.NewBitset(st.Len() - 1)
	if _, err := eng.Analyze(short, req); err == nil {
		t.Fatal("wrong-length bitset: want error")
	}
}

// TestAnalyzeDegradedAndStrict: under PolicyDegraded a dead shard is
// absorbed and reported — the tally covers exactly the reachable
// population — while the default strict policy turns the same outage
// into a hard error naming the shard.
func TestAnalyzeDegradedAndStrict(t *testing.T) {
	col, st, _ := parityEngines(t)
	const shards = 4
	build := func(policy Policy) (*Engine, []*FaultBackend) {
		var faults []*FaultBackend
		var backends []ShardBackend
		for _, local := range LocalShards(st.Pin(), shards) {
			f := NewFaultBackend(local)
			faults = append(faults, f)
			backends = append(backends, f)
		}
		eng, err := NewFromBackends(backends, Options{Workers: 4, Policy: policy})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { eng.Close() })
		return eng, faults
	}
	req, err := EpisodesRequest(EpisodeParams{Gap: 90 * model.Day})
	if err != nil {
		t.Fatal(err)
	}

	deg, faults := build(PolicyDegraded)
	bits, err := deg.Execute(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	part, status, err := deg.AnalyzeStatus(context.Background(), bits, req)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Complete() || part.HistoryCount() != col.Len() {
		t.Fatalf("healthy degraded run: tallied %d of %d, status %+v", part.HistoryCount(), col.Len(), status)
	}

	deg.ResetCache() // the memo would answer the outage with the complete tally
	faults[1].Fail()
	part, status, err = deg.AnalyzeStatus(context.Background(), bits, req)
	if err != nil {
		t.Fatalf("degraded analyze with one shard down: %v", err)
	}
	if len(status.MissingShards) != 1 || status.MissingShards[0] != 1 {
		t.Fatalf("missing shards = %v, want [1]", status.MissingShards)
	}
	wantHistories := col.Len() - deg.BackendInfo()[1].Patients
	if part.HistoryCount() != wantHistories {
		t.Fatalf("degraded tally covers %d histories, want %d", part.HistoryCount(), wantHistories)
	}

	strict, sfaults := build(PolicyStrict)
	sfaults[2].Fail()
	if _, err := strict.Analyze(bits, req); err == nil || !strings.Contains(err.Error(), "shard 2") {
		t.Fatalf("strict analyze with shard 2 down: want error naming the shard, got %v", err)
	}
}

// TestAnalyzeReplicaFailover: a replicated group whose first member is
// down serves Analyze from the other with results identical to the
// reference.
func TestAnalyzeReplicaFailover(t *testing.T) {
	col, _, _ := parityEngines(t)
	rs := serveReplicas(t, col, 4, 2, nil)
	rs.gates[0].setFailed(true)
	eng, err := NewFromBackends(rs.backends, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	bits, err := eng.Execute(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range analyzeCases(t) {
		got, err := eng.Analyze(bits, tc.req)
		if err != nil {
			t.Fatalf("replica analyze %s: %v", tc.name, err)
		}
		if want := tc.want(col); !reflect.DeepEqual(tc.view(got), want) {
			t.Fatalf("replica analyze %s: answer differs from the reference\n got %+v\nwant %+v", tc.name, tc.view(got), want)
		}
	}
}

// scratchOrders are the history orders the scratch axis tallies a cohort
// in: shard order, reversed, and with the histories a reused scratch is
// most likely to leak into or out of — empty, single-entry, and unsorted
// (SortedEntries' copy path) — interleaved between the real ones. Every
// call builds fresh histories: a reference may sort what it reads.
func scratchOrders(col *model.Collection) map[string]func() *model.Collection {
	hs := col.Histories()
	odd := func(i int) *model.History {
		id := model.PatientID(1_000_000 + i)
		h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1950, 6, 1)})
		switch src := hs[i]; i % 3 {
		case 1: // a single entry
			if src.Len() > 0 {
				h.Add(src.Entries[0])
			}
		case 2: // the neighbour's entries, newest first, left unsorted
			for j := src.Len() - 1; j >= 0; j-- {
				e := src.Entries[j]
				e.ID += 1 << 40
				h.Add(e)
			}
		}
		return h
	}
	return map[string]func() *model.Collection{
		"shard order": func() *model.Collection { return model.MustCollection(hs...) },
		"reversed": func() *model.Collection {
			out := make([]*model.History, len(hs))
			for i, h := range hs {
				out[len(hs)-1-i] = h
			}
			return model.MustCollection(out...)
		},
		"interleaved": func() *model.Collection {
			var out []*model.History
			for i, h := range hs {
				out = append(out, h, odd(i))
			}
			return model.MustCollection(out...)
		},
	}
}

// TestAnalyzeScratchParity: tallyAnalyze reuses one scratch across the
// histories of a call, so for every kind the tally must not depend on
// which history came before — each order equals the fresh-allocation
// reference over the same order.
func TestAnalyzeScratchParity(t *testing.T) {
	col, _, _ := parityEngines(t)
	for _, tc := range analyzeCases(t) {
		for name, build := range scratchOrders(col) {
			cohort := build()
			unsorted := 0
			for _, h := range cohort.Histories() {
				if !h.Sorted() {
					unsorted++
				}
			}
			if (name == "interleaved") != (unsorted > 0) {
				t.Fatalf("%s: %d unsorted histories", name, unsorted)
			}
			got, err := tallyAnalyze(cohort.At, cohort.Len(), AnalyzeArgs{Kind: tc.req.Kind, Params: tc.req.params})
			if err != nil {
				t.Fatalf("%s, %s: %v", tc.name, name, err)
			}
			if want := tc.want(build()); !reflect.DeepEqual(tc.view(got), want) {
				t.Errorf("%s, %s: tally differs from the fresh-allocation reference\n got %+v\nwant %+v",
					tc.name, name, tc.view(got), want)
			}
		}
	}
}

// TestAnalyzeConcurrentCalls: eight AnalyzeStatus calls of mixed kinds at
// once — on one local engine, and through one loopback shard server, whose
// map steps then share histories — answer what they answer one at a time.
// A scratch owned by anything wider than the call fails here under -race.
func TestAnalyzeConcurrentCalls(t *testing.T) {
	col, _, engines := parityEngines(t)
	cases := analyzeCases(t)
	remote := startShardServers(t, col, 4, 1, RemoteOptions{Timeout: 30 * time.Second})
	for name, eng := range map[string]*Engine{"local": engines[0], "loopback": remote.eng} {
		bits, err := eng.Execute(query.TrueExpr{})
		if err != nil {
			t.Fatal(err)
		}
		want := make([]any, len(cases))
		for i, tc := range cases {
			part, err := eng.Analyze(bits, tc.req)
			if err != nil {
				t.Fatalf("%s %s: %v", name, tc.name, err)
			}
			want[i] = tc.view(part)
		}
		const calls = 8
		got := make([]any, calls)
		errs := make([]error, calls)
		var wg sync.WaitGroup
		for c := 0; c < calls; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				tc := cases[c%len(cases)]
				part, _, err := eng.AnalyzeStatus(context.Background(), bits, tc.req)
				if errs[c] = err; err == nil {
					got[c] = tc.view(part)
				}
			}(c)
		}
		wg.Wait()
		for c := 0; c < calls; c++ {
			if errs[c] != nil {
				t.Fatalf("%s call %d (%s): %v", name, c, cases[c%len(cases)].name, errs[c])
			}
			if !reflect.DeepEqual(got[c], want[c%len(cases)]) {
				t.Errorf("%s call %d (%s): concurrent answer differs from the sequential one\n got %+v\nwant %+v",
					name, c, cases[c%len(cases)].name, got[c], want[c%len(cases)])
			}
		}
	}
}

// TestTallyAnalyzeAllocationBudget holds the map steps to what a call may
// allocate over a fixed 2,000-history frame: the utilization tally and the
// span nothing per history, the scratch-reusing kinds at most one
// allocation per twenty histories (the partial's maps, the id tallies and
// the scratch growing to the largest history).
func TestTallyAnalyzeAllocationBudget(t *testing.T) {
	col, _, err := integrate.Build(synth.Generate(synth.DefaultConfig(2000)), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	frame := *store.BuildFrame(col.Histories()) // as a store holds it: built once, before any call
	for _, tc := range analyzeCases(t) {
		args := AnalyzeArgs{Kind: tc.req.Kind, Params: tc.req.params}
		got := testing.AllocsPerRun(3, func() { // one warm pass first
			if _, err := tallyFrame(frame, args); err != nil {
				t.Fatal(err)
			}
		})
		budget := 0.05 * float64(col.Len())
		switch tc.req.Kind {
		case AnalyzeUtilization, AnalyzeSpan:
			budget = 4 // the partial, not the histories
		}
		t.Logf("%s: %.0f allocations per call", tc.name, got)
		if got > budget {
			t.Errorf("%s: %.0f allocations per call over %d histories, budget %.0f", tc.name, got, col.Len(), budget)
		}
	}
}
