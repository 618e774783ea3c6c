package engine

// The frame ≡ histories property: for every registered analyzer kind, the
// tally tallyFrame makes over a store's frame equals a fresh-allocation
// pass over the same *model.History values by the loops the frame kernels
// replaced, kept here as oracles — over cohorts, masks and windows drawn
// from bytes, so one checker serves the seeded property test and the fuzz
// target.

import (
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pastas/internal/abstraction"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/synth"
	"pastas/internal/temporal"
)

// tallyAnalyze is the *model.History entry to the map loop, as the suites
// written before the frame call it: the histories are framed from scratch
// (unsorted ones through SortedEntries' copy path) and go through
// tallyFrame, the loop both transports run.
func tallyAnalyze(history func(int) *model.History, patients int, args AnalyzeArgs) (Partial, error) {
	hs := make([]*model.History, patients)
	for i := range hs {
		hs[i] = history(i)
	}
	return tallyFrame(*store.BuildFrame(hs), args)
}

// inWindow is the test the indicators and the profile always shared, and
// the clamped period it measures durations over.
func inWindow(e *model.Entry, window model.Period) (model.Period, bool) {
	p := e.Period().Clamp(window)
	return p, e.Kind == model.Interval && !p.Empty() || e.Kind == model.Point && window.Contains(e.Start)
}

// refIndicators is the indicator tally as it walked a history before the
// frame (with the age clamped, as the profile's always was).
func refIndicators(c *stats.IndicatorCounts, h *model.History, window model.Period) {
	c.Patients++
	c.AgeYears += int64(max(h.Patient.AgeAt(window.Start), 0))
	if h.Patient.Sex == model.SexFemale {
		c.Females++
	}
	for i := range h.Entries {
		e := &h.Entries[i]
		p, in := inWindow(e, window)
		if !in {
			continue
		}
		switch e.Type {
		case model.TypeContact:
			switch e.Source {
			case model.SourceGP:
				c.GPContacts++
				if strings.Contains(e.Text, "legevakt") || strings.Contains(e.Text, "akutt") {
					c.EmergencyGP++
				}
			case model.SourceHospital:
				c.OutpatientVisits++
			case model.SourceSpecialist:
				c.SpecialistContacts++
			case model.SourcePhysio:
				c.PhysioContacts++
			}
		case model.TypeStay:
			switch e.Source {
			case model.SourceHospital:
				c.Admissions++
				c.AdmissionTicks += int64(p.Duration())
			case model.SourceMunicipal:
				c.NursingTicks += int64(p.Duration())
			}
		case model.TypeService:
			c.HomeCareTicks += int64(p.Duration())
		case model.TypeMedication:
			c.Prescriptions++
		}
	}
}

// refProfile is the profile tally as it walked a history.
func refProfile(p *stats.CohortProfile, h *model.History, window model.Period) {
	p.Patients++
	switch h.Patient.Sex {
	case model.SexFemale:
		p.Females++
	case model.SexMale:
		p.Males++
	}
	age := max(h.Patient.AgeAt(window.Start), 0)
	p.AgeYears += int64(age)
	p.AgeBands[min(age/15, len(p.AgeBands)-1)]++
	for i := range h.Entries {
		e := &h.Entries[i]
		if _, in := inWindow(e, window); !in {
			continue
		}
		p.Entries++
		if int(e.Source) < len(p.BySource) {
			p.BySource[e.Source]++
		}
		if int(e.Type) < len(p.ByType) {
			p.ByType[e.Type]++
		}
	}
}

// refEpisodes derives a history's episodes with a fresh slice per episode
// and a map per dominant, looking chapters up in the terminology.
func refEpisodes(h *model.History, gap model.Time) []abstraction.Episode {
	entries := h.SortedEntries()
	var eps []abstraction.Episode
	for i := range entries {
		e := &entries[i]
		end := e.Start
		if e.Kind == model.Interval {
			end = e.End
		}
		if cur := len(eps) - 1; cur >= 0 && e.Start-eps[cur].Period.End <= gap {
			eps[cur].N++
			eps[cur].Period.End = max(eps[cur].Period.End, end)
			continue
		}
		eps = append(eps, abstraction.Episode{Period: model.Period{Start: e.Start, End: end}, First: i, N: 1})
	}
	for i := range eps {
		counts := make(map[model.Code]int)
		for _, e := range entries[eps[i].First : eps[i].First+eps[i].N] {
			if e.Type == model.TypeDiagnosis && !e.Code.IsZero() {
				counts[e.Code]++
			}
		}
		var best model.Code
		bestN := 0
		for c, n := range counts {
			if n > bestN || n == bestN && (c.Value < best.Value || c.Value == best.Value && c.System < best.System) {
				best, bestN = c, n
			}
		}
		eps[i].Dominant = best
		if eps[i].Label = abstraction.ChapterOf(best); eps[i].Label == "" {
			eps[i].Label = best.Value
		}
		if eps[i].Period.Empty() {
			eps[i].Period.End = eps[i].Period.Start + model.Day
		}
	}
	return eps
}

// refTally is the sequential *model.History reference for one request, in
// the form tallyView renders a partial in.
func refTally(t testing.TB, req AnalyzeRequest, hs []*model.History) any {
	t.Helper()
	switch p := req.params.(type) {
	case *MineParams:
		return normalizePartial(refAnalyze(t, model.MustCollection(hs...), req))
	case *EpisodeParams:
		tally := abstraction.NewEpisodeTally()
		for _, h := range hs {
			tally.AddEpisodes(refEpisodes(h, p.Gap))
		}
		return tally
	case *ScenarioParams:
		tally := new(temporal.ScenarioTally)
		for _, h := range hs {
			tally.Add(p.Scenario.MatchEpisodes(refEpisodes(h, p.Gap)))
		}
		return tally
	case *window:
		var c stats.IndicatorCounts
		var prof stats.CohortProfile
		for _, h := range hs {
			refIndicators(&c, h, p.Period)
			refProfile(&prof, h, p.Period)
		}
		return [2]any{c, prof}
	case *SpanParams:
		span := refSpan(hs)
		return &span
	}
	t.Fatalf("refTally: no reference for kind %q", req.Kind)
	return nil
}

// tallyView renders a partial for comparison with refTally: a utilization
// tally as its two readings, anything else normalized.
func tallyView(p Partial) any {
	if u, ok := p.(*stats.Utilization); ok {
		return [2]any{u.Indicators(), u.Profile()}
	}
	return normalizePartial(p)
}

// byteSource draws the checker's choices from fuzz input; an exhausted
// source reads zeros, so every input is a valid (if dull) case.
type byteSource struct {
	data []byte
	i    int
}

func (b *byteSource) next() int {
	if b.i >= len(b.data) {
		return 0
	}
	b.i++
	return int(b.data[b.i-1])
}

// enum draws a type or source byte: mostly a declared constant, one time
// in eight any byte at all (7–255 included).
func (b *byteSource) enum(valid int) uint8 {
	if v := b.next(); v%8 != 0 {
		return uint8(v % valid)
	}
	return uint8(b.next())
}

var (
	frameCodes = []model.Code{
		{}, {}, {System: "ICPC2", Value: "T90"}, {System: "ICPC2", Value: "K80"}, {System: "ICD10", Value: "K80"},
		{System: "ICPC2", Value: "R05"}, {System: "ICD10", Value: "R05"}, {System: "ICD10", Value: "E11.9"},
		{System: "ICPC2", Value: "K86"}, {System: "ATC", Value: "C07AB02"}, {System: "LOCAL", Value: "x1"},
		{System: "LOCAL"}, {Value: "bare"}, {System: "ICPC2", Value: "T89"}, {System: "LOCAL", Value: "T90"},
	}
	frameTexts  = []string{"", "kontroll", "legevakt", "time akutt", "Legevakt"}
	frameValues = []float64{0, 0, 1, -1, 120, 140.5, math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	frameLabels = []string{"T", "K", "R", "K80", "x1", "E", "bare"}
	farPast     = model.Time(-1) << 62
	farFuture   = model.Time(1) << 62
)

// drawHistories draws a small cohort: births on both sides of any window,
// point, interval, empty, inverted and unknown-kind entries, any type and
// source byte, zero codes and code values two systems share, GP texts
// with and without the emergency words, NaN, infinite and signed-zero
// values; two histories in three are sorted,
// the rest go through SortedEntries' copy path.
func drawHistories(src *byteSource) []*model.History {
	hs := make([]*model.History, src.next()%10)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Sex: model.Sex(src.next() % 4),
			Birth: model.Date(1900+src.next()%128, 1, 1).AddDays(src.next())})
		for j, n := 0, src.next()%14; j < n; j++ {
			start := model.Date(2000+src.next()%16, 1, 1).AddDays(src.next()) + model.Time(src.next())
			e := model.Entry{ID: uint64(i*100 + j + 1), Start: start, End: start, Kind: model.Kind(src.next() % 5 % 3),
				Type: model.Type(src.enum(7)), Source: model.Source(src.enum(6)),
				Code: frameCodes[src.next()%len(frameCodes)], Text: frameTexts[src.next()%len(frameTexts)],
				Value: frameValues[src.next()%len(frameValues)]}
			if e.Kind != model.Point {
				e.End = start.AddDays(src.next() - 8) // before, at or after the start
			}
			h.Add(e)
		}
		if src.next()%3 != 0 {
			h.Sort()
		}
		hs[i] = h
	}
	return hs
}

func drawWindow(src *byteSource) model.Period {
	from := model.Date(2000+src.next()%16, 1, 1).AddDays(src.next())
	switch src.next() % 7 {
	case 0:
		return model.Period{}
	case 1:
		return model.Period{Start: from, End: from.AddDays(-src.next())} // empty or inverted
	case 2:
		return model.Period{Start: farPast, End: farFuture}
	case 3:
		return model.Period{Start: farPast, End: from}
	case 4:
		return model.Period{Start: from, End: farFuture}
	default:
		return model.Period{Start: from, End: from.AddDays(src.next() * 8)} // cuts intervals mid-way
	}
}

// drawRequests draws a request per registered kind, and a mine request in
// each of the four sequential × chapter modes, MaxGap and System drawn.
func drawRequests(t testing.TB, src *byteSource) []AnalyzeRequest {
	t.Helper()
	window := drawWindow(src)
	gap := model.Time(1+src.next()%120) * model.Day
	step := func() string { return frameLabels[src.next()%len(frameLabels)] }
	built := func(req AnalyzeRequest, err error) AnalyzeRequest {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	var reqs []AnalyzeRequest
	for _, mode := range [][2]bool{{false, false}, {false, true}, {true, false}, {true, true}} {
		reqs = append(reqs, built(MineRequest(MineParams{Sequential: mode[0], Chapter: mode[1], MaxGap: src.next() % 4,
			System: []string{"", "ICPC2", "ICD10", "LOCAL"}[src.next()%4]})))
	}
	reqs = append(reqs,
		built(EpisodesRequest(EpisodeParams{Gap: gap})),
		built(ScenarioRequest(ScenarioParams{Gap: gap, Scenario: temporal.Scenario{
			Steps:     []string{step(), step()},
			Relations: []temporal.StepRel{{I: 0, J: 1, Rel: 1 + temporal.Rel(src.next()*31)%temporal.Full}},
		}})),
		utilizationRequest(window),
		SpanRequest(),
	)
	if len(reqs) != len(analyzers)+3 { // mine in four modes, every other kind once
		t.Fatalf("%d analyzer kinds are registered, drawRequests draws %d requests", len(analyzers), len(reqs))
	}
	return reqs
}

// checkFrameAgainstHistories is the property on one input: for every
// kind, over the whole cohort and over a drawn mask, the frame tally of a
// store holding the histories — whole, and as two sliced views merged —
// equals the *model.History reference.
func checkFrameAgainstHistories(t testing.TB, data []byte) {
	t.Helper()
	src := &byteSource{data: data}
	hs := drawHistories(src)
	reqs := drawRequests(t, src)
	st := store.New(model.MustCollection(hs...))
	mask := store.NewBitset(len(hs))
	for i := range hs {
		if src.next()%2 == 0 {
			mask.Set(i)
		}
	}
	cut := src.next() % (len(hs) + 1)
	for _, req := range reqs {
		spec := analyzers[req.Kind]
		for _, m := range []*store.Bitset{nil, mask} {
			cohort := hs
			if m != nil {
				cohort = nil
				m.Range(func(i int) bool { cohort = append(cohort, hs[i]); return true })
			}
			want := refTally(t, req, cohort)
			whole, err := tallyFrame(st.Pin().Frame(), AnalyzeArgs{Kind: req.Kind, Params: req.params, Mask: m})
			if err != nil {
				t.Fatalf("%s: %v", req.Kind, err)
			}
			merged := spec.newPartial(req.params)
			for _, r := range [][2]int{{0, cut}, {cut, len(hs)}} {
				args := AnalyzeArgs{Kind: req.Kind, Params: req.params}
				if m != nil {
					args.Mask = m.SliceRange(r[0], r[1])
				}
				part, err := tallyFrame(st.Pin().Sub(r[0], r[1]).Frame(), args)
				if err != nil {
					t.Fatalf("%s over [%d, %d): %v", req.Kind, r[0], r[1], err)
				}
				if err := spec.merge(merged, part); err != nil {
					t.Fatal(err)
				}
			}
			for how, got := range map[string]Partial{"whole": whole, "two views merged": merged} {
				if !reflect.DeepEqual(tallyView(got), want) {
					t.Fatalf("%s (mask %v), %s: the frame tally differs from the *History reference\n got %+v\nwant %+v\nparams %+v",
						req.Kind, m != nil, how, got, want, req.params)
				}
			}
		}
	}
}

func TestFrameTallyMatchesHistories(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 400; i++ {
		data := make([]byte, 32+rng.Intn(1200))
		rng.Read(data)
		checkFrameAgainstHistories(t, data)
	}
	checkFrameAgainstHistories(t, nil) // no history at all
}

func FuzzFrameTallyMatchesHistories(f *testing.F) {
	rng := rand.New(rand.NewSource(29))
	for _, n := range []int{0, 16, 200, 900} {
		data := make([]byte, n)
		rng.Read(data)
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkFrameAgainstHistories(t, data) })
}

// TestProfileAndIndicatorsShareOneMeanAge: a child born inside the window
// has a negative age at its start. The profile always clamped it to zero
// and the indicators summed it as it was, so one cohort had two mean ages;
// both now take the one head computation of the shared kernel.
func TestProfileAndIndicatorsShareOneMeanAge(t *testing.T) {
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	var hs []*model.History
	for i, birth := range []model.Time{model.Date(1950, 1, 1), model.Date(2010, 6, 1), model.Date(2011, 11, 30)} {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: birth, Sex: model.SexFemale})
		at := model.Date(2011, 12, 1)
		h.Add(model.Entry{ID: uint64(i + 1), Kind: model.Point, Start: at, End: at, Source: model.SourceGP, Type: model.TypeContact})
		hs = append(hs, h)
	}
	col := model.MustCollection(hs...)
	eng := New(store.New(col), Options{Workers: 2})
	defer eng.Close()
	bits, err := eng.Execute(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	prof, err := eng.Profile(bits, window)
	if err != nil {
		t.Fatal(err)
	}
	ind, err := eng.Indicators(bits, window)
	if err != nil {
		t.Fatal(err)
	}
	if prof.MeanAge() != 20 || ind.MeanAge != prof.MeanAge() || stats.ComputeIndicators(col, window).MeanAge != 20 {
		t.Errorf("mean age: profile %v, indicators %v, sequential indicators %v; want 20 (60, 0 and 0 years) from all three",
			prof.MeanAge(), ind.MeanAge, stats.ComputeIndicators(col, window).MeanAge)
	}
}

// shardAfterAppends serves a 2,000-patient shard on a loopback server and
// measures call — made straight at the server's RPC surface — after each of
// three appends: what a shard server's handler allocates right after the
// store moved to a new revision must stay under budget bytes.
func shardAfterAppends(t *testing.T, what string, budget uint64, call func(rpc *ShardRPC, patients int)) {
	t.Helper()
	col, _, err := integrate.Build(synth.Generate(synth.DefaultConfig(2000)), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sv := serveShards(t, col, 1, [][]int{{0}}, RemoteOptions{Timeout: 30 * time.Second})
	st := sv.servers[0].shards[0].eng.Store()
	rpc := &ShardRPC{s: sv.servers[0]}
	measure := func() uint64 {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		call(rpc, col.Len())
		runtime.ReadMemStats(&m1)
		return m1.TotalAlloc - m0.TotalAlloc
	}
	measure() // whatever the first call of a process compiles or builds
	for round := 1; round <= 3; round++ {
		at := model.Date(2011, 3, round)
		if _, err := st.Append(store.AppendBatch{Updates: []store.HistoryUpdate{{ID: st.PatientAt(7), Entries: []model.Entry{{
			ID: st.MaxEntryID() + 1, Kind: model.Point, Start: at, End: at, Source: model.SourceGP, Type: model.TypeContact}}}}}); err != nil {
			t.Fatal(err)
		}
		got := measure()
		t.Logf("%s of 10 of %d patients after append %d: %d bytes", what, col.Len(), round, got)
		if got > budget {
			t.Errorf("%s of 10 of %d patients after append %d allocated %d bytes, budget %d", what, col.Len(), round, got, budget)
		}
	}
}

// tenOf selects ten patients spread over a shard.
func tenOf(patients int) *store.Bitset {
	mask := store.NewBitset(patients)
	for i := 0; i < 10; i++ {
		mask.Set(i * 150)
	}
	return mask
}

// TestShardAnalyzeAllocatesByCohort: a shard server's Analyze right after
// an append allocates for the cohort it tallies — mask, partial, reply —
// not for the shard. It used to ask the store for a model.Collection,
// which every new revision rebuilds: an ID → history map over the shard.
func TestShardAnalyzeAllocatesByCohort(t *testing.T) {
	req := utilizationRequest(caseWindow)
	shardAfterAppends(t, "Analyze", 24<<10, func(rpc *ShardRPC, patients int) {
		data, crc, err := encodeMask(tenOf(patients))
		if err != nil {
			t.Fatal(err)
		}
		var reply AnalyzeRPCReply
		err = rpc.Analyze(&AnalyzeRPCArgs{Kind: AnalyzeUtilization, Params: req.params,
			Items: []ShardItem{{Mask: data, MaskCRC: crc}}}, &reply)
		if err != nil || reply.Partial.HistoryCount() != 10 {
			t.Fatalf("partial tallies %v histories (%v), want the mask's 10", reply.Partial, err)
		}
	})
}

// TestShardFetchAllocatesByHistories: the same for Fetch, which indexes
// the shard by position only — its bytes follow the ten histories it
// encodes, not the 2,000 it holds.
func TestShardFetchAllocatesByHistories(t *testing.T) {
	shardAfterAppends(t, "Fetch", 96<<10, func(rpc *ShardRPC, patients int) {
		var reply FetchReply
		if err := rpc.Fetch(&FetchArgs{Items: []FetchItem{{Ordinals: tenOf(patients).Ones()}}}, &reply); err != nil {
			t.Fatal(err)
		}
		hs, err := store.DecodeHistories(reply.Segments[0].Histories, reply.Segments[0].Checksum, 10)
		if err != nil || len(hs) != 10 {
			t.Fatalf("fetched %d histories (%v), want 10", len(hs), err)
		}
	})
}
