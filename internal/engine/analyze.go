package engine

// The distributed analytics tier: a generic per-history map-reduce over
// the backend set. An analyzer kind names a registered map step (rule
// support counting, episode abstraction, temporal scenario matching);
// AnalyzeArgs carries the kind, its gob-encoded parameters and a
// shard-local cohort mask, and every backend runs the map step over only
// the masked-in histories, returning a mergeable integer partial. The
// coordinator reduces the partials exactly — integer sums are associative
// — so a distributed tally/mine/abstract/match is bit-identical to a
// sequential pass at any shard count over any transport mix, and no
// history ever leaves its shard for the map step. Genuinely cross-history
// analytics (MSA, clustering) stay coordinator-side over candidate sets
// paged in through FetchHistories.
//
// Adding a kind is one entry in the analyzers registry below, written in
// the kind's own parameter and partial types (newKind); every backend,
// the RPC, failover, fault injection and the coordinator's fan-out and
// policy handling come with it.
//
// Kinds are strings rather than iota for the same reason wire.go's node
// tags are: a reordered constant block can never silently re-interpret a
// peer's payload. Parameters and partials cross the wire as typed values
// on the connection's gob stream, each kind's two types registered under
// names derived from the kind; what lands is checked against the kind and
// validated before any map or merge work, so a hostile payload (unknown
// kind, another kind's params, out-of-range relation) is a loud error,
// never a panic and never a silently wrong tally.

import (
	"context"
	"encoding/gob"
	"fmt"
	"math/bits"
	"slices"
	"time"

	"pastas/internal/abstraction"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/temporal"
)

// Registered analyzer kinds.
const (
	// AnalyzeMine counts co-occurrence / sequential rule support over
	// per-history diagnosis code sequences (partial: *mining.Counts).
	AnalyzeMine = "mine"
	// AnalyzeEpisodes derives care episodes per history and tallies them
	// (partial: *abstraction.EpisodeTally).
	AnalyzeEpisodes = "episodes"
	// AnalyzeScenario matches an Allen-relation scenario against each
	// history's episodes (partial: *temporal.ScenarioTally).
	AnalyzeScenario = "scenario"
	// AnalyzeUtilization tallies utilization over a window — the one
	// kernel the indicators and the cohort profile are both read off
	// (params: the model.Period; partial: *stats.Utilization).
	AnalyzeUtilization = "utilization"
	// AnalyzeSpan finds the period the cohort's histories cover — the time
	// axis of a population view (partial: *SpanTally).
	AnalyzeSpan = "span"
)

// Partial is one shard's mergeable map-step result. The concrete type is
// per analyzer kind (see the kind constants); HistoryCount is the sanity
// bound a transport checks a reply against — a server can never claim to
// have tallied more histories than the shards it was asked about hold.
type Partial interface {
	HistoryCount() int
}

// AnalyzeArgs is one backend's share of a map step: the analyzer kind,
// its parameters — the kind's own pointer type, as a request builder
// validated it — and the shard-local candidate mask (nil means the whole
// shard).
type AnalyzeArgs struct {
	Kind   string
	Params any
	Mask   *store.Bitset
}

// AnalyzeRequest is a coordinator-level analysis: the kind plus its
// validated parameters, built by MineRequest / EpisodesRequest /
// ScenarioRequest / SpanRequest (Engine.Indicators and Engine.Profile
// build the utilization one).
type AnalyzeRequest struct {
	Kind   string
	params any
}

// MineParams parameterizes the AnalyzeMine map step. Thresholds
// (support, count floors) are not here on purpose: they apply once, at
// finalization on the coordinator (mining.Counts.Rules), so they can
// never change what the shards count.
type MineParams struct {
	// Sequential selects ordered A-then-B counting; false counts
	// unordered co-occurrence.
	Sequential bool
	// MaxGap bounds the position distance for sequential pairs; 0 means
	// unbounded.
	MaxGap int
	// System filters diagnosis codes to one code system ("" = all).
	System string
	// Chapter abstracts codes to chapter level before counting (T89 and
	// T90 both count as T).
	Chapter bool
}

func (p MineParams) validate() error {
	if p.MaxGap < 0 {
		return fmt.Errorf("engine: mine params: negative MaxGap %d", p.MaxGap)
	}
	return nil
}

// EpisodeParams parameterizes the AnalyzeEpisodes map step.
type EpisodeParams struct {
	// Gap is the quiet time separating episodes; must be positive.
	Gap model.Time
}

func (p EpisodeParams) validate() error {
	if p.Gap <= 0 {
		return fmt.Errorf("engine: episode params: gap must be positive, got %d", p.Gap)
	}
	return nil
}

// ScenarioParams parameterizes the AnalyzeScenario map step.
type ScenarioParams struct {
	// Gap is the episode-derivation gap; must be positive.
	Gap model.Time
	// Scenario is the temporal pattern to match per history.
	Scenario temporal.Scenario
}

func (p ScenarioParams) validate() error {
	if p.Gap <= 0 {
		return fmt.Errorf("engine: scenario params: gap must be positive, got %d", p.Gap)
	}
	return p.Scenario.Validate()
}

// SpanParams parameterizes the AnalyzeSpan map step: with nothing. gob
// cannot carry a struct without exported fields, so it is a byte whose one
// valid value is zero.
type SpanParams uint8

func (p SpanParams) validate() error {
	if p != 0 {
		return fmt.Errorf("engine: span params: the span takes no parameters, got %d", p)
	}
	return nil
}

// SpanTally is the AnalyzeSpan partial: how many histories were visited,
// how many of them hold an entry, and the earliest start and latest end
// over those — model.Collection.Span of the cohort, as a fixed-size tally.
type SpanTally struct {
	Histories, Spanned int
	Period             model.Period
}

// HistoryCount implements Partial.
func (t *SpanTally) HistoryCount() int { return t.Histories }

// addCells reads the cells exactly as model.History.Span reads entries.
func (t *SpanTally) addCells(cells []store.Cell) {
	one := SpanTally{Histories: 1}
	if len(cells) > 0 {
		start, end := cells[0].Start, cells[0].Start
		for i := range cells {
			end = max(end, cells[i].Start)
			if cells[i].Kind == model.Interval {
				end = max(end, cells[i].End)
			}
		}
		one.Spanned, one.Period = 1, model.Period{Start: model.Time(start), End: model.Time(end)}
	}
	t.merge(&one)
}

func (t *SpanTally) merge(src *SpanTally) {
	t.Histories += src.Histories
	switch {
	case src.Spanned == 0:
	case t.Spanned == 0:
		t.Period = src.Period
	default:
		t.Period.Start = min(t.Period.Start, src.Period.Start)
		t.Period.End = max(t.Period.End, src.Period.End)
	}
	t.Spanned += src.Spanned
}

// newRequest validates one kind's parameters into a request.
func newRequest[P any](kind string, p P, validate func(P) error) (AnalyzeRequest, error) {
	if err := validate(p); err != nil {
		return AnalyzeRequest{}, err
	}
	return AnalyzeRequest{Kind: kind, params: &p}, nil
}

// MineRequest validates mine parameters into a request.
func MineRequest(p MineParams) (AnalyzeRequest, error) {
	return newRequest(AnalyzeMine, p, MineParams.validate)
}

// EpisodesRequest validates episode parameters into a request.
func EpisodesRequest(p EpisodeParams) (AnalyzeRequest, error) {
	return newRequest(AnalyzeEpisodes, p, EpisodeParams.validate)
}

// ScenarioRequest validates scenario parameters into a request.
func ScenarioRequest(p ScenarioParams) (AnalyzeRequest, error) {
	return newRequest(AnalyzeScenario, p, ScenarioParams.validate)
}

// SpanRequest is the request for a cohort's span.
func SpanRequest() AnalyzeRequest {
	return AnalyzeRequest{Kind: AnalyzeSpan, params: new(SpanParams)}
}

// analyzer is one registered kind: the check a parameter value must pass
// wherever it lands, the per-history map step over a frame row, the exact
// reduce, and the check a partial must pass before it is merged.
// Everything a transport needs, so the local backend, the shard server and
// the coordinator can never disagree on semantics.
type analyzer struct {
	register     func(kind string) // names the kind's two types for the wire
	checkParams  func(params any) error
	newPartial   func(params any) Partial
	addRow       func(p Partial, params any, f *store.Frame, i int, sc *mapScratch)
	finish       func(p Partial, sc *mapScratch) // nil unless the scratch holds part of the tally (mine: set in init)
	merge        func(dst, src Partial) error
	checkPartial func(Partial) error
}

// newKind builds a registry entry from one kind's typed pieces: parameter
// validation, the empty partial, the per-history map step, the exact
// reduce, and the consistency check a received partial must pass before it
// is merged. The wire names and the type assertions between the untyped
// registry and the kind's own types are supplied here, once. The names are
// the kind's, not the Go types': a renamed type can never re-interpret a
// peer's payload.
func newKind[P, T any, PT interface {
	*T
	Partial
}](validate func(P) error, newPartial func(*P) PT, add func(PT, *P, *store.Frame, int, *mapScratch),
	merge func(dst, src PT) error, check func(PT) error) analyzer {
	return analyzer{
		register: func(kind string) {
			gob.RegisterName("pastas.analyze."+kind+".params", new(P))
			gob.RegisterName("pastas.analyze."+kind+".partial", PT(new(T)))
		},
		checkParams: func(params any) error {
			p, ok := params.(*P)
			if !ok || p == nil {
				return fmt.Errorf("engine: params are %T, want %T", params, p)
			}
			return validate(*p)
		},
		newPartial: func(params any) Partial { return newPartial(params.(*P)) },
		addRow: func(part Partial, params any, f *store.Frame, i int, sc *mapScratch) {
			add(part.(PT), params.(*P), f, i, sc)
		},
		merge: func(dst, src Partial) error { return merge(dst.(PT), src.(PT)) },
		checkPartial: func(part Partial) error {
			t, ok := part.(PT)
			if !ok || t == nil {
				return fmt.Errorf("engine: partial is %T, want %T", part, t)
			}
			return check(t)
		},
	}
}

func init() {
	// The mine map step tallies ids in the scratch; finish labels them.
	mine := analyzers[AnalyzeMine]
	mine.finish = func(p Partial, sc *mapScratch) { sc.mine.finish(p.(*mining.Counts)) }
	analyzers[AnalyzeMine] = mine
	for kind, spec := range analyzers {
		spec.register(kind)
	}
}

// window is the utilization kind's parameter type: the period, as a type
// of the kind's own (gob gives a type one wire name, and the names are per
// kind). Every window is meaningful: an empty one tallies no entry and
// finalizes to zero rates.
type window struct{ model.Period }

// analyzers is the kind registry. Every map step reads the immutable
// columns of frame row i, and only the ones it tests (the demographics
// only for utilization): a shard server runs them concurrently over one
// frame.
var analyzers = map[string]analyzer{
	AnalyzeMine: newKind(MineParams.validate,
		func(p *MineParams) *mining.Counts { return mining.NewCounts(p.Sequential, p.MaxGap) },
		func(c *mining.Counts, p *MineParams, f *store.Frame, i int, sc *mapScratch) {
			sc.mine.add(c, p, f.Cells(i), sc.codes)
		},
		(*mining.Counts).Merge, validateCounts),
	AnalyzeEpisodes: newKind(EpisodeParams.validate,
		func(*EpisodeParams) *abstraction.EpisodeTally { return abstraction.NewEpisodeTally() },
		func(t *abstraction.EpisodeTally, p *EpisodeParams, f *store.Frame, i int, sc *mapScratch) {
			t.AddEpisodes(sc.episodes.Episodes(f.Cells(i), sc.codes, p.Gap))
		},
		func(dst, src *abstraction.EpisodeTally) error { dst.Merge(src); return nil },
		validateEpisodeTally),
	AnalyzeScenario: newKind(ScenarioParams.validate,
		func(*ScenarioParams) *temporal.ScenarioTally { return new(temporal.ScenarioTally) },
		func(t *temporal.ScenarioTally, p *ScenarioParams, f *store.Frame, i int, sc *mapScratch) {
			t.Add(p.Scenario.MatchEpisodes(sc.episodes.Episodes(f.Cells(i), sc.codes, p.Gap)))
		},
		func(dst, src *temporal.ScenarioTally) error { dst.Merge(src); return nil },
		func(t *temporal.ScenarioTally) error {
			if t.Histories < 0 || t.Bound < 0 || t.Matched < 0 ||
				t.Bound > t.Histories || t.Matched > t.Bound {
				return fmt.Errorf("engine: scenario tally is inconsistent (%d/%d/%d)",
					t.Histories, t.Bound, t.Matched)
			}
			return nil
		}),
	AnalyzeUtilization: newKind(func(window) error { return nil },
		func(*window) *stats.Utilization { return new(stats.Utilization) },
		func(u *stats.Utilization, w *window, f *store.Frame, i int, _ *mapScratch) { u.Add(f.Row(i), w.Period) },
		func(dst, src *stats.Utilization) error { dst.Merge(src); return nil },
		validateUtilization),
	AnalyzeSpan: newKind(SpanParams.validate,
		func(*SpanParams) *SpanTally { return new(SpanTally) },
		func(t *SpanTally, _ *SpanParams, f *store.Frame, i int, _ *mapScratch) { t.addCells(f.Cells(i)) },
		func(dst, src *SpanTally) error { dst.merge(src); return nil },
		func(t *SpanTally) error {
			if t.Spanned < 0 || t.Spanned > t.Histories || t.Period.End < t.Period.Start ||
				t.Spanned == 0 && t.Period != (model.Period{}) {
				return fmt.Errorf("engine: span tally is inconsistent (%d of %d histories span %v)",
					t.Spanned, t.Histories, t.Period)
			}
			return nil
		}),
}

// mapScratch is the working memory one tally goroutine reuses from
// history to history, so a warm map step allocates nothing per history.
// It belongs to that goroutine alone — never to the engine, a backend or a
// package variable: tallies and shard server items map concurrently.
type mapScratch struct {
	codes    []store.FrameCode // the frame's dictionary
	mine     mineTally
	episodes abstraction.EpisodeScratch
}

// mineTally is the mine map step on dictionary ids: each code id maps once
// per call to a label id (its value or chapter, or none when System drops
// it), histories count distinct labels in a slice and pairs in a map of
// packed label-id pairs under mining.Counts.Add's deduplication and MaxGap
// rules, and finish writes labels into the *mining.Counts once per call.
type mineTally struct {
	label    []uint32 // code id → label id + 1; 0 = not mapped yet, noLabel = dropped
	ids      map[string]uint32
	labels   []mineLabel
	pairs    map[uint64]int // a<<32 | b → histories
	seq      []uint32       // one history's label ids, in cell order
	distinct []uint32       // one history's distinct label ids
	seen     []uint64       // len(distinct)² bits: ordered pairs already counted
	n        int            // histories counted
}

type mineLabel struct {
	s            string
	single, last int   // histories holding the label; the last of them (1-based)
	rank         int32 // its index in that history's distinct labels
}

const noLabel = ^uint32(0)

// labelOf is a code's label id + 1, or noLabel.
func (m *mineTally) labelOf(c *store.FrameCode, p *MineParams) uint32 {
	s := c.Value
	if p.Chapter {
		s = c.Chapter
	}
	if p.System != "" && c.System != p.System || p.Chapter && s == "" {
		return noLabel
	}
	l, ok := m.ids[s]
	if !ok {
		l = uint32(len(m.labels))
		m.ids[s] = l
		m.labels = append(m.labels, mineLabel{s: s})
	}
	return l + 1
}

// add tallies one history's chronological diagnosis codes, if it has one
// (mining.Counts.N counts sequences).
func (m *mineTally) add(c *mining.Counts, p *MineParams, cells []store.Cell, codes []store.FrameCode) {
	if m.label == nil {
		m.label, m.ids, m.pairs = make([]uint32, len(codes)), make(map[string]uint32), make(map[uint64]int)
	}
	m.seq = m.seq[:0]
	for i := range cells {
		if id := cells[i].Code; cells[i].Type == model.TypeDiagnosis && id != 0 {
			if m.label[id] == 0 {
				m.label[id] = m.labelOf(&codes[id], p)
			}
			if l := m.label[id]; l != noLabel {
				m.seq = append(m.seq, l-1)
			}
		}
	}
	if len(m.seq) == 0 {
		return
	}
	c.N++
	m.n++
	m.distinct = m.distinct[:0]
	for _, l := range m.seq {
		if lb := &m.labels[l]; lb.last != m.n {
			lb.last, lb.rank = m.n, int32(len(m.distinct))
			lb.single++
			m.distinct = append(m.distinct, l)
		}
	}
	if !p.Sequential {
		for i, a := range m.distinct {
			for _, b := range m.distinct[i+1:] {
				m.pairs[uint64(min(a, b))<<32|uint64(max(a, b))]++
			}
		}
		return
	}
	// Ordered pairs: a pair counts once per history however often it
	// recurs, marked in a bit matrix over the distinct labels' ranks.
	k := len(m.distinct)
	words := (k*k + 63) / 64
	m.seen = slices.Grow(m.seen[:0], words)[:words]
	clear(m.seen)
	for i, a := range m.seq {
		for j := i + 1; j < len(m.seq); j++ {
			if p.MaxGap > 0 && j-i > p.MaxGap {
				break
			}
			b := m.seq[j]
			if bit := int(m.labels[a].rank)*k + int(m.labels[b].rank); a != b && m.seen[bit/64]&(1<<(bit%64)) == 0 {
				m.seen[bit/64] |= 1 << (bit % 64)
				m.pairs[uint64(a)<<32|uint64(b)]++
			}
		}
	}
}

// finish writes the call's tallies into c, a fresh partial, under their
// labels. An unordered pair is ordered by its labels, as mining.Counts
// orders it, not by ids.
func (m *mineTally) finish(c *mining.Counts) {
	c.Single, c.Pair = make(map[string]int, len(m.labels)), make(map[[2]string]int, len(m.pairs))
	for _, lb := range m.labels {
		c.Single[lb.s] = lb.single
	}
	for key, n := range m.pairs {
		a, b := m.labels[key>>32].s, m.labels[uint32(key)].s
		if !c.Sequential && b < a {
			a, b = b, a
		}
		c.Pair[[2]string{a, b}] += n
	}
}

// validateCounts holds a hostile or corrupt mine partial to an error: the
// integer tallies must be internally consistent before they are merged.
func validateCounts(c *mining.Counts) error {
	if c.N < 0 || c.MaxGap < 0 {
		return fmt.Errorf("engine: mine tally is inconsistent (n=%d gap=%d)", c.N, c.MaxGap)
	}
	for code, n := range c.Single {
		if n < 1 || n > c.N {
			return fmt.Errorf("engine: mine tally: code %q counted %d times over %d histories", code, n, c.N)
		}
	}
	for p, n := range c.Pair {
		if n < 1 || n > c.N {
			return fmt.Errorf("engine: mine tally: pair %v counted %d times over %d histories", p, n, c.N)
		}
	}
	return nil
}

// validateUtilization holds a utilization partial to the checks its two
// readings, the indicators and the profile, must each pass.
func validateUtilization(u *stats.Utilization) error {
	c, p := u.Indicators(), u.Profile()
	if c.Patients < 0 || c.Females < 0 || c.Females > c.Patients ||
		c.EmergencyGP < 0 || c.EmergencyGP > c.GPContacts {
		return fmt.Errorf("engine: indicator tally is inconsistent (%d patients, %d female, %d/%d emergency contacts)",
			c.Patients, c.Females, c.EmergencyGP, c.GPContacts)
	}
	banded := 0
	for _, n := range p.AgeBands {
		banded += n
	}
	if p.Males < 0 || p.Females+p.Males > p.Patients || banded != p.Patients {
		return fmt.Errorf("engine: profile tally is inconsistent (%d patients, %d female, %d male, %d in age bands)",
			p.Patients, p.Females, p.Males, banded)
	}
	return nil
}

func validateEpisodeTally(t *abstraction.EpisodeTally) error {
	if t.Histories < 0 || t.WithEpisodes < 0 || t.Episodes < 0 || t.Entries < 0 || t.SpanTotal < 0 ||
		t.WithEpisodes > t.Histories || t.Episodes < t.WithEpisodes {
		return fmt.Errorf("engine: episode tally is inconsistent (%d/%d/%d)", t.Histories, t.WithEpisodes, t.Episodes)
	}
	for k, n := range t.ByDominant {
		if n < 1 || n > t.Episodes {
			return fmt.Errorf("engine: episode tally: dominant %q counted %d times over %d episodes", k, n, t.Episodes)
		}
	}
	return nil
}

// analyzerFor is the one check of a kind and its parameters, wherever they
// land: the coordinator's entry, a backend, a shard server's wire.
func analyzerFor(kind string, params any) (analyzer, error) {
	spec, ok := analyzers[kind]
	if !ok {
		return analyzer{}, fmt.Errorf("engine: unknown analyzer kind %q", kind)
	}
	if err := spec.checkParams(params); err != nil {
		return analyzer{}, fmt.Errorf("engine: analyzer %q: %w", kind, err)
	}
	return spec, nil
}

// tallyFrame is a LocalBackend's map step over its frame, on the calling
// goroutine.
func tallyFrame(f store.Frame, args AnalyzeArgs) (Partial, error) {
	spec, err := analyzerFor(args.Kind, args.Params)
	if err != nil {
		return nil, err
	}
	return spec.tally(context.Background(), f, args.Params, args.Mask, 1)
}

// tally is the one map loop every transport runs — a local engine, a
// shard server item by item, a LocalBackend — so the mask contract and the
// per-history map step can never diverge. The rows mask holds (nil = all)
// map in blocks of spreadRows spread over at most workers goroutines, each
// into a partial and scratch of its own, and the partials merge exactly; a
// single block maps on the calling goroutine. A done ctx stops it between
// blocks, with ctx's error. params passed checkParams.
func (spec analyzer) tally(ctx context.Context, f store.Frame, params any, mask *store.Bitset, workers int) (Partial, error) {
	if mask != nil && mask.Len() != f.Len() {
		return nil, fmt.Errorf("engine: analyze mask covers %d patients, shard has %d", mask.Len(), f.Len())
	}
	blocks := (f.Len() + spreadRows - 1) / spreadRows
	if blocks <= 1 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		part, sc := spec.newPartial(params), mapScratch{codes: f.Codes}
		spec.mapRows(part, params, &f, mask, 0, f.Len(), &sc)
		spec.finishInto(part, &sc)
		return part, nil
	}
	parts, scs := make([]Partial, workers), make([]mapScratch, workers)
	if err := spread(ctx, workers, blocks, func(w int) func(int) {
		parts[w], scs[w] = spec.newPartial(params), mapScratch{codes: f.Codes}
		return func(k int) {
			spec.mapRows(parts[w], params, &f, mask, k*spreadRows, min((k+1)*spreadRows, f.Len()), &scs[w])
		}
	}); err != nil {
		return nil, err
	}
	out := spec.newPartial(params)
	for w, part := range parts {
		if part == nil {
			continue // the goroutine found every block taken
		}
		spec.finishInto(part, &scs[w])
		if err := spec.merge(out, part); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// mapRows maps the rows in [lo, hi) that mask holds (nil = all) into part.
func (spec analyzer) mapRows(part Partial, params any, f *store.Frame, mask *store.Bitset, lo, hi int, sc *mapScratch) {
	if mask == nil {
		for i := lo; i < hi; i++ {
			spec.addRow(part, params, f, i, sc)
		}
		return
	}
	mask.EachWord(lo, hi, func(base int, w uint64) {
		for ; w != 0; w &= w - 1 {
			spec.addRow(part, params, f, base+bits.TrailingZeros64(w), sc)
		}
	})
}

// finishInto writes what the scratch holds of part into it.
func (spec analyzer) finishInto(part Partial, sc *mapScratch) {
	if spec.finish != nil {
		spec.finish(part, sc)
	}
}

// Analyze runs a registered map step over the cohort a global-ordinal
// bitset selects and reduces the per-shard partials exactly. Under
// PolicyDegraded the reduce may omit unreachable shards; use
// AnalyzeStatus to learn which.
func (e *Engine) Analyze(b *store.Bitset, req AnalyzeRequest) (Partial, error) {
	part, _, err := e.AnalyzeStatus(context.Background(), b, req)
	return part, err
}

// AnalyzeStatus is Analyze under a caller-supplied context, plus the
// completeness report. A local engine tallies its pinned frame under the
// mask (tally, on at most Workers goroutines). A coordinator never
// contacts a shard without a cohort member, each contacted shard maps
// over only its slice of the mask, a shard server merges its shards'
// partials before it answers — one round trip and one partial per server
// (fanCohort) — and the partials merge in fixed order: integer tallies,
// so grouping cannot change the result and the reduce is exact. An engine
// that caches results answers a repeated analysis out of its analysis
// memo.
func (e *Engine) AnalyzeStatus(ctx context.Context, b *store.Bitset, req AnalyzeRequest) (Partial, QueryStatus, error) {
	spec, err := analyzerFor(req.Kind, req.params)
	if err != nil {
		return nil, QueryStatus{}, err
	}
	t, err := e.pinCohort(b)
	if err != nil {
		return nil, QueryStatus{}, err
	}
	var key analysisKey
	if e.analyses != nil {
		key = analysisKey{kind: req.Kind, params: fmt.Sprintf("%#v", req.params), digest: b.Digest()}
		if hit, ok := e.analyses.get(t.gen, key); ok && hit.bits.Equal(b) {
			if out, err := spec.clone(req.params, hit.part); err == nil {
				return out, QueryStatus{}, nil
			}
		}
	}
	out, status, err := e.analyze(ctx, t, spec, req, b)
	if err != nil {
		return nil, QueryStatus{}, fmt.Errorf("engine: analyze %q: %w", req.Kind, err)
	}
	if e.analyses != nil && status.Complete() {
		if kept, err := spec.clone(req.params, out); err == nil {
			e.analyses.put(t.gen, key, analysisEntry{bits: b.Clone(), part: kept})
		}
	}
	return out, status, nil
}

// analyze runs req over t's cohort b, uncached.
func (e *Engine) analyze(ctx context.Context, t *topo, spec analyzer, req AnalyzeRequest, b *store.Bitset) (Partial, QueryStatus, error) {
	if t.view != nil {
		ctx, cancel := e.opCtx(ctx)
		defer cancel()
		t0 := time.Now()
		out, err := spec.tally(ctx, t.view.Frame(), req.params, b, e.workers)
		t.local(t0, err)
		return out, QueryStatus{}, err
	}
	parts, status, err := fanCohort(ctx, e, t, e.policy, b,
		func(ctx context.Context, c *remoteConn, metas []ShardMeta, masks []*store.Bitset) ([]Partial, error) {
			parts := make([]Partial, len(metas)) // the server's one partial stands first
			var err error
			parts[0], err = c.analyze(ctx, req.Kind, req.params, metas, masks)
			return parts, err
		},
		func(ctx context.Context, bk ShardBackend, mask *store.Bitset) (Partial, error) {
			return bk.Analyze(ctx, AnalyzeArgs{Kind: req.Kind, Params: req.params, Mask: mask})
		})
	if err != nil {
		return nil, QueryStatus{}, err
	}
	out := spec.newPartial(req.params)
	for i, part := range parts {
		if part == nil {
			continue // no cohort member on the shard, covered by its server's partial, or degraded away
		}
		if err := spec.merge(out, part); err != nil {
			return nil, QueryStatus{}, t.shardErr(i, err)
		}
	}
	return out, status, nil
}

// The analysis memo holds complete Analyze answers, epoched by the store
// generation like every epochLRU, under the kind, the parameters' %#v
// rendering (quoted strings, typed values: two parameter values never
// render alike) and the cohort's digest. An entry keeps a clone of the
// bits and a hit must be Equal to the asking cohort, so a digest collision
// misses. Hits and stores copy the partial, so no caller holds
// the memo's own; a degraded answer, which describes the shards that
// answered and not the cohort, is never stored.
type analysisKey struct {
	kind, params string
	digest       uint64
}

type analysisEntry struct {
	bits *store.Bitset
	part Partial
}

// clone copies a partial of the kind into a fresh one.
func (spec analyzer) clone(params any, p Partial) (Partial, error) {
	out := spec.newPartial(params)
	return out, spec.merge(out, p)
}

// utilization runs the AnalyzeUtilization kind: the one walk
// Engine.Indicators and Engine.Profile both read, so through the memo the
// two over one cohort and window cost one.
func (e *Engine) utilization(ctx context.Context, b *store.Bitset, w model.Period) (*stats.Utilization, QueryStatus, error) {
	part, status, err := e.AnalyzeStatus(ctx, b, AnalyzeRequest{Kind: AnalyzeUtilization, params: &window{w}})
	if err != nil {
		return nil, QueryStatus{}, err
	}
	return part.(*stats.Utilization), status, nil
}
