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
	// AnalyzeIndicators tallies the utilization indicators over a window
	// (params: the model.Period; partial: *stats.IndicatorCounts).
	AnalyzeIndicators = "indicators"
	// AnalyzeProfile tallies the cohort-characteristics dimensions over a
	// window (params: the model.Period; partial: *stats.CohortProfile).
	AnalyzeProfile = "profile"
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
// build their own).
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

// addRow reads the cells exactly as model.History.Span reads entries.
func (t *SpanTally) addRow(r store.Row) {
	one := SpanTally{Histories: 1}
	if len(r.Cells) > 0 {
		start, end := r.Cells[0].Start, r.Cells[0].Start
		for i := range r.Cells {
			end = max(end, r.Cells[i].Start)
			if r.Cells[i].Kind == model.Interval {
				end = max(end, r.Cells[i].End)
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
	addRow       func(p Partial, params any, r store.Row, sc *mapScratch)
	finish       func(p Partial, sc *mapScratch) // nil unless the tally lives in the scratch
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
}](validate func(P) error, newPartial func(*P) PT, add func(PT, *P, store.Row, *mapScratch),
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
		addRow: func(part Partial, params any, r store.Row, sc *mapScratch) {
			add(part.(PT), params.(*P), r, sc)
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
	for kind, spec := range analyzers {
		spec.register(kind)
	}
}

// window is a window kind's parameter type: the period, as a type of the
// kind's own (gob gives a type one wire name, and the names are per kind).
type window[T any] struct{ model.Period }

// utilization is the window-parameterized kinds' entry: both run the one
// stats.Utilization kernel into the call's scratch, and read their own
// partial off it when the call ends. Every window is meaningful (an empty
// one tallies no entry and finalizes to zero rates).
func utilization[T any, PT interface {
	*T
	Partial
}](read func(*stats.Utilization) T, merge func(PT, T), check func(PT) error) analyzer {
	k := newKind(func(window[T]) error { return nil },
		func(*window[T]) PT { return new(T) },
		func(_ PT, w *window[T], r store.Row, sc *mapScratch) { sc.util.Add(r, w.Period) },
		func(dst, src PT) error { merge(dst, *src); return nil }, check)
	k.finish = func(p Partial, sc *mapScratch) { *p.(PT) = read(&sc.util) }
	return k
}

// analyzers is the kind registry. Every map step reads the immutable
// cells of a frame row: a shard server runs them concurrently over one
// frame.
var analyzers = map[string]analyzer{
	AnalyzeMine: newKind(MineParams.validate,
		func(p *MineParams) *mining.Counts { return mining.NewCounts(p.Sequential, p.MaxGap) },
		func(c *mining.Counts, p *MineParams, r store.Row, sc *mapScratch) {
			if seq := mineSequence(r, p, sc); len(seq) > 0 {
				c.Add(seq, &sc.mine)
			}
		},
		(*mining.Counts).Merge, validateCounts),
	AnalyzeEpisodes: newKind(EpisodeParams.validate,
		func(*EpisodeParams) *abstraction.EpisodeTally { return abstraction.NewEpisodeTally() },
		func(t *abstraction.EpisodeTally, p *EpisodeParams, r store.Row, sc *mapScratch) {
			t.AddEpisodes(sc.episodes.Episodes(r.Cells, sc.codes, p.Gap))
		},
		func(dst, src *abstraction.EpisodeTally) error { dst.Merge(src); return nil },
		validateEpisodeTally),
	AnalyzeScenario: newKind(ScenarioParams.validate,
		func(*ScenarioParams) *temporal.ScenarioTally { return new(temporal.ScenarioTally) },
		func(t *temporal.ScenarioTally, p *ScenarioParams, r store.Row, sc *mapScratch) {
			t.Add(p.Scenario.MatchEpisodes(sc.episodes.Episodes(r.Cells, sc.codes, p.Gap)))
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
	AnalyzeIndicators: utilization((*stats.Utilization).Indicators, (*stats.IndicatorCounts).Merge,
		func(c *stats.IndicatorCounts) error {
			if c.Patients < 0 || c.Females < 0 || c.Females > c.Patients ||
				c.EmergencyGP < 0 || c.EmergencyGP > c.GPContacts {
				return fmt.Errorf("engine: indicator tally is inconsistent (%d patients, %d female, %d/%d emergency contacts)",
					c.Patients, c.Females, c.EmergencyGP, c.GPContacts)
			}
			return nil
		}),
	AnalyzeProfile: utilization((*stats.Utilization).Profile, (*stats.CohortProfile).Merge,
		func(p *stats.CohortProfile) error {
			banded := 0
			for _, n := range p.AgeBands {
				banded += n
			}
			if p.Patients < 0 || p.Females < 0 || p.Males < 0 || p.Females+p.Males > p.Patients || banded != p.Patients {
				return fmt.Errorf("engine: profile tally is inconsistent (%d patients, %d female, %d male, %d in age bands)",
					p.Patients, p.Females, p.Males, banded)
			}
			return nil
		}),
	AnalyzeSpan: newKind(SpanParams.validate,
		func(*SpanParams) *SpanTally { return new(SpanTally) },
		func(t *SpanTally, _ *SpanParams, r store.Row, _ *mapScratch) { t.addRow(r) },
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

// mapScratch is the working memory one tallyFrame call reuses from
// history to history, so a warm map step allocates nothing per history.
// It belongs to that call alone — never to the engine, a backend or a
// package variable: a shard server runs map steps concurrently.
type mapScratch struct {
	codes    []store.FrameCode // the frame's dictionary
	seq      []string
	mine     mining.Scratch
	episodes abstraction.EpisodeScratch
	util     stats.Utilization
}

// mineSequence extracts one history's code sequence for the mine map
// step: chronological diagnosis codes, optionally filtered to one system
// and abstracted to chapter level. The result lives in the scratch.
func mineSequence(r store.Row, p *MineParams, sc *mapScratch) []string {
	sc.seq = sc.seq[:0]
	for i := range r.Cells {
		if r.Cells[i].Type != model.TypeDiagnosis || r.Cells[i].Code == 0 {
			continue
		}
		c := &sc.codes[r.Cells[i].Code]
		switch {
		case p.System != "" && c.System != p.System:
		case !p.Chapter:
			sc.seq = append(sc.seq, c.Value)
		case c.Chapter != "":
			sc.seq = append(sc.seq, c.Chapter)
		}
	}
	return sc.seq
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

// tallyFrame is a backend's map step over its frame.
func tallyFrame(f store.Frame, args AnalyzeArgs) (Partial, error) {
	spec, err := analyzerFor(args.Kind, args.Params)
	if err != nil {
		return nil, err
	}
	return spec.tally(f, args.Params, args.Mask)
}

// tally is the one map loop both transports run — a shard server item by
// item, kind and parameters checked once — so the mask contract and the
// per-history map step can never diverge. params passed checkParams.
func (spec analyzer) tally(f store.Frame, params any, mask *store.Bitset) (Partial, error) {
	if mask != nil && mask.Len() != f.Len() {
		return nil, fmt.Errorf("engine: analyze mask covers %d patients, shard has %d", mask.Len(), f.Len())
	}
	part := spec.newPartial(params)
	sc := mapScratch{codes: f.Codes}
	if mask != nil {
		mask.Range(func(i int) bool {
			spec.addRow(part, params, f.Row(i), &sc)
			return true
		})
	} else {
		for i := 0; i < f.Len(); i++ {
			spec.addRow(part, params, f.Row(i), &sc)
		}
	}
	if spec.finish != nil {
		spec.finish(part, &sc)
	}
	return part, nil
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
// completeness report. Shards without a cohort member are never
// contacted, each contacted shard maps over only its slice of the mask, a
// shard server merges its shards' partials before it answers — one round
// trip and one partial per server (fanCohort) — and the partials merge in
// fixed order: integer tallies, so grouping cannot change the result and
// the reduce is exact.
func (e *Engine) AnalyzeStatus(ctx context.Context, b *store.Bitset, req AnalyzeRequest) (Partial, QueryStatus, error) {
	spec, err := analyzerFor(req.Kind, req.params)
	if err != nil {
		return nil, QueryStatus{}, err
	}
	t, err := e.pinCohort(b)
	if err != nil {
		return nil, QueryStatus{}, err
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
		return nil, QueryStatus{}, fmt.Errorf("engine: analyze %q: %w", req.Kind, err)
	}
	out := spec.newPartial(req.params)
	for i, part := range parts {
		if part == nil {
			continue // no cohort member on the shard, covered by its server's partial, or degraded away
		}
		if err := spec.merge(out, part); err != nil {
			return nil, QueryStatus{}, fmt.Errorf("engine: analyze %q: %w", req.Kind, t.shardErr(i, err))
		}
	}
	return out, status, nil
}

// analyzeWindow runs one of the window-parameterized kinds — the shape
// Engine.Indicators and Engine.Profile wrap with their partial's type.
func analyzeWindow[T any](ctx context.Context, e *Engine, b *store.Bitset, kind string, w model.Period) (*T, QueryStatus, error) {
	part, status, err := e.AnalyzeStatus(ctx, b, AnalyzeRequest{Kind: kind, params: &window[T]{w}})
	if err != nil {
		return nil, QueryStatus{}, err
	}
	return any(part).(*T), status, nil
}
