package main

// Seed-driven inputs. The fixture is the dataset and never changes; the
// seed decides which Query-Builder specs exist in the pool, how popular
// each is, which of them a session draws, which patients it opens and
// which append rounds the ingest workload feeds. Equal seeds give
// byte-identical inputs; nothing here reads a clock or a global RNG.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"pastas/internal/query"
	"pastas/internal/sources"
	"pastas/internal/synth"
)

// rng is splitmix64: small, seedable, and stable across Go releases
// (math/rand's generators are not part of the benchmark's contract).
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	// Mix the stream name in so independent draws (pool, popularity,
	// sessions, appends) do not share a sequence.
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

func pick[T any](r *rng, xs []T) T { return xs[r.intn(len(xs))] }

// vocabCode is one code of the fixture's vocabulary with the number of
// patients carrying it.
type vocabCode struct {
	System, Value string
	Card          int
}

// vocab is what the spec templates draw from. It is read off the fixture
// (Store.DistinctCodes + Stats), sorted so generation does not depend on
// map order.
type vocab struct {
	codes []vocabCode
}

// Spec classes, by what evaluating a cache miss costs. A median or a tail
// percentile of a mixture is only steady when it falls well inside one
// class whose members cost about the same, so the classes are built to be
// homogeneous where a gated percentile lands: query_p50_ms falls inside
// the misses of classCodes (the analyst's everyday count: any of a few
// exact codes, answered from postings), query_p95_ms inside the misses of
// classAgeScan (an age band, which no index answers: every history is
// visited, whatever the band). classVaried holds the other Query-Builder
// shapes — chapter regexes, type and negated criteria, index-bounded
// scans, and, rarely enough to stay above p95, "at least k contacts" and
// two-step sequences. Population-wide entry scans are scan-1m's business,
// not the session workloads'.
const (
	classCodes   = "codes"
	classVaried  = "varied"
	classAgeScan = "agescan"
)

// classByRank deals popularity ranks to classes in a fixed repeating
// pattern — six in ten everyday counts, two varied, two age scans — so
// each class's share of a session's draws (and of its cache hits) does not
// depend on the seed; the seed decides which spec of the class gets the
// rank.
var classByRank = [10]string{
	classCodes, classCodes, classVaried, classCodes, classAgeScan,
	classCodes, classCodes, classVaried, classCodes, classAgeScan,
}

const (
	poolSize = 512
	// zipfExponent shapes how often analysts re-issue a count. Calibrated
	// so engine.result_cache_hit_ratio on session-local sits in 0.25–0.40
	// with the shipped 128-entry cache: below one half on purpose, so
	// query_p50_ms stays in the cache-miss mode and hits move the session
	// time instead of flipping the median between modes.
	zipfExponent = 0.45
)

// poolSpec is one Query-Builder document of the pool.
type poolSpec struct {
	Class string
	JSON  []byte // the POST body
	Spec  *query.Spec
}

// specPool is the 512 specs in popularity order (index 0 is the most
// re-issued) plus the Zipf table sessions draw from.
type specPool struct {
	specs []poolSpec
	cdf   []float64
}

// typeOfSystem is the entry type the Query Builder pairs with a code
// system, which is also what makes the leaf index-answerable.
func typeOfSystem(system string) string {
	if system == "ATC" {
		return "medication"
	}
	return "diagnosis"
}

func hasCode(c vocabCode) *query.Spec {
	return &query.Spec{Op: "has", System: c.System, Pattern: c.Value, Type: typeOfSystem(c.System)}
}

// hasChapter widens a code to its chapter (ICPC-2, ICD-10) or anatomical
// group (ATC): the leading letter and anything after it.
func hasChapter(c vocabCode) *query.Spec {
	return &query.Spec{Op: "has", System: c.System, Pattern: c.Value[:1] + ".*", Type: typeOfSystem(c.System)}
}

func tree(op string, kids ...*query.Spec) *query.Spec {
	return &query.Spec{Op: op, Children: kids}
}

func not(s *query.Spec) *query.Spec { return tree("not", s) }

var entryTypes = []string{"contact", "diagnosis", "measurement", "medication", "stay", "service"}

// ageSpec draws an age band; the bounds are free, so two specs rarely
// share a band (a shared band would be a shared result-cache entry).
func ageSpec(r *rng) *query.Spec {
	lo := r.intn(80)
	return &query.Spec{Op: "age", LoAge: lo, HiAge: lo + 5 + r.intn(30), AtISO: "2011-01-01"}
}

func sexSpec(r *rng) *query.Spec {
	return &query.Spec{Op: "sex", Sex: pick(r, []string{"F", "M"})}
}

// codeLeaf is one exact-code criterion in one of the three spellings the
// Query Builder offers — typed and system-scoped, system-scoped, or any
// system — all answered from postings at the same cost, each its own
// result-cache entry.
func codeLeaf(r *rng, v vocab) *query.Spec {
	c := pick(r, v.codes)
	switch r.intn(3) {
	case 0:
		return hasCode(c)
	case 1:
		return &query.Spec{Op: "has", System: c.System, Pattern: c.Value}
	default:
		return &query.Spec{Op: "has", Pattern: c.Value}
	}
}

// codesSpec is the everyday count: any of two or three exact codes, every
// leaf answered from postings. (A disjunction, so the reply carries a full
// sample of IDs whatever the codes: the reply size is part of the cost.)
func codesSpec(r *rng, v vocab) *query.Spec {
	kids := []*query.Spec{codeLeaf(r, v), codeLeaf(r, v)}
	if r.intn(2) == 0 {
		kids = append(kids, codeLeaf(r, v))
	}
	return tree("or", kids...)
}

// variedSpec draws one of the remaining Query-Builder shapes. The two
// shapes whose scans can run to tens of milliseconds (k contacts of a
// code's carriers, a two-step sequence) are one draw in twelve, under 2 %
// of a session's counts: rare enough that query_p95_ms stays below them.
func variedSpec(r *rng, v vocab) *query.Spec {
	c, d := pick(r, v.codes), pick(r, v.codes)
	switch r.intn(24) {
	case 0:
		return tree("and", hasCode(c), &query.Spec{Op: "has", Source: "gp", Type: "contact", MinCount: 2 + r.intn(6)})
	case 1:
		return &query.Spec{Op: "sequence", Steps: []*query.Spec{
			{System: c.System, Pattern: c.Value},
			{System: d.System, Pattern: d.Value, MaxGapDays: 90 * (1 + r.intn(4))},
		}}
	}
	switch r.intn(5) {
	case 0:
		return hasChapter(c)
	case 1:
		return &query.Spec{Op: "has", Pattern: c.Value + "|" + d.Value} // any system, alternation
	case 2:
		return tree("and", &query.Spec{Op: "has", Type: pick(r, entryTypes)}, hasCode(c))
	case 3:
		return tree("and", hasChapter(c), not(hasCode(d)))
	default:
		return tree("and", hasCode(c), sexSpec(r), not(hasChapter(d))) // the code bounds the scan
	}
}

// newSpecPool generates the pool for a seed: poolSize distinct documents
// (distinct result-cache keys), classes dealt by rank.
func newSpecPool(v vocab, seed uint64) (*specPool, error) {
	r := newRNG(seed, "pool")
	p := &specPool{specs: make([]poolSpec, 0, poolSize)}
	seen := make(map[string]bool, poolSize)
	for len(p.specs) < poolSize {
		class := classByRank[len(p.specs)%len(classByRank)]
		var spec *query.Spec
		switch class {
		case classCodes:
			spec = codesSpec(r, v)
		case classVaried:
			spec = variedSpec(r, v)
		default:
			spec = ageSpec(r)
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, fmt.Errorf("pool: marshal spec: %w", err)
		}
		if seen[string(body)] {
			continue
		}
		seen[string(body)] = true
		p.specs = append(p.specs, poolSpec{Class: class, JSON: body, Spec: spec})
	}
	p.cdf = zipfCDF(poolSize, zipfExponent)
	return p, nil
}

// zipfCDF is the cumulative distribution of rank k ∝ 1/k^s over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// draw returns the pool index of one Zipf-distributed pick (the table ends
// at exactly 1 and the variate is below 1, so the index is in range).
func (p *specPool) draw(r *rng) int {
	return sort.SearchFloat64s(p.cdf, r.float())
}

// sessionPlan is everything one session sends, fixed before it starts.
type sessionPlan struct {
	Queries [3]int // pool indexes
	// Chain is the saved base and the three refinements of it: base,
	// base∧d1, (base∧d1)∨d2, ((base∧d1)∨d2)∧¬d3 — narrow, widen, exclude.
	Chain [4][]byte
	// Specs are the chain's documents before marshalling, and Narrow the
	// first refinement's delta alone (the traced pass pushes it to the
	// backends under the base cohort's mask).
	Specs  [4]*query.Spec
	Narrow *query.Spec
	// TimelinePick selects two patients from the query samples.
	TimelinePick [2]uint64
	ViewPattern  string
}

// sessionInputs draws sessions for one seed. Bases and widening codes are
// carried by a few thousand patients each, so the characterise and
// analytics steps work on cohorts of comparable size in every session;
// the cohort view draws a rare code, because it ships every matching
// history.
type sessionInputs struct {
	pool  *specPool
	codes vocab
	bases []vocabCode
	views []vocabCode
	seed  uint64
}

// newSessionInputs picks the base and view codes by the share of the
// population carrying them (0.6–1.7 % and 0.2–0.36 %: 1000–2800 and
// 350–600 of the paper's 168,000), so the choice scales with the fixture.
func newSessionInputs(v vocab, patients int, pool *specPool, seed uint64) (*sessionInputs, error) {
	in := &sessionInputs{pool: pool, codes: v, seed: seed}
	for _, c := range v.codes {
		share := float64(c.Card) / float64(patients)
		if share >= 0.0059 && share <= 0.0167 {
			in.bases = append(in.bases, c)
		}
		if share >= 0.002 && share <= 0.0036 {
			in.views = append(in.views, c)
		}
	}
	if len(in.bases) == 0 || len(in.views) == 0 {
		return nil, fmt.Errorf("inputs: the fixture's vocabulary has %d base and %d view codes; need at least one of each", len(in.bases), len(in.views))
	}
	return in, nil
}

// plan returns session i's inputs. Each session has its own stream, so
// session i is the same whether or not sessions before it ran.
func (in *sessionInputs) plan(i int) (sessionPlan, error) {
	r := newRNG(in.seed, fmt.Sprintf("session-%d", i))
	var sp sessionPlan
	for k := range sp.Queries {
		sp.Queries[k] = in.pool.draw(r)
	}
	// Narrow by a demographic (three times in five; the seed mask bounds
	// the scan) or a code, widen by another cohort-sized code, exclude a
	// code: every step is O(delta), which is what refinement is for. The
	// masked demographic scans are a fifth of all refinements, so
	// refine_p50_ms falls inside the index-answered steps and
	// refine_p90_ms inside the masked scans.
	base := hasCode(pick(r, in.bases))
	var d1 *query.Spec
	switch r.intn(5) {
	case 0, 1:
		d1 = ageSpec(r)
	case 2:
		d1 = sexSpec(r)
	default:
		d1 = hasCode(pick(r, in.codes.codes))
	}
	narrow := tree("and", base, d1)
	widen := tree("or", narrow, hasCode(pick(r, in.bases)))
	exclude := tree("and", widen, not(hasCode(pick(r, in.codes.codes))))
	sp.Specs, sp.Narrow = [4]*query.Spec{base, narrow, widen, exclude}, d1
	for k, s := range sp.Specs {
		body, err := json.Marshal(s)
		if err != nil {
			return sp, fmt.Errorf("session %d: marshal chain: %w", i, err)
		}
		sp.Chain[k] = body
	}
	sp.TimelinePick = [2]uint64{r.next(), r.next()}
	// The view's pattern is one rare code or an alternation of two: few
	// enough histories to ship, enough distinct patterns that the view is
	// not a guaranteed cache hit.
	sp.ViewPattern = pick(r, in.views).Value
	if other := pick(r, in.views).Value; other != sp.ViewPattern {
		sp.ViewPattern += "|" + other
	}
	return sp, nil
}

// appendBundle is one pre-marshalled follow-on feed: newPerRound brand-new
// persons plus fresh events for about a hundred of the first followBase
// base patients (synth.GenerateAppend samples a tenth of them, and seeds
// a generator per candidate: a wider base would spend more of the run
// generating input than measuring).
const (
	newPerRound = 400
	followBase  = 1000
)

type appendBundle struct {
	JSON []byte
	// Patients is how many histories the bundle touches (new + updated).
	Patients int
	// Updated are the existing patients that received events, for the
	// round's timeline fetches.
	Updated []uint64
	Bundle  *sources.Bundle
}

// newAppendBundle generates round r of the seed's feed. New person IDs
// start above the fixture and advance with the round, so rounds never
// collide; the round number handed to synth mixes the seed in, so two
// seeds feed different events.
func newAppendBundle(basePatients int, seed uint64, round int) (*appendBundle, error) {
	cfg := synth.DefaultConfig(followBase)
	first := uint64(basePatients) + uint64(round)*newPerRound + 1
	b := synth.GenerateAppend(cfg, first, first+newPerRound-1, int(seed%100000)*1000+round+1)
	body, err := json.Marshal(b)
	if err != nil {
		return nil, fmt.Errorf("append round %d: marshal: %w", round, err)
	}
	seen := make(map[uint64]bool)
	ab := &appendBundle{JSON: body, Bundle: b}
	note := func(id uint64) {
		if id <= uint64(basePatients) && !seen[id] {
			seen[id] = true
			ab.Updated = append(ab.Updated, id)
		}
	}
	for _, c := range b.GPClaims {
		note(c.Person)
	}
	for _, p := range b.Prescriptions {
		note(p.Person)
	}
	for _, s := range b.Specialist {
		note(s.Person)
	}
	sort.Slice(ab.Updated, func(i, j int) bool { return ab.Updated[i] < ab.Updated[j] })
	ab.Patients = len(b.Persons) + len(ab.Updated)
	return ab, nil
}

// scanOp is one scan-1m operation: a correlated ValueBetween conjunction
// for the query class, and a wide parent with a narrow delta for the
// refine class. Thin patient i carries the measurements i%100 and
// 1000+(37i)%100, so a band selects an exact share of the population and
// overlapping bands are perfectly correlated — the shape the cost
// model's uniform prior cannot see.
type scanOp struct {
	Query query.Expr
	Want  int // exact count of Query, from the residue arithmetic
	// Parent is one of the wide cohorts set-up materialized (untimed);
	// Parent ∧ Delta is the timed refine.
	Parent, Delta query.Expr
	RefineWant    int
}

type valueBand struct{ Lo, Hi int }

func (b valueBand) expr() query.Expr {
	return query.Has{Pred: query.ValueBetween{Lo: float64(b.Lo), Hi: float64(b.Hi)}}
}

// thinCount is the exact number of thin-fixture patients matching every
// band: both measurements are functions of i%100, so counting residues
// and scaling is exact when the population is a multiple of 100.
func thinCount(patients int, bands ...valueBand) int {
	n := 0
	for r := 0; r < 100; r++ {
		v1, v2 := r, 1000+(37*r)%100
		all := true
		for _, b := range bands {
			if !(b.Lo <= v1 && v1 <= b.Hi) && !(b.Lo <= v2 && v2 <= b.Hi) {
				all = false
				break
			}
		}
		if all {
			n++
		}
	}
	return n * (patients / 100)
}

// name is the cohort name a parent band is saved under.
func (b valueBand) name() string { return fmt.Sprintf("parent-%d-%d", b.Lo, b.Hi) }

// scanParents are the seed's wide parent cohorts: eight bands covering
// 70–94 % of the population each.
func scanParents(seed uint64) []valueBand {
	r := newRNG(seed, "scan-parents")
	out := make([]valueBand, 8)
	for i := range out {
		out[i] = valueBand{0, 70 + 3*i + r.intn(3)} // distinct by construction
	}
	return out
}

func conj(bands ...valueBand) query.Expr {
	out := make(query.And, len(bands))
	for i, b := range bands {
		out[i] = b.expr()
	}
	return out
}

// newScanOp draws operation i. Two in three queries are two-way (a wide
// band containing a narrow one), the rest three-way (two overlapping
// bands of the first measurement plus a band of the second) — the E12
// shapes with seed-drawn selectivities.
func newScanOp(seed uint64, i, patients int) scanOp {
	r := newRNG(seed, fmt.Sprintf("scan-%d", i))
	var q []valueBand
	if i%3 != 2 {
		lo := 40 + r.intn(40)
		q = []valueBand{{0, 85 + r.intn(10)}, {lo, lo + 2 + r.intn(6)}}
	} else {
		aHi := 45 + r.intn(10)
		q = []valueBand{{0, aHi}, {aHi - 3 - r.intn(4), 94}, {1000, 1030 + r.intn(20)}}
	}
	parent := pick(r, scanParents(seed))
	dLo := 10 + r.intn(50)
	delta := valueBand{dLo, dLo + 1 + r.intn(5)}
	return scanOp{
		Query:      conj(q...),
		Want:       thinCount(patients, q...),
		Parent:     parent.expr(),
		Delta:      delta.expr(),
		RefineWant: thinCount(patients, parent, delta),
	}
}
