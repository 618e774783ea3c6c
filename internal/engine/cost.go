package engine

import (
	"math"
	"math/bits"
	"sort"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// Cost model. The planner estimates, for every plan node, how many
// patients it will match (Rows) and what evaluating it costs (Cost), from
// the exact cardinalities the store collects at New time. Index leaves are
// estimated from their posting-list counts; Not/And/Or compose children
// under the usual independence assumption; Scan nodes cost a calibrated
// per-history constant times the candidates they will actually visit.
// OptimizeWithStats uses the estimates to reorder And children
// most-selective-cheapest-first and Or children largest-first, replacing
// PR 1's static index-before-scan hoist.

// Estimate is the planner's guess at a plan node's output size and
// evaluation cost.
type Estimate struct {
	// Rows is the expected number of matching patients.
	Rows float64
	// Cost is in abstract units: one unit ≈ one 64-patient bitset word
	// operation. Scans dominate — evaluating one history costs two to
	// three orders of magnitude more than one word op.
	Cost float64
}

// Cost constants, calibrated against the E6/E8 measurements: a predicate
// probe of one entry is tens of ns, a bitset word op about one, a regex
// probe of one vocabulary code a handful.
const (
	costPerEntry   = 16.0 // predicate probe of one entry, in word ops
	costPerHistory = 32.0 // fixed per-history scan overhead
	costPerCode    = 8.0  // regex probe of one vocabulary code
	defaultSel     = 0.5  // selectivity prior for opaque predicates
)

// costModel estimates plans over one store's statistics.
type costModel struct {
	st *store.Stats
	n  float64 // population
	// perHistory is the calibrated cost of scanning one history.
	perHistory float64
	// leafMemo caches leaf estimates by canonical key: leaves are the
	// expensive estimates (code patterns walk the vocabulary with a
	// regex) and, unlike And/Or, their estimate cannot depend on child
	// order. The optimizer re-estimates subtrees at every ancestor
	// level; with leaves memoized those re-walks are pure arithmetic.
	leafMemo map[string]Estimate
	// fb holds executor-observed true cardinalities; when non-nil,
	// observations override the model's row estimates (see feedback.go).
	fb *epochLRU[string, int]
	// gen is the store generation the model plans for; feedback from any
	// other generation is ignored.
	gen uint64
}

// newCostModel returns nil (meaning: fall back to the static optimizer)
// when there are no statistics or no population to estimate over.
func newCostModel(st *store.Stats) *costModel {
	if st == nil || st.Patients == 0 {
		return nil
	}
	return &costModel{
		st:         st,
		n:          float64(st.Patients),
		perHistory: costPerHistory + st.AvgEntries()*costPerEntry,
		leafMemo:   make(map[string]Estimate),
	}
}

// newFeedbackCostModel is newCostModel with execution feedback attached,
// scoped to the store generation being planned for. An empty feedback
// store contributes nothing, so the model skips the per-node key
// rendering entirely until the first observation lands.
func newFeedbackCostModel(st *store.Stats, fb *feedback, gen uint64) *costModel {
	m := newCostModel(st)
	if m != nil && fb.obs.stats(gen).Entries > 0 {
		m.fb = fb.obs
		m.gen = gen
	}
	return m
}

// words is the cost of one full-population bitset operation.
func (m *costModel) words() float64 { return m.n/64 + 1 }

// estimate returns the node's estimate; children of And/Or are costed in
// the order given (the optimizer orders them before estimating parents).
// When execution feedback exists for the node's canonical key, the
// observed true cardinality replaces the modeled row count — this is how
// the independence assumption gets corrected for correlated predicates.
func (m *costModel) estimate(p Plan) Estimate {
	est := m.estimateModel(p)
	if m.fb != nil {
		switch p.(type) {
		case All, None:
		default:
			if rows, ok := m.fb.get(m.gen, p.Key()); ok {
				est.Rows = float64(rows)
			}
		}
	}
	return est
}

// estimateModel is the pure statistics-derived estimate.
func (m *costModel) estimateModel(p Plan) Estimate {
	switch n := p.(type) {
	case All:
		return Estimate{Rows: m.n, Cost: m.words()}
	case None:
		return Estimate{Rows: 0, Cost: m.words()}
	case IndexScan:
		return m.leaf(n, func() Estimate { return m.estimateIndex(n) })
	case Scan:
		// The executor prefilters a scan by its index-derived bound, so
		// cost scales with the bound's selectivity, not the population.
		return m.leaf(n, func() Estimate {
			return Estimate{
				Rows: m.exprSel(n.Expr) * m.n,
				Cost: m.boundSel(n.Expr)*m.n*m.perHistory + m.words(),
			}
		})
	case Not:
		c := m.estimate(n.Child)
		return Estimate{Rows: m.n - c.Rows, Cost: c.Cost + m.words()}
	case And:
		sel, cost := 1.0, 0.0
		for _, c := range n.Children {
			ce := m.estimate(c)
			if hasScan(c) {
				// Masked by the accumulated candidates: only the
				// surviving fraction is visited.
				cost += ce.Cost * sel
			} else {
				cost += ce.Cost
			}
			sel *= ce.Rows / m.n
		}
		return Estimate{Rows: m.n * sel, Cost: cost + m.words()}
	case Or:
		accSel, cost := 0.0, 0.0
		for _, c := range n.Children {
			ce := m.estimate(c)
			if hasScan(c) {
				// Only patients not already matched are visited.
				cost += ce.Cost * (1 - accSel)
			} else {
				cost += ce.Cost
			}
			accSel = 1 - (1-accSel)*(1-ce.Rows/m.n)
		}
		return Estimate{Rows: m.n * accSel, Cost: cost + m.words()}
	default:
		return Estimate{Rows: m.n * defaultSel, Cost: m.n * m.perHistory}
	}
}

// leaf memoizes a leaf estimate by canonical key.
func (m *costModel) leaf(p Plan, compute func() Estimate) Estimate {
	key := p.Key()
	if est, ok := m.leafMemo[key]; ok {
		return est
	}
	est := compute()
	m.leafMemo[key] = est
	return est
}

// estimateIndex reads an index leaf's estimate straight off the exact
// cardinalities; code patterns get the capped union bound over matching
// vocabulary entries.
func (m *costModel) estimateIndex(p IndexScan) Estimate {
	cost := m.words()
	var rows int
	switch p.Op {
	case OpType:
		rows = m.st.TypeCard(p.Type)
	case OpSource:
		rows = m.st.SourceCard(p.Source)
	default:
		cost += float64(m.st.DistinctCodes) * costPerCode
		systems := p.Systems
		if len(systems) == 0 {
			systems = []string{""}
		}
		for _, sys := range systems {
			// Patterns were validated at compile time; an error here
			// cannot happen, and zero is a safe estimate if it did.
			c, _ := m.st.CodePatternCard(sys, p.Pattern)
			rows += c
		}
		if rows > m.st.Patients {
			rows = m.st.Patients
		}
	}
	return Estimate{Rows: float64(rows), Cost: cost}
}

// exprSel estimates the fraction of patients a scanned expression
// matches. Index-derivable parts use exact cardinalities (as upper
// bounds); demographics use uniform priors; anything opaque gets
// defaultSel. Composition assumes independence.
func (m *costModel) exprSel(e query.Expr) float64 {
	switch q := e.(type) {
	case query.TrueExpr:
		return 1
	case query.And:
		sel := 1.0
		for _, c := range q {
			sel *= m.exprSel(c)
		}
		return sel
	case query.Or:
		keep := 1.0
		for _, c := range q {
			keep *= 1 - m.exprSel(c)
		}
		return 1 - keep
	case query.Not:
		return 1 - m.exprSel(q.E)
	case query.Has:
		// MinCount > 1 only shrinks the match set; the ≥1-entry
		// cardinality stays a sound upper bound.
		return m.predSel(q.Pred, defaultSel)
	case query.SexIs:
		return 0.5
	case query.AgeBetween:
		// Uniform prior over a ~90-year demographic span; in float64, as
		// Hi−Lo+1 wraps for bounds the Query Builder accepts.
		sel := (float64(q.Hi) - float64(q.Lo) + 1) / 90
		return clampSel(sel)
	case query.Sequence:
		sel := 1.0
		for _, st := range q.Steps {
			sel *= m.predSel(st.Pred, defaultSel)
		}
		return sel
	case query.During:
		return m.predSel(q.Interval, defaultSel) * m.predSel(q.Event, defaultSel)
	default:
		return defaultSel
	}
}

// predSel estimates the fraction of patients with at least one entry
// matching an event predicate; unknown reports the given prior for
// predicate types the indexes know nothing about.
func (m *costModel) predSel(p query.EventPred, unknown float64) float64 {
	switch q := p.(type) {
	case *query.Code:
		c, err := m.st.CodePatternCard(q.System, q.Pattern)
		if err != nil {
			return unknown
		}
		return float64(c) / m.n
	case query.TypeIs:
		return float64(m.st.TypeCard(model.Type(q))) / m.n
	case query.SourceIs:
		return float64(m.st.SourceCard(model.Source(q))) / m.n
	case query.AllOf:
		sel := 1.0
		for _, c := range q {
			sel *= m.predSel(c, unknown)
		}
		return sel
	case query.AnyOf:
		keep := 1.0
		for _, c := range q {
			keep *= 1 - m.predSel(c, unknown)
		}
		return 1 - keep
	// NotEv, KindIs, ValueBetween, InPeriod, TextMatch, or a predicate
	// type this package does not know.
	default:
		return unknown
	}
}

// boundSel estimates the fraction of the population the executor will
// actually visit for a scan: the selectivity of the scan's index-derived
// candidate bound (see scanBound), or 1 when no bound exists. It mirrors
// scanBound's structure exactly, with unknown predicates contributing no
// restriction (selectivity 1) instead of a prior.
func (m *costModel) boundSel(e query.Expr) float64 {
	switch q := e.(type) {
	case query.Has:
		return m.predSel(q.Pred, 1)
	case query.And:
		sel := 1.0
		for _, c := range q {
			sel *= m.boundSel(c)
		}
		return sel
	case query.Or:
		total := 0.0
		for _, c := range q {
			cs := m.boundSel(c)
			if cs >= 1 {
				return 1 // one unbounded child unbounds the union
			}
			total += cs
		}
		return clampSel(total)
	case query.Sequence:
		sel := 1.0
		for _, st := range q.Steps {
			sel *= m.predSel(st.Pred, 1)
		}
		return sel
	case query.During:
		return m.predSel(q.Interval, 1) * m.predSel(q.Event, 1)
	default:
		return 1
	}
}

func clampSel(s float64) float64 {
	if s < 0 {
		return 0
	}
	if s > 1 {
		return 1
	}
	return s
}

// order arranges children for execution: a greedy sort (below), then —
// for And nodes with few enough children — an exact join-order search
// that replaces the greedy order whenever its modeled cost is strictly
// lower. The DP matters most once feedback exists: true conjunction
// cardinalities break the independence assumption the greedy sort ranks
// by, and only a search over orders can exploit them.
func (m *costModel) order(children []Plan, conj bool) {
	m.orderGreedy(children, conj)
	if conj && len(children) >= 2 && len(children) <= maxDPAndChildren {
		m.refineAndOrder(children)
	}
}

// orderGreedy sorts And children most-selective-cheapest-first and Or
// children largest-first, in place and stably. In both cases scan-free
// children (index leaves and boolean combinations of them — near-free
// bitset algebra) stay ahead of scan-bearing ones: under And they narrow
// the candidate mask before any history is visited, under Or they grow
// the set of patients later scans may skip.
func (m *costModel) orderGreedy(children []Plan, conj bool) {
	ests := make([]Estimate, len(children))
	for i, c := range children {
		ests[i] = m.estimate(c)
	}
	idx := make([]int, len(children))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		i, j := idx[a], idx[b]
		si, sj := hasScan(children[i]), hasScan(children[j])
		if si != sj {
			return !si // scan-free first
		}
		if ests[i].Rows != ests[j].Rows {
			if conj {
				return ests[i].Rows < ests[j].Rows // And: most selective first
			}
			return ests[i].Rows > ests[j].Rows // Or: largest first
		}
		return ests[i].Cost < ests[j].Cost // ties: cheapest first
	})
	ordered := make([]Plan, len(children))
	for a, i := range idx {
		ordered[a] = children[i]
	}
	copy(children, ordered)
}

// maxDPAndChildren bounds the exact join-order search: 2^8 subset states
// × 8 transitions is a few thousand float ops, negligible next to one
// scan; beyond that the greedy order stands.
const maxDPAndChildren = 8

// refineAndOrder runs a Selinger-style subset DP over the And children:
// dp[S] is the cheapest cost of evaluating the member set S in some
// order, where a scan-bearing child added after S costs its estimate
// scaled by S's selectivity (evalAnd masks scans by the accumulated
// candidates) and a scan-free child costs the same wherever it runs.
// Subset selectivities come from observed conjunction cardinalities when
// feedback has them (evalAnd records every prefix it materializes, under
// the order-insensitive canonical And key), independence otherwise. The
// DP order replaces the greedy one only when strictly cheaper, so a
// fresh engine plans exactly as the greedy sort always has.
func (m *costModel) refineAndOrder(children []Plan) {
	k := len(children)
	ests := make([]Estimate, k)
	scans := make([]bool, k)
	for i, c := range children {
		ests[i] = m.estimate(c)
		scans[i] = hasScan(c)
	}

	full := 1<<k - 1
	sel := make([]float64, full+1)
	sel[0] = 1
	for S := 1; S <= full; S++ {
		low := S & (-S)
		i := bits.TrailingZeros64(uint64(low))
		sel[S] = sel[S&^low] * clampSel(ests[i].Rows/m.n)
		if m.fb != nil && S != low { // ≥2 members: a true conjunction count may exist
			members := make([]Plan, 0, k)
			for j := 0; j < k; j++ {
				if S&(1<<j) != 0 {
					members = append(members, children[j])
				}
			}
			if rows, ok := m.fb.get(m.gen, And{Children: members}.Key()); ok {
				sel[S] = clampSel(float64(rows) / m.n)
			}
		}
	}

	childCost := func(i int, prefix int) float64 {
		if scans[i] {
			return ests[i].Cost * sel[prefix]
		}
		return ests[i].Cost
	}

	dp := make([]float64, full+1)
	last := make([]int, full+1)
	for S := 1; S <= full; S++ {
		dp[S] = math.Inf(1)
		for i := 0; i < k; i++ {
			bit := 1 << i
			if S&bit == 0 {
				continue
			}
			if c := dp[S&^bit] + childCost(i, S&^bit); c < dp[S] {
				dp[S] = c
				last[S] = i
			}
		}
	}

	// Cost of the greedy order under the same selectivity table; replace
	// it only when the search found something strictly cheaper.
	greedy := 0.0
	for i := 0; i < k; i++ {
		prefix := 0
		for j := 0; j < i; j++ {
			prefix |= 1 << j
		}
		greedy += childCost(i, prefix)
	}
	if dp[full] >= greedy*(1-1e-9) {
		return
	}
	ordered := make([]Plan, k)
	for S, a := full, k-1; S != 0; a-- {
		i := last[S]
		ordered[a] = children[i]
		S &^= 1 << i
	}
	copy(children, ordered)
}
