package engine

import (
	"math"
	"sort"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// Cost model. The planner estimates, for every plan node, how many
// patients it will match (Rows) and what evaluating it costs (Cost), from
// the exact cardinalities the store collects at New time. Index leaves are
// estimated from their posting-list counts, value bands and age bands from
// the store's value and birth buckets; Not/And/Or compose children
// under the usual independence assumption; Scan nodes cost a calibrated
// per-history constant times the population, which an enclosing And
// scales down to the candidates its earlier children leave — a bounded
// scan's own bound among them (see bound), so a Scan's rows are
// conditional on that bound.
// OptimizeWithStats uses the estimates to order And scans by rank (see
// order) and Or children largest-first, after the scan-free children in
// both. The model plans from the statistics alone: nothing an execution
// observes feeds back into it.

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
	defaultSel     = 0.5  // selectivity prior for KindIs, InPeriod, NotEv and TextMatch
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

// words is the cost of one full-population bitset operation.
func (m *costModel) words() float64 { return m.n/64 + 1 }

// estimate returns the node's estimate; children of And/Or are costed in
// the order given (the optimizer orders them before estimating parents).
func (m *costModel) estimate(p Plan) Estimate {
	switch n := p.(type) {
	case All:
		return Estimate{Rows: m.n, Cost: m.words()}
	case None:
		return Estimate{Rows: 0, Cost: m.words()}
	case IndexScan:
		return m.leaf(n, func() Estimate { return m.estimateIndex(n) })
	case Scan:
		// A bounded scan runs under the And Compile lowered it to, after
		// its bound: that And scales the cost by the candidates left and
		// multiplies the rows by the bound's selectivity, so the scan's
		// own rows are conditional on its bound — counted once, not twice.
		return m.leaf(n, func() Estimate {
			sel := m.exprSel(n.Expr)
			if b, ok, _ := bound(n.Expr); ok {
				if bsel := m.estimate(b).Rows / m.n; bsel > 0 {
					sel = clampSel(sel / bsel)
				}
			}
			return Estimate{Rows: sel * m.n, Cost: m.n*m.perHistory + m.words()}
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
// matches. Index-derivable parts and value bands use the store's counts
// (as upper bounds), age bands its birth buckets, sex an even split; what
// no statistic counts gets defaultSel. Composition assumes independence.
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
		return float64(m.st.BirthCard(ageBirths(q))) / m.n
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
// matching an event predicate, from the index counts and, for a value
// band, the value buckets; unknown reports the given prior for predicates
// no statistic counts.
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
	case query.ValueBetween:
		return float64(m.st.ValueBandCard(q.Lo, q.Hi)) / m.n
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
	default: // NotEv, KindIs, InPeriod, TextMatch
		return unknown
	}
}

// ageBirths returns the birth-year buckets (Stats.BirthCard's) that hold
// an age band at q.At: AgeAt floors, so age ∈ [Lo, Hi] ⇔ At − (Hi+1)·Year
// < birth ≤ At − Lo·Year, computed in years, where nothing overflows. The
// guards are compileScan's: a bound past maxYears is no bound.
func ageBirths(q query.AgeBetween) (first, last int64) {
	if q.Lo > q.Hi || q.Lo > maxYears || q.Hi < -maxYears-1 {
		return 1, 0
	}
	at, rem := store.YearOf(q.At)
	first, last = math.MinInt64, math.MaxInt64
	if q.Hi < maxYears { // the bucket of At − (Hi+1)·Year + 1
		first = at - int64(q.Hi) - 1 + (rem+1)/int64(model.Year)
	}
	if q.Lo >= -maxYears {
		last = at - int64(q.Lo)
	}
	return first, last
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

// order arranges children for execution, in place and stably. In both
// And and Or, scan-free children (index leaves and boolean combinations of
// them — near-free bitset algebra) come first: under And they narrow the
// candidate mask before any history is visited, and they cost the same
// wherever they run; under Or they grow the set of patients later scans may
// skip. Or children then run largest-first.
//
// And scans run in rank order. tree.eval masks each scan by the candidates
// still standing, so an And costs Σ cost_i × Π_{j<i} sel_j over its scans,
// and that sum is least when they run in ascending cost_i / (1 − sel_i):
// swapping two neighbours a, b pays off exactly when
// cost_b × (1 − sel_a) < cost_a × (1 − sel_b). The comparison is made in
// that cross-multiplied form, so a scan that keeps everyone (sel = 1)
// ranks last. Ties — and every scan-free pair — go most-selective first,
// then cheapest first.
func (m *costModel) order(children []Plan, conj bool) {
	type ranked struct {
		p    Plan
		scan bool
		est  Estimate
		sel  float64
	}
	rs := make([]ranked, len(children))
	for i, c := range children {
		est := m.estimate(c)
		rs[i] = ranked{p: c, scan: hasScan(c), est: est, sel: clampSel(est.Rows / m.n)}
	}
	sort.SliceStable(rs, func(a, b int) bool {
		x, y := rs[a], rs[b]
		if x.scan != y.scan {
			return !x.scan // scan-free first
		}
		if conj && x.scan {
			if rx, ry := x.est.Cost*(1-y.sel), y.est.Cost*(1-x.sel); rx != ry {
				return rx < ry // And scans: ascending rank
			}
		}
		if x.est.Rows != y.est.Rows {
			if conj {
				return x.est.Rows < y.est.Rows // And: most selective first
			}
			return x.est.Rows > y.est.Rows // Or: largest first
		}
		return x.est.Cost < y.est.Cost // ties: cheapest first
	})
	for i, r := range rs {
		children[i] = r.p
	}
}
