package engine

// Scans over the analysis frame. A Scan leaf is a criterion the postings
// cannot answer — a value band, an age band, "at least k contacts", a
// sequence, During — so it tests every candidate history. Testing
// *model.History values is a pointer chase per history and per 96-byte
// entry; compileScan turns the expression into one closure tree over the
// frame's pointer-free columns instead, built once per shard per scan.
// It runs a word of 64 candidate rows at a time, so a boolean operator
// costs one call per word, and a predicate loads only the column it tests;
// an age or sex criterion and a bare value band are store word kernels
// (Frame.AgeBand, SexIs, ValueBand) with no call per row.
// query.Expr.Eval stays the reference every parity suite holds it to.

import (
	"math"
	"math/bits"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// maxYears is the largest age a model.Time difference holds (least: −maxYears−1).
const maxYears = math.MaxInt64 / int(model.Year)

// wordMatch is a compiled scan over one word of rows: bit k of the result
// is set iff bit k of cand is and row base+k matches.
type wordMatch func(base int, cand uint64) uint64

// cellPred is a compiled event predicate over a cell and its value; it
// dereferences only what it tests, so it loads one column, not both.
type cellPred func(c *store.Cell, v *float64) bool

// perRow lifts a per-row test to a word matcher, one call per candidate.
func perRow(match func(i int) bool) wordMatch {
	return func(base int, cand uint64) uint64 {
		for w := cand; w != 0; w &= w - 1 {
			if k := bits.TrailingZeros64(w); !match(base + k) {
				cand &^= 1 << k
			}
		}
		return cand
	}
}

// chain is the conjunction of ms: each tests only the candidates the ones
// before it kept, and an emptied word stops it.
func chain(ms []wordMatch) wordMatch {
	if len(ms) == 1 {
		return ms[0]
	}
	return func(base int, cand uint64) uint64 {
		for _, m := range ms {
			if cand == 0 {
				break
			}
			cand = m(base, cand)
		}
		return cand
	}
}

// compileScan compiles a scanned expression into a word matcher over the
// rows of f: bit k of match(base, cand) is cand's bit k ∧ expr.Eval(h)
// for the history h that row base+k frames. It builds no store.Row and
// allocates only while compiling. ok is false when the expression holds
// a TextMatch (the frame keeps no text), and the caller then ignores match
// and evaluates the histories.
func compileScan(expr query.Expr, f *store.Frame) (match wordMatch, ok bool) {
	switch q := expr.(type) {
	case query.TrueExpr:
		return func(_ int, cand uint64) uint64 { return cand }, true
	case query.And:
		ms, ok := compileEach(q, f, compileScan)
		return chain(ms), ok
	case query.Or:
		ms, ok := compileEach(q, f, compileScan)
		return func(base int, cand uint64) uint64 {
			var hit uint64
			for _, m := range ms {
				if rest := cand &^ hit; rest != 0 {
					hit |= m(base, rest)
				}
			}
			return hit
		}, ok
	case query.Not:
		m, ok := compileScan(q.E, f)
		return func(base int, cand uint64) uint64 { return cand &^ m(base, cand) }, ok
	case query.AgeBetween:
		// AgeAt floors: age ∈ [Lo, Hi] ⇔ Lo·Year ≤ d ≤ (Hi+1)·Year − 1, and a
		// bound past every age a model.Time difference has is no bound.
		if q.Lo > q.Hi || q.Lo > maxYears || q.Hi < -maxYears-1 {
			return func(int, uint64) uint64 { return 0 }, true
		}
		lo, last := int64(math.MinInt64), int64(math.MaxInt64)
		if q.Lo >= -maxYears {
			lo = int64(q.Lo) * int64(model.Year)
		}
		if q.Hi < maxYears {
			last = int64(q.Hi+1)*int64(model.Year) - 1
		}
		if span := uint64(last) - uint64(lo) + 1; span != 0 {
			at := int64(q.At)
			return func(base int, cand uint64) uint64 { return f.AgeBand(base, cand, at, lo, span) }, true
		}
		return func(_ int, cand uint64) uint64 { return cand }, true // every age
	case query.SexIs:
		return func(base int, cand uint64) uint64 { return f.SexIs(base, cand, model.Sex(q)) }, true
	case query.Has:
		need := max(q.MinCount, 1)
		if band, isBand := q.Pred.(query.ValueBetween); isBand { // no call per value
			return func(base int, cand uint64) uint64 { return f.ValueBand(base, cand, need, band.Lo, band.Hi) }, true
		}
		p, ok := compilePred(q.Pred, f)
		return perRow(func(i int) bool {
			cells, vals, seen := f.Cells(i), f.Values(i), 0
			for j := 0; j < len(cells) && seen < need; j++ {
				if p(&cells[j], &vals[j]) {
					seen++
				}
			}
			return seen >= need
		}), ok
	case query.During:
		// The cells are sorted by start, so one sweep answers it: a point
		// lies in a matching interval iff the latest end among the matching
		// intervals starting at or before it lies past it.
		iv, ok := compilePred(q.Interval, f)
		ev, ok2 := compilePred(q.Event, f)
		return perRow(func(i int) bool {
			cells, vals := f.Cells(i), f.Values(i)
			end, a := int64(math.MinInt64), 0
			for b := range cells {
				e := &cells[b]
				if e.Kind != model.Point || !ev(e, &vals[b]) {
					continue
				}
				for ; a < len(cells) && cells[a].Start <= e.Start; a++ {
					if in := &cells[a]; in.Kind == model.Interval && in.End > end && iv(in, &vals[a]) {
						end = in.End
					}
				}
				if e.Start < end {
					return true
				}
			}
			return false
		}), ok && ok2
	case query.Sequence:
		return compileSequence(q, f)
	}
	return nil, false
}

// compileSequence is Sequence.FirstMatch's backtracking search over a
// row's cells, which are in the order Sort gives its entries: the same
// gap rules, and the witness reduced to the previous step's start.
func compileSequence(q query.Sequence, f *store.Frame) (wordMatch, bool) {
	preds := make([]cellPred, len(q.Steps))
	for k, st := range q.Steps {
		p, ok := compilePred(st.Pred, f)
		if !ok {
			return nil, false
		}
		preds[k] = p
	}
	var search func(cells []store.Cell, vals []float64, step, from int, prev int64) bool
	search = func(cells []store.Cell, vals []float64, step, from int, prev int64) bool {
		if step == len(preds) {
			return true
		}
		st := q.Steps[step]
		for k := from; k < len(cells); k++ {
			c := &cells[k]
			if step > 0 {
				gap := model.Time(c.Start - prev)
				if gap < st.MinGap {
					continue
				}
				if st.MaxGap > 0 && gap > st.MaxGap {
					return false // the cells are time-sorted: later gaps only grow
				}
			}
			if preds[step](c, &vals[k]) && search(cells, vals, step+1, k+1, c.Start) {
				return true
			}
		}
		return false
	}
	return perRow(func(i int) bool { return len(preds) > 0 && search(f.Cells(i), f.Values(i), 0, 0, 0) }), true
}

// compilePred compiles an event predicate, or reports that the frame
// cannot answer it.
func compilePred(p query.EventPred, f *store.Frame) (cellPred, bool) {
	switch q := p.(type) {
	case query.TypeIs:
		return func(c *store.Cell, _ *float64) bool { return c.Type == model.Type(q) }, true
	case query.SourceIs:
		return func(c *store.Cell, _ *float64) bool { return c.Source == model.Source(q) }, true
	case query.KindIs:
		return func(c *store.Cell, _ *float64) bool { return c.Kind == model.Kind(q) }, true
	case query.ValueBetween:
		return func(_ *store.Cell, v *float64) bool { return *v >= q.Lo && *v <= q.Hi }, true
	case query.InPeriod:
		period := model.Period(q)
		return func(c *store.Cell, _ *float64) bool {
			if c.Kind == model.Point {
				return period.Contains(model.Time(c.Start))
			}
			return period.Overlaps(model.Period{Start: model.Time(c.Start), End: model.Time(c.End)})
		}, true
	case query.AllOf:
		ps, ok := compileEach(q, f, compilePred)
		return func(c *store.Cell, v *float64) bool {
			for _, p := range ps {
				if !p(c, v) {
					return false
				}
			}
			return true
		}, ok
	case query.AnyOf:
		ps, ok := compileEach(q, f, compilePred)
		return func(c *store.Cell, v *float64) bool {
			for _, p := range ps {
				if p(c, v) {
					return true
				}
			}
			return false
		}, ok
	case query.NotEv:
		inner, ok := compilePred(q.P, f)
		return func(c *store.Cell, v *float64) bool { return !inner(c, v) }, ok
	case *query.Code:
		// Each dictionary slot is matched by the regex the first time a
		// cell carries it: 0 untested, 1 no, 2 yes.
		memo := make([]uint8, len(f.Codes))
		return func(c *store.Cell, _ *float64) bool {
			m := memo[c.Code]
			if m == 0 {
				m = 1
				if q.MatchCode(f.Codes[c.Code].Code) {
					m = 2
				}
				memo[c.Code] = m
			}
			return m == 2
		}, true
	}
	return nil, false
}

// compileEach compiles every element, or reports the first that cannot be.
func compileEach[X, M any](xs []X, f *store.Frame, compile func(X, *store.Frame) (M, bool)) ([]M, bool) {
	out := make([]M, len(xs))
	for k, x := range xs {
		m, ok := compile(x, f)
		if !ok {
			return nil, false
		}
		out[k] = m
	}
	return out, true
}
