package engine

// Scans over the analysis frame. A Scan leaf is a criterion the postings
// cannot answer — a value band, an age band, "at least k contacts", a
// sequence, During — so it tests every candidate history. Testing
// *model.History values is a pointer chase per history and per 96-byte
// entry; compileScan turns the expression into one closure tree over the
// frame's pointer-free columns instead, built once per shard per scan.
// query.Expr.Eval stays the reference every parity suite holds it to.

import (
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// cellPred is a compiled event predicate.
type cellPred func(c *store.Cell) bool

// compileScan compiles a scanned expression into a matcher over the rows
// of f: match(i) == expr.Eval(h) for the history h that row i frames. It
// builds no store.Row and allocates only while compiling. ok is false when
// the expression holds something the frame cannot answer — a TextMatch
// (the frame keeps no text), a MatchFunc, a type this package does not
// know — and the caller then ignores match and evaluates the histories.
func compileScan(expr query.Expr, f *store.Frame) (match func(i int) bool, ok bool) {
	switch q := expr.(type) {
	case query.TrueExpr:
		return func(int) bool { return true }, true
	case query.And:
		ms, ok := compileEach(q, f, compileScan)
		return func(i int) bool {
			for _, m := range ms {
				if !m(i) {
					return false
				}
			}
			return true
		}, ok
	case query.Or:
		ms, ok := compileEach(q, f, compileScan)
		return func(i int) bool {
			for _, m := range ms {
				if m(i) {
					return true
				}
			}
			return false
		}, ok
	case query.Not:
		m, ok := compileScan(q.E, f)
		return func(i int) bool { return !m(i) }, ok
	case query.AgeBetween:
		return func(i int) bool {
			p := model.Patient{Birth: model.Time(f.Birth(i))}
			age := p.AgeAt(q.At)
			return age >= q.Lo && age <= q.Hi
		}, true
	case query.SexIs:
		return func(i int) bool { return f.Sex(i) == model.Sex(q) }, true
	case query.Has:
		p, ok := compilePred(q.Pred, f)
		need := max(q.MinCount, 1)
		return func(i int) bool {
			cells, seen := f.Cells(i), 0
			for k := range cells {
				if p(&cells[k]) {
					if seen++; seen >= need {
						return true
					}
				}
			}
			return false
		}, ok
	case query.During:
		iv, ok := compilePred(q.Interval, f)
		ev, ok2 := compilePred(q.Event, f)
		return func(i int) bool {
			cells := f.Cells(i)
			for a := range cells {
				in := &cells[a]
				if in.Kind != model.Interval || !iv(in) {
					continue
				}
				for b := range cells {
					e := &cells[b]
					if e.Kind == model.Point && ev(e) && in.Start <= e.Start && e.Start < in.End {
						return true
					}
				}
			}
			return false
		}, ok && ok2
	case query.Sequence:
		return compileSequence(q, f)
	}
	return nil, false
}

// compileSequence is Sequence.FirstMatch's backtracking search over a
// row's cells, which are in the order Sort gives its entries: the same
// gap rules, and the witness reduced to the previous step's start.
func compileSequence(q query.Sequence, f *store.Frame) (func(i int) bool, bool) {
	preds := make([]cellPred, len(q.Steps))
	for k, st := range q.Steps {
		p, ok := compilePred(st.Pred, f)
		if !ok {
			return nil, false
		}
		preds[k] = p
	}
	var search func(cells []store.Cell, step, from int, prev int64) bool
	search = func(cells []store.Cell, step, from int, prev int64) bool {
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
			if preds[step](c) && search(cells, step+1, k+1, c.Start) {
				return true
			}
		}
		return false
	}
	return func(i int) bool { return len(preds) > 0 && search(f.Cells(i), 0, 0, 0) }, true
}

// compilePred compiles an event predicate over cells, or reports that the
// frame cannot answer it.
func compilePred(p query.EventPred, f *store.Frame) (cellPred, bool) {
	switch q := p.(type) {
	case query.TypeIs:
		return func(c *store.Cell) bool { return c.Type == model.Type(q) }, true
	case query.SourceIs:
		return func(c *store.Cell) bool { return c.Source == model.Source(q) }, true
	case query.KindIs:
		return func(c *store.Cell) bool { return c.Kind == model.Kind(q) }, true
	case query.ValueBetween:
		return func(c *store.Cell) bool { return c.Value >= q.Lo && c.Value <= q.Hi }, true
	case query.InPeriod:
		period := model.Period(q)
		return func(c *store.Cell) bool {
			if c.Kind == model.Point {
				return period.Contains(model.Time(c.Start))
			}
			return period.Overlaps(model.Period{Start: model.Time(c.Start), End: model.Time(c.End)})
		}, true
	case query.AllOf:
		ps, ok := compileEach(q, f, compilePred)
		return func(c *store.Cell) bool {
			for _, p := range ps {
				if !p(c) {
					return false
				}
			}
			return true
		}, ok
	case query.AnyOf:
		ps, ok := compileEach(q, f, compilePred)
		return func(c *store.Cell) bool {
			for _, p := range ps {
				if p(c) {
					return true
				}
			}
			return false
		}, ok
	case query.NotEv:
		inner, ok := compilePred(q.P, f)
		return func(c *store.Cell) bool { return !inner(c) }, ok
	case *query.Code:
		// Each dictionary slot is matched by the regex the first time a
		// cell carries it: 0 untested, 1 no, 2 yes.
		memo := make([]uint8, len(f.Codes))
		return func(c *store.Cell) bool {
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
