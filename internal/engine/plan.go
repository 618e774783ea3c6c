// Package engine is the query planner/executor behind interactive cohort
// identification. It compiles a query.Expr into a typed plan tree (a
// bounded scan under an And with its bound), optimizes it (flattening,
// constant folding, deduplication, cost-based ordering), and executes it
// over one pinned view of a local store, its rows spread over worker
// goroutines, or over the shard backends a coordinator fans out to, with
// an LRU bitset cache keyed by canonicalized sub-plans — so the paper's
// filter/zoom refinement loop ("all content ... pre-loaded to speed up
// drawing") re-hits cached sub-results instead of re-scanning histories.
//
// The legacy single-store interpreter (query.EvalIndexed) is retained as
// the reference implementation; the parity tests in this package hold the
// engine byte-identical to both it and the plain scan evaluator.
package engine

import (
	"fmt"
	"sort"
	"strings"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
	"pastas/internal/terminology"
)

// Plan is a node of the compiled query plan.
//
// Three switches know every node kind: the one evaluator, tree.eval
// (engine.go), which runs plans on a local engine, a shard server and a
// LocalBackend alike; the codec, planToWire/planFromWire (wire.go); and
// the cost model (cost.go). Each fails loudly on an unknown node, so a
// missed site surfaces as an error, not a wrong cohort.
type Plan interface {
	// Key is the canonical cache key: structurally equivalent plans share
	// keys (And/Or keys are order-insensitive, since execution order is an
	// optimizer choice, not a semantic one).
	Key() string
	// String renders the plan in execution order, for EXPLAIN-style output.
	String() string
}

// All matches every patient (the compiled form of query.TrueExpr).
type All struct{}

func (All) Key() string    { return "*" }
func (All) String() string { return "all" }

// None matches no patient (constant-folded Not{All}).
type None struct{}

func (None) Key() string    { return "∅" }
func (None) String() string { return "none" }

// IndexOp selects which inverted index an IndexScan consults.
type IndexOp int

const (
	// OpCode answers Has(code~pattern) from the code index.
	OpCode IndexOp = iota
	// OpType answers Has(type=t) from the type index.
	OpType
	// OpSource answers Has(source=s) from the source index.
	OpSource
	// OpValue answers a value band's bound from the value buckets.
	OpValue
)

// IndexScan is a leaf answered entirely from each shard's inverted
// indexes — no history is visited.
type IndexScan struct {
	Op IndexOp
	// Systems restricts an OpCode lookup to these code systems; empty
	// means any system.
	Systems []string
	Pattern string
	Type    model.Type
	Source  model.Source
	Buckets [2]uint16 // OpValue: first and last store.ValueBucket keys, one sign
}

func (p IndexScan) Key() string { return p.String() }

func (p IndexScan) String() string {
	switch p.Op {
	case OpValue:
		return fmt.Sprintf("index:value#%d-%d", p.Buckets[0], p.Buckets[1])
	case OpType:
		return "index:type=" + p.Type.String()
	case OpSource:
		return "index:source=" + p.Source.String()
	default:
		if len(p.Systems) == 0 {
			return fmt.Sprintf("index:code~%q", p.Pattern)
		}
		systems := make([]string, len(p.Systems))
		for i, sys := range p.Systems {
			systems[i] = query.QuoteSystem(sys)
		}
		return fmt.Sprintf("index:%s~%q", strings.Join(systems, "|"), p.Pattern)
	}
}

// Scan is the fallback leaf: evaluate the wrapped expression against every
// candidate history. Under And/Or the executor narrows the candidates to
// the patients still in play, so a scan behind a selective index leaf
// touches a fraction of the population.
type Scan struct{ Expr query.Expr }

func (p Scan) Key() string    { return "scan{" + p.Expr.String() + "}" }
func (p Scan) String() string { return p.Key() }

// And intersects its children; execution evaluates them left to right and
// masks scan-bearing children by the accumulated candidates.
type And struct{ Children []Plan }

func (p And) Key() string    { return "and(" + joinKeys(p.Children, true) + ")" }
func (p And) String() string { return "and(" + joinKeys(p.Children, false) + ")" }

// Or unions its children; scan-bearing children only scan patients not
// already known to match.
type Or struct{ Children []Plan }

func (p Or) Key() string    { return "or(" + joinKeys(p.Children, true) + ")" }
func (p Or) String() string { return "or(" + joinKeys(p.Children, false) + ")" }

// Not complements its child within the store's population.
type Not struct{ Child Plan }

func (p Not) Key() string    { return "not(" + p.Child.Key() + ")" }
func (p Not) String() string { return "not(" + p.Child.String() + ")" }

func joinKeys(ps []Plan, canonical bool) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		if canonical {
			parts[i] = p.Key()
		} else {
			parts[i] = p.String()
		}
	}
	if canonical {
		sort.Strings(parts)
	}
	return strings.Join(parts, ",")
}

// hasScan reports whether the subtree contains a Scan leaf; the optimizer
// hoists scan-free subtrees ahead of scan-bearing ones and the executor
// masks the latter.
func hasScan(p Plan) bool {
	switch n := p.(type) {
	case Scan:
		return true
	case Not:
		return hasScan(n.Child)
	case And:
		for _, c := range n.Children {
			if hasScan(c) {
				return true
			}
		}
	case Or:
		for _, c := range n.Children {
			if hasScan(c) {
				return true
			}
		}
	}
	return false
}

// Compile lowers a query expression into an unoptimized plan tree. The
// boolean skeleton maps 1:1; Has leaves become IndexScans when the
// inverted indexes answer them exactly (same classification as the legacy
// query.EvalIndexed), everything else becomes a Scan fallback — under an
// And with its candidate bound (see bound) when the indexes bound it, so
// the bound's index work is plan nodes the optimizer orders, the caches
// share and Explain prints. Every code pattern an index node reads is
// validated here, so execution cannot fail on a bad regex.
func Compile(e query.Expr) (Plan, error) {
	switch q := e.(type) {
	case query.TrueExpr:
		return All{}, nil
	case query.And:
		children, err := compileAll([]query.Expr(q))
		if err != nil {
			return nil, err
		}
		return And{Children: children}, nil
	case query.Or:
		children, err := compileAll([]query.Expr(q))
		if err != nil {
			return nil, err
		}
		return Or{Children: children}, nil
	case query.Not:
		child, err := Compile(q.E)
		if err != nil {
			return nil, err
		}
		return Not{Child: child}, nil
	case query.Has:
		if p, ok, err := indexable(q); err != nil {
			return nil, err
		} else if ok {
			return p, nil
		}
	}
	b, ok, err := bound(e)
	if err != nil {
		return nil, err
	}
	if ok {
		return And{Children: []Plan{b, Scan{Expr: e}}}, nil
	}
	return Scan{Expr: e}, nil
}

// bound returns a scan-free plan — IndexScans under And/Or — selecting a
// superset of the patients the scanned expression e can match, or
// ok=false when no index bounds e. A patient Has matches carries ≥1 entry
// matching its predicate; a Sequence, every step; a During, both parts.
// A code, type or source predicate is bounded by its own index leaf (an
// entry matching a Code carries a code matching the pattern), a narrow
// value band by its value buckets (valueBound), AllOf by the And of its
// bounded parts, AnyOf by the Or of its branches only when every branch
// is bounded. Everything else — demographics, NotEv, KindIs, InPeriod,
// TextMatch, wide value bands, empty lists — has no bound. Compile lowers
// with it and the cost model conditions a scan's rows on it, so both read
// the one rule.
func bound(e query.Expr) (Plan, bool, error) {
	var parts []query.Expr // conjuncts; e's bound is the And of theirs
	switch q := e.(type) {
	case query.Has:
		switch p := q.Pred.(type) {
		case *query.Code, query.TypeIs, query.SourceIs:
			return indexable(query.Has{Pred: p})
		case query.ValueBetween:
			return valueBound(p)
		case query.AllOf:
			for _, c := range p {
				parts = append(parts, query.Has{Pred: c})
			}
		case query.AnyOf:
			var branches []Plan
			for _, c := range p {
				b, ok, err := bound(query.Has{Pred: c})
				if err != nil {
					return nil, false, err
				}
				if ok {
					branches = append(branches, b)
				}
			}
			if len(p) == 0 || len(branches) < len(p) {
				return nil, false, nil // an unbounded branch unbounds the union
			}
			return orOf(branches), true, nil
		}
	case query.Sequence:
		for _, st := range q.Steps {
			parts = append(parts, query.Has{Pred: st.Pred})
		}
	case query.During:
		parts = []query.Expr{query.Has{Pred: q.Interval}, query.Has{Pred: q.Event}}
	}
	var bounds []Plan
	for _, c := range parts {
		b, ok, err := bound(c)
		if err != nil {
			return nil, false, err
		}
		if ok {
			bounds = append(bounds, b)
		}
	}
	if len(bounds) == 0 {
		return nil, false, nil
	}
	return andOf(bounds), true, nil
}

// maxBoundBuckets is the most value buckets a band's bound unions: the
// union of a wider band's postings costs about what the scan it spares.
const maxBoundBuckets = 4

// valueBound bounds a value band on one side of zero by the run of at
// most maxBoundBuckets value buckets holding it. A band touching zero (±0
// share no bucket), an empty band and a NaN bound get none. The rule
// reads no statistics.
func valueBound(q query.ValueBetween) (Plan, bool, error) {
	first, last := store.ValueBucket(q.Lo), store.ValueBucket(q.Hi)
	if q.Hi < 0 {
		first, last = last, first
	}
	if !(q.Lo <= q.Hi) || q.Lo <= 0 && q.Hi >= 0 || last-first >= maxBoundBuckets {
		return nil, false, nil
	}
	return IndexScan{Op: OpValue, Buckets: [2]uint16{first, last}}, true, nil
}

func compileAll(es []query.Expr) ([]Plan, error) {
	out := make([]Plan, len(es))
	for i, e := range es {
		p, err := Compile(e)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// indexable lowers a Has leaf onto the inverted indexes via the shared
// query.ClassifyHas classification (the same one the legacy interpreter
// uses, so engine and reference can never drift), validating code
// patterns so execution cannot fail on a bad regex.
func indexable(q query.Has) (Plan, bool, error) {
	ix, ok := query.ClassifyHas(q)
	if !ok {
		return nil, false, nil
	}
	switch ix.Kind {
	case query.HasIndexType:
		return IndexScan{Op: OpType, Type: ix.Type}, true, nil
	case query.HasIndexSource:
		return IndexScan{Op: OpSource, Source: ix.Source}, true, nil
	default:
		if err := checkPattern(ix.Pattern); err != nil {
			return nil, false, err
		}
		return IndexScan{Op: OpCode, Systems: ix.Systems, Pattern: ix.Pattern}, true, nil
	}
}

func checkPattern(pattern string) error {
	if _, err := terminology.CompileCodePattern(pattern); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
