// Package engine is the query planner/executor behind interactive cohort
// identification. It compiles a query.Expr into a typed plan tree, runs
// rewrite passes over it (flattening, constant folding, hoisting
// index-answerable leaves ahead of scan-only predicates, deduplication),
// and executes the plan against a sharded store with worker-pool fan-out
// and an LRU bitset cache keyed by canonicalized sub-plans — so the
// paper's filter/zoom refinement loop ("all content ... pre-loaded to
// speed up drawing") repeatedly hits cached sub-results instead of
// re-scanning 168k histories.
//
// The legacy single-store interpreter (query.EvalIndexed) is retained as
// the reference implementation; the parity tests in this package hold the
// engine byte-identical to both it and the plain scan evaluator.
package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/terminology"
)

// Plan is a node of the compiled query plan.
//
// Adding a node kind means extending every evaluator and codec switch in
// step: Engine.eval and Engine.evalMasked (engine.go), evalOnView
// (backend.go), planToWire/planFromWire (wire.go), and the cost model
// (cost.go). Each switch fails loudly on an unknown node, so a missed
// site surfaces as an execution error, not a wrong cohort.
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
}

func (p IndexScan) Key() string { return p.String() }

func (p IndexScan) String() string {
	switch p.Op {
	case OpType:
		return "index:type=" + p.Type.String()
	case OpSource:
		return "index:source=" + p.Source.String()
	default:
		if len(p.Systems) == 0 {
			return fmt.Sprintf("index:code~%q", p.Pattern)
		}
		return fmt.Sprintf("index:%s~%q", strings.Join(p.Systems, "|"), p.Pattern)
	}
}

// Scan is the fallback leaf: evaluate the wrapped expression against every
// candidate history. Under And/Or the executor narrows the candidates to
// the patients still in play, so a scan behind a selective index leaf
// touches a fraction of the population.
type Scan struct {
	Expr query.Expr
	// opaqueID is nonzero when the expression contains predicates whose
	// String() does not canonically identify them (an expression or
	// predicate type this package does not know). It makes the key
	// unique per compilation, so neither the plan cache nor the
	// optimizer's sibling dedupe can ever conflate two distinct scans
	// that merely render alike. Build Scan leaves through Compile to get
	// this classification.
	opaqueID uint64
}

func (p Scan) Key() string {
	if p.opaqueID != 0 {
		return fmt.Sprintf("scan#%d{%s}", p.opaqueID, p.Expr.String())
	}
	return "scan{" + p.Expr.String() + "}"
}
func (p Scan) String() string { return p.Key() }

var opaqueSeq atomic.Uint64

func newScan(e query.Expr) Scan {
	s := Scan{Expr: e}
	if !canonicalExpr(e) {
		s.opaqueID = opaqueSeq.Add(1)
	}
	return s
}

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
// query.EvalIndexed), everything else becomes a Scan fallback. Code
// patterns are validated here so execution cannot fail on a bad regex.
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
	return newScan(e), nil
}

// canonicalExpr reports whether an expression's String() identifies it
// structurally: true only for the expression and predicate types this
// package knows render injectively. An expression type this package does
// not know is opaque.
func canonicalExpr(e query.Expr) bool {
	switch q := e.(type) {
	case query.TrueExpr, query.AgeBetween, query.SexIs:
		return true
	case query.And:
		for _, c := range q {
			if !canonicalExpr(c) {
				return false
			}
		}
		return true
	case query.Or:
		for _, c := range q {
			if !canonicalExpr(c) {
				return false
			}
		}
		return true
	case query.Not:
		return canonicalExpr(q.E)
	case query.Has:
		return canonicalPred(q.Pred)
	case query.During:
		return canonicalPred(q.Interval) && canonicalPred(q.Event)
	case query.Sequence:
		for _, st := range q.Steps {
			if !canonicalPred(st.Pred) {
				return false
			}
		}
		return true
	default:
		return false
	}
}

func canonicalPred(p query.EventPred) bool {
	switch q := p.(type) {
	case *query.Code, query.TypeIs, query.SourceIs, query.KindIs,
		query.ValueBetween, query.InPeriod, *query.TextMatch:
		return true
	case query.AllOf:
		for _, c := range q {
			if !canonicalPred(c) {
				return false
			}
		}
		return true
	case query.AnyOf:
		for _, c := range q {
			if !canonicalPred(c) {
				return false
			}
		}
		return true
	case query.NotEv:
		return canonicalPred(q.P)
	default: // a predicate type this package does not know
		return false
	}
}

// cacheable reports whether a plan's key identifies it across
// compilations; opaque scans are executed fresh every time.
func cacheable(p Plan) bool {
	switch n := p.(type) {
	case Scan:
		return n.opaqueID == 0
	case Not:
		return cacheable(n.Child)
	case And:
		for _, c := range n.Children {
			if !cacheable(c) {
				return false
			}
		}
		return true
	case Or:
		for _, c := range n.Children {
			if !cacheable(c) {
				return false
			}
		}
		return true
	default:
		return true
	}
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
