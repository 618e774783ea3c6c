package engine

// Plan serialization for the shard wire protocol. A coordinating engine
// ships compiled plans to remote shard backends, so every plan node and
// every type of the closed query language gets an explicit tagged wire
// form (gob-encoded; no interface registration, no closures on the wire).
// A value with no wire form — a nil predicate, say — encodes to an error
// naming it, never to a silently different query.

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"pastas/internal/model"
	"pastas/internal/query"
)

// Wire node kind tags. Strings rather than iota so a reordered constant
// block can never silently re-interpret a peer's payload.
const (
	wireAll   = "all"
	wireNone  = "none"
	wireIndex = "index"
	wireScan  = "scan"
	wireAnd   = "and"
	wireOr    = "or"
	wireNot   = "not"

	wireExprTrue = "true"
	wireExprAnd  = "and"
	wireExprOr   = "or"
	wireExprNot  = "not"
	wireExprHas  = "has"
	wireExprSeq  = "seq"
	wireExprDur  = "during"
	wireExprAge  = "age"
	wireExprSex  = "sex"

	wirePredCode   = "code"
	wirePredType   = "type"
	wirePredSource = "source"
	wirePredKind   = "kind"
	wirePredValue  = "value"
	wirePredPeriod = "period"
	wirePredText   = "text"
	wirePredAll    = "allof"
	wirePredAny    = "anyof"
	wirePredNot    = "notev"
)

// wirePlan is the tagged wire form of a Plan node.
type wirePlan struct {
	Kind string
	Kids []wirePlan // and, or, not

	// index leaves
	Op      int
	Systems []string
	Pattern string
	Type    model.Type
	Source  model.Source
	Buckets [2]uint16

	// scan leaves
	Expr *wireExpr
}

// wireExpr is the tagged wire form of a query.Expr.
type wireExpr struct {
	Kind string
	Kids []wireExpr // and, or, not

	Pred     *wirePred // has
	MinCount int

	Steps []wireStep // seq

	Interval *wirePred // during
	Event    *wirePred

	Lo, Hi int // age
	At     model.Time

	Sex model.Sex
}

// wireStep is one sequence step.
type wireStep struct {
	Pred           wirePred
	MinGap, MaxGap model.Time
}

// wirePred is the tagged wire form of a query.EventPred.
type wirePred struct {
	Kind string
	Kids []wirePred // allof, anyof, notev

	System, Pattern string // code; Pattern doubles for text
	Type            model.Type
	Source          model.Source
	EntryKind       model.Kind
	Lo, Hi          float64 // value
	Period          model.Period
}

// EncodePlan serializes a plan for a remote shard backend. A plan holding
// a value with no wire form (a nil expression or predicate) returns an
// error naming it.
func EncodePlan(p Plan) ([]byte, error) {
	w, err := planToWire(p)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("engine: encode plan: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodePlan reconstructs a plan serialized by EncodePlan. Code and text
// patterns are re-validated during reconstruction, so a hostile payload
// errors instead of executing with a nil regexp.
func DecodePlan(data []byte) (Plan, error) {
	var w wirePlan
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("engine: decode plan: %w", err)
	}
	return planFromWire(w)
}

// EncodeExpr serializes a query expression in the same tagged wire form
// plans use. The store's cohort segment persists expressions through this
// codec without importing the query package's types: the bytes are opaque
// to the snapshot format and re-validated on decode. An expression with
// no wire form errors like EncodePlan does.
func EncodeExpr(e query.Expr) ([]byte, error) {
	w, err := exprToWire(e)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&w); err != nil {
		return nil, fmt.Errorf("engine: encode expression: %w", err)
	}
	return buf.Bytes(), nil
}

// DecodeExpr reconstructs an expression serialized by EncodeExpr,
// re-validating patterns like DecodePlan — a hostile payload errors, it
// never produces an expression that panics at evaluation time.
func DecodeExpr(data []byte) (query.Expr, error) {
	var w wireExpr
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&w); err != nil {
		return nil, fmt.Errorf("engine: decode expression: %w", err)
	}
	return exprFromWire(w)
}

func planToWire(p Plan) (wirePlan, error) {
	switch n := p.(type) {
	case All:
		return wirePlan{Kind: wireAll}, nil
	case None:
		return wirePlan{Kind: wireNone}, nil
	case IndexScan:
		return wirePlan{
			Kind: wireIndex, Op: int(n.Op), Systems: n.Systems,
			Pattern: n.Pattern, Type: n.Type, Source: n.Source, Buckets: n.Buckets,
		}, nil
	case Scan:
		e, err := exprToWire(n.Expr)
		if err != nil {
			return wirePlan{}, err
		}
		return wirePlan{Kind: wireScan, Expr: &e}, nil
	case And:
		kids, err := plansToWire(n.Children)
		return wirePlan{Kind: wireAnd, Kids: kids}, err
	case Or:
		kids, err := plansToWire(n.Children)
		return wirePlan{Kind: wireOr, Kids: kids}, err
	case Not:
		kid, err := planToWire(n.Child)
		return wirePlan{Kind: wireNot, Kids: []wirePlan{kid}}, err
	default:
		return wirePlan{}, fmt.Errorf("engine: plan node %T has no wire form", p)
	}
}

func plansToWire(ps []Plan) ([]wirePlan, error) {
	out := make([]wirePlan, len(ps))
	for i, p := range ps {
		w, err := planToWire(p)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func planFromWire(w wirePlan) (Plan, error) {
	switch w.Kind {
	case wireAll:
		return All{}, nil
	case wireNone:
		return None{}, nil
	case wireIndex:
		if op := IndexOp(w.Op); op < OpCode || op > OpValue {
			return nil, fmt.Errorf("engine: decode plan: unknown index op %d", w.Op)
		}
		p := IndexScan{Op: IndexOp(w.Op), Systems: w.Systems, Pattern: w.Pattern, Type: w.Type, Source: w.Source, Buckets: w.Buckets}
		// A value lookup reads one run of bucket keys below 1<<15, of one sign.
		if b := p.Buckets; p.Op == OpValue && (b[0] > b[1] || b[1] >= 1<<15 || b[0]>>14 != b[1]>>14) {
			return nil, fmt.Errorf("engine: decode plan: value buckets %d-%d are not one run of one sign", b[0], b[1])
		}
		if p.Op == OpCode {
			if err := checkPattern(p.Pattern); err != nil {
				return nil, err
			}
		}
		return p, nil
	case wireScan:
		if w.Expr == nil {
			return nil, fmt.Errorf("engine: decode plan: scan without expression")
		}
		e, err := exprFromWire(*w.Expr)
		if err != nil {
			return nil, err
		}
		return Scan{Expr: e}, nil
	case wireAnd, wireOr:
		kids := make([]Plan, len(w.Kids))
		for i, k := range w.Kids {
			p, err := planFromWire(k)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		if w.Kind == wireAnd {
			return And{Children: kids}, nil
		}
		return Or{Children: kids}, nil
	case wireNot:
		if len(w.Kids) != 1 {
			return nil, fmt.Errorf("engine: decode plan: not with %d children", len(w.Kids))
		}
		kid, err := planFromWire(w.Kids[0])
		if err != nil {
			return nil, err
		}
		return Not{Child: kid}, nil
	default:
		return nil, fmt.Errorf("engine: decode plan: unknown node kind %q", w.Kind)
	}
}

func exprToWire(e query.Expr) (wireExpr, error) {
	switch q := e.(type) {
	case query.TrueExpr:
		return wireExpr{Kind: wireExprTrue}, nil
	case query.And:
		kids, err := exprsToWire([]query.Expr(q))
		return wireExpr{Kind: wireExprAnd, Kids: kids}, err
	case query.Or:
		kids, err := exprsToWire([]query.Expr(q))
		return wireExpr{Kind: wireExprOr, Kids: kids}, err
	case query.Not:
		kid, err := exprToWire(q.E)
		return wireExpr{Kind: wireExprNot, Kids: []wireExpr{kid}}, err
	case query.Has:
		p, err := predToWire(q.Pred)
		if err != nil {
			return wireExpr{}, err
		}
		return wireExpr{Kind: wireExprHas, Pred: &p, MinCount: q.MinCount}, nil
	case query.Sequence:
		steps := make([]wireStep, len(q.Steps))
		for i, st := range q.Steps {
			p, err := predToWire(st.Pred)
			if err != nil {
				return wireExpr{}, err
			}
			steps[i] = wireStep{Pred: p, MinGap: st.MinGap, MaxGap: st.MaxGap}
		}
		return wireExpr{Kind: wireExprSeq, Steps: steps}, nil
	case query.During:
		iv, err := predToWire(q.Interval)
		if err != nil {
			return wireExpr{}, err
		}
		ev, err := predToWire(q.Event)
		if err != nil {
			return wireExpr{}, err
		}
		return wireExpr{Kind: wireExprDur, Interval: &iv, Event: &ev}, nil
	case query.AgeBetween:
		return wireExpr{Kind: wireExprAge, Lo: q.Lo, Hi: q.Hi, At: q.At}, nil
	case query.SexIs:
		return wireExpr{Kind: wireExprSex, Sex: model.Sex(q)}, nil
	default:
		return wireExpr{}, fmt.Errorf("engine: expression %T has no wire form", e)
	}
}

func exprsToWire(es []query.Expr) ([]wireExpr, error) {
	out := make([]wireExpr, len(es))
	for i, e := range es {
		w, err := exprToWire(e)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func exprFromWire(w wireExpr) (query.Expr, error) {
	switch w.Kind {
	case wireExprTrue:
		return query.TrueExpr{}, nil
	case wireExprAnd, wireExprOr:
		kids := make([]query.Expr, len(w.Kids))
		for i, k := range w.Kids {
			e, err := exprFromWire(k)
			if err != nil {
				return nil, err
			}
			kids[i] = e
		}
		if w.Kind == wireExprAnd {
			return query.And(kids), nil
		}
		return query.Or(kids), nil
	case wireExprNot:
		if len(w.Kids) != 1 {
			return nil, fmt.Errorf("engine: decode plan: not-expr with %d children", len(w.Kids))
		}
		kid, err := exprFromWire(w.Kids[0])
		if err != nil {
			return nil, err
		}
		return query.Not{E: kid}, nil
	case wireExprHas:
		if w.Pred == nil {
			return nil, fmt.Errorf("engine: decode plan: has without predicate")
		}
		p, err := predFromWire(*w.Pred)
		if err != nil {
			return nil, err
		}
		return query.Has{Pred: p, MinCount: w.MinCount}, nil
	case wireExprSeq:
		steps := make([]query.Step, len(w.Steps))
		for i, st := range w.Steps {
			p, err := predFromWire(st.Pred)
			if err != nil {
				return nil, err
			}
			steps[i] = query.Step{Pred: p, MinGap: st.MinGap, MaxGap: st.MaxGap}
		}
		return query.Sequence{Steps: steps}, nil
	case wireExprDur:
		if w.Interval == nil || w.Event == nil {
			return nil, fmt.Errorf("engine: decode plan: during without interval/event")
		}
		iv, err := predFromWire(*w.Interval)
		if err != nil {
			return nil, err
		}
		ev, err := predFromWire(*w.Event)
		if err != nil {
			return nil, err
		}
		return query.During{Interval: iv, Event: ev}, nil
	case wireExprAge:
		return query.AgeBetween{Lo: w.Lo, Hi: w.Hi, At: w.At}, nil
	case wireExprSex:
		return query.SexIs(w.Sex), nil
	default:
		return nil, fmt.Errorf("engine: decode plan: unknown expression kind %q", w.Kind)
	}
}

func predToWire(p query.EventPred) (wirePred, error) {
	switch q := p.(type) {
	case *query.Code:
		return wirePred{Kind: wirePredCode, System: q.System, Pattern: q.Pattern}, nil
	case query.TypeIs:
		return wirePred{Kind: wirePredType, Type: model.Type(q)}, nil
	case query.SourceIs:
		return wirePred{Kind: wirePredSource, Source: model.Source(q)}, nil
	case query.KindIs:
		return wirePred{Kind: wirePredKind, EntryKind: model.Kind(q)}, nil
	case query.ValueBetween:
		return wirePred{Kind: wirePredValue, Lo: q.Lo, Hi: q.Hi}, nil
	case query.InPeriod:
		return wirePred{Kind: wirePredPeriod, Period: model.Period(q)}, nil
	case *query.TextMatch:
		return wirePred{Kind: wirePredText, Pattern: q.Pattern}, nil
	case query.AllOf:
		kids, err := predsToWire([]query.EventPred(q))
		return wirePred{Kind: wirePredAll, Kids: kids}, err
	case query.AnyOf:
		kids, err := predsToWire([]query.EventPred(q))
		return wirePred{Kind: wirePredAny, Kids: kids}, err
	case query.NotEv:
		kid, err := predToWire(q.P)
		return wirePred{Kind: wirePredNot, Kids: []wirePred{kid}}, err
	default:
		return wirePred{}, fmt.Errorf("engine: event predicate %T has no wire form", p)
	}
}

func predsToWire(ps []query.EventPred) ([]wirePred, error) {
	out := make([]wirePred, len(ps))
	for i, p := range ps {
		w, err := predToWire(p)
		if err != nil {
			return nil, err
		}
		out[i] = w
	}
	return out, nil
}

func predFromWire(w wirePred) (query.EventPred, error) {
	switch w.Kind {
	case wirePredCode:
		return query.NewCode(w.System, w.Pattern)
	case wirePredType:
		return query.TypeIs(w.Type), nil
	case wirePredSource:
		return query.SourceIs(w.Source), nil
	case wirePredKind:
		return query.KindIs(w.EntryKind), nil
	case wirePredValue:
		return query.ValueBetween{Lo: w.Lo, Hi: w.Hi}, nil
	case wirePredPeriod:
		return query.InPeriod(w.Period), nil
	case wirePredText:
		return query.NewTextMatch(w.Pattern)
	case wirePredAll, wirePredAny:
		kids := make([]query.EventPred, len(w.Kids))
		for i, k := range w.Kids {
			p, err := predFromWire(k)
			if err != nil {
				return nil, err
			}
			kids[i] = p
		}
		if w.Kind == wirePredAll {
			return query.AllOf(kids), nil
		}
		return query.AnyOf(kids), nil
	case wirePredNot:
		if len(w.Kids) != 1 {
			return nil, fmt.Errorf("engine: decode plan: not-pred with %d children", len(w.Kids))
		}
		kid, err := predFromWire(w.Kids[0])
		if err != nil {
			return nil, err
		}
		return query.NotEv{P: kid}, nil
	default:
		return nil, fmt.Errorf("engine: decode plan: unknown predicate kind %q", w.Kind)
	}
}
