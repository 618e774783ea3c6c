package query

import (
	"fmt"
	"strings"

	"pastas/internal/model"
)

// Expr decides whether a whole history belongs to a cohort. The language is
// closed — only this package's nine types implement it — so String can key
// every cache; a new criterion is a type here and a wire tag in the engine.
type Expr interface {
	Eval(h *model.History) bool
	String() string
	isExpr()
}

func (Has) isExpr()        {}
func (And) isExpr()        {}
func (Or) isExpr()         {}
func (Not) isExpr()        {}
func (AgeBetween) isExpr() {}
func (SexIs) isExpr()      {}
func (TrueExpr) isExpr()   {}
func (During) isExpr()     {}
func (Sequence) isExpr()   {}

// Has matches histories with at least MinCount entries satisfying Pred
// (MinCount 0 is treated as 1).
type Has struct {
	Pred     EventPred
	MinCount int
}

func (q Has) Eval(h *model.History) bool {
	need := q.MinCount
	if need <= 0 {
		need = 1
	}
	seen := 0
	for i := range h.Entries {
		if q.Pred.Match(&h.Entries[i]) {
			seen++
			if seen >= need {
				return true
			}
		}
	}
	return false
}

func (q Has) String() string {
	if q.MinCount > 1 {
		return fmt.Sprintf("has>=%d(%s)", q.MinCount, q.Pred)
	}
	return fmt.Sprintf("has(%s)", q.Pred)
}

// And matches histories satisfying every child.
type And []Expr

func (a And) Eval(h *model.History) bool {
	for _, e := range a {
		if !e.Eval(h) {
			return false
		}
	}
	return true
}

func (a And) String() string { return "(" + joinExprs([]Expr(a), " AND ") + ")" }

// Or matches histories satisfying at least one child.
type Or []Expr

func (o Or) Eval(h *model.History) bool {
	for _, e := range o {
		if e.Eval(h) {
			return true
		}
	}
	return false
}

func (o Or) String() string { return "(" + joinExprs([]Expr(o), " OR ") + ")" }

// Not inverts a history expression.
type Not struct{ E Expr }

func (n Not) Eval(h *model.History) bool { return !n.E.Eval(h) }
func (n Not) String() string             { return "NOT " + n.E.String() }

// AgeBetween matches patients aged [Lo, Hi] (inclusive) at time At.
type AgeBetween struct {
	Lo, Hi int
	At     model.Time
}

func (a AgeBetween) Eval(h *model.History) bool {
	age := h.Patient.AgeAt(a.At)
	return age >= a.Lo && age <= a.Hi
}

func (a AgeBetween) String() string {
	return fmt.Sprintf("age in [%d,%d] at %s", a.Lo, a.Hi, a.At)
}

// SexIs matches patients of the given sex.
type SexIs model.Sex

func (s SexIs) Eval(h *model.History) bool { return h.Patient.Sex == model.Sex(s) }
func (s SexIs) String() string             { return "sex=" + model.Sex(s).String() }

// TrueExpr matches everything; the neutral element for builders.
type TrueExpr struct{}

func (TrueExpr) Eval(*model.History) bool { return true }
func (TrueExpr) String() string           { return "true" }

// During matches histories where some entry satisfying Event happens inside
// some interval entry satisfying Interval (e.g. a diagnosis during a
// hospital stay).
type During struct {
	Interval EventPred
	Event    EventPred
}

func (d During) Eval(h *model.History) bool {
	for i := range h.Entries {
		iv := &h.Entries[i]
		if iv.Kind != model.Interval || !d.Interval.Match(iv) {
			continue
		}
		p := iv.Period()
		for j := range h.Entries {
			e := &h.Entries[j]
			if e.Kind != model.Point || !d.Event.Match(e) {
				continue
			}
			if p.Contains(e.Start) {
				return true
			}
		}
	}
	return false
}

func (d During) String() string {
	return fmt.Sprintf("during(%s, %s)", d.Interval, d.Event)
}

func joinExprs(es []Expr, sep string) string {
	parts := make([]string, len(es))
	for i, e := range es {
		parts[i] = e.String()
	}
	return strings.Join(parts, sep)
}

// Select returns the patients (in collection order) whose histories satisfy
// the expression — plain scan evaluation; see EvalIndexed for the
// index-accelerated variant.
func Select(col *model.Collection, e Expr) []model.PatientID {
	var out []model.PatientID
	for _, h := range col.Histories() {
		if e.Eval(h) {
			out = append(out, h.Patient.ID)
		}
	}
	return out
}

// Filter returns the sub-collection satisfying the expression.
func Filter(col *model.Collection, e Expr) *model.Collection {
	return col.Filter(func(h *model.History) bool { return e.Eval(h) })
}

// FilterEvents returns a copy of the history keeping only entries matching
// pred — the paper's show/hide event filtering in the timeline view.
func FilterEvents(h *model.History, pred EventPred) *model.History {
	out := model.NewHistory(h.Patient)
	for i := range h.Entries {
		if pred.Match(&h.Entries[i]) {
			out.Add(h.Entries[i])
		}
	}
	out.Sort()
	return out
}
