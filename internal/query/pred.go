// Package query implements the workbench's query layer: event-level
// predicates, a history-level expression AST, temporal-pattern search with
// gap constraints, and the serializable Query-Builder (Fig. 4) that fronts
// it all — regular expressions over the code hierarchies being the central
// device ("with a regular expression one may easily refer to any branch of
// the hierarchies ... combined using the disjunctive construct").
package query

import (
	"fmt"
	"regexp"
	"strings"

	"pastas/internal/model"
	"pastas/internal/terminology"
)

// EventPred decides whether a single entry matches.
type EventPred interface {
	Match(e *model.Entry) bool
	String() string
}

// Code matches entries whose code (in System; "" = any system) matches the
// anchored regular expression.
type Code struct {
	System  string
	Pattern string
	re      *regexp.Regexp
}

// NewCode compiles a code predicate.
func NewCode(system, pattern string) (*Code, error) {
	re, err := terminology.CompileCodePattern(pattern)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return &Code{System: system, Pattern: pattern, re: re}, nil
}

// MustCode is NewCode panicking on bad patterns; for literals in code.
func MustCode(system, pattern string) *Code {
	c, err := NewCode(system, pattern)
	if err != nil {
		panic(err)
	}
	return c
}

func (c *Code) Match(e *model.Entry) bool { return c.MatchCode(e.Code) }

// MatchCode is Match on a code alone: the test a scan over interned codes
// runs once per distinct code instead of once per entry.
func (c *Code) MatchCode(code model.Code) bool {
	if code.IsZero() {
		return false
	}
	if c.System != "" && code.System != c.System {
		return false
	}
	return c.re.MatchString(code.Value)
}

func (c *Code) String() string {
	if c.System == "" {
		return fmt.Sprintf("code~%q", c.Pattern)
	}
	return fmt.Sprintf("%s~%q", c.System, c.Pattern)
}

// TypeIs matches entries of one type.
type TypeIs model.Type

func (t TypeIs) Match(e *model.Entry) bool { return e.Type == model.Type(t) }
func (t TypeIs) String() string            { return "type=" + model.Type(t).String() }

// SourceIs matches entries from one source.
type SourceIs model.Source

func (s SourceIs) Match(e *model.Entry) bool { return e.Source == model.Source(s) }
func (s SourceIs) String() string            { return "source=" + model.Source(s).String() }

// KindIs matches point or interval entries.
type KindIs model.Kind

func (k KindIs) Match(e *model.Entry) bool { return e.Kind == model.Kind(k) }
func (k KindIs) String() string            { return "kind=" + model.Kind(k).String() }

// ValueBetween matches entries with Value in [Lo, Hi].
type ValueBetween struct {
	Lo, Hi float64
}

func (v ValueBetween) Match(e *model.Entry) bool { return e.Value >= v.Lo && e.Value <= v.Hi }
func (v ValueBetween) String() string            { return fmt.Sprintf("value in [%g,%g]", v.Lo, v.Hi) }

// InPeriod matches entries intersecting the period (point events by
// containment, intervals by overlap).
type InPeriod model.Period

func (p InPeriod) Match(e *model.Entry) bool {
	pp := model.Period(p)
	if e.Kind == model.Point {
		return pp.Contains(e.Start)
	}
	return pp.Overlaps(e.Period())
}

func (p InPeriod) String() string { return "in " + model.Period(p).String() }

// TextMatch matches entries whose free text matches an (unanchored)
// regular expression — the paper's limited free-text querying.
type TextMatch struct {
	Pattern string
	re      *regexp.Regexp
}

// NewTextMatch compiles a text predicate.
func NewTextMatch(pattern string) (*TextMatch, error) {
	re, err := regexp.Compile(pattern)
	if err != nil {
		return nil, fmt.Errorf("query: text pattern %q: %w", pattern, err)
	}
	return &TextMatch{Pattern: pattern, re: re}, nil
}

func (t *TextMatch) Match(e *model.Entry) bool { return t.re.MatchString(e.Text) }
func (t *TextMatch) String() string            { return fmt.Sprintf("text~%q", t.Pattern) }

// AllOf matches entries satisfying every child predicate.
type AllOf []EventPred

func (a AllOf) Match(e *model.Entry) bool {
	for _, p := range a {
		if !p.Match(e) {
			return false
		}
	}
	return true
}

func (a AllOf) String() string { return "(" + joinPreds([]EventPred(a), " & ") + ")" }

// AnyOf matches entries satisfying at least one child predicate.
type AnyOf []EventPred

func (a AnyOf) Match(e *model.Entry) bool {
	for _, p := range a {
		if p.Match(e) {
			return true
		}
	}
	return false
}

func (a AnyOf) String() string { return "(" + joinPreds([]EventPred(a), " | ") + ")" }

// NotEv inverts an event predicate.
type NotEv struct{ P EventPred }

func (n NotEv) Match(e *model.Entry) bool { return !n.P.Match(e) }
func (n NotEv) String() string            { return "!" + n.P.String() }

func joinPreds(ps []EventPred, sep string) string {
	parts := make([]string, len(ps))
	for i, p := range ps {
		parts[i] = p.String()
	}
	return strings.Join(parts, sep)
}
