package query

import (
	"encoding/json"
	"fmt"

	"pastas/internal/model"
)

// The Query-Builder (Fig. 4). "While being a useful tool for computer
// scientists, general practitioners cannot be expected to be acquainted
// with regular expressions. This means that a graphical user interface is
// needed." Spec is the serializable form that such a GUI edits: a tree of
// operators with regex leaves, which compiles into an Expr. The JSON wire
// form is what the web front end and the cohortctl tool exchange.

// Spec is the JSON-serializable query tree.
type Spec struct {
	// Op: "and", "or", "not", "has", "sequence", "age", "sex", "during",
	// "true".
	Op string `json:"op"`

	// Children of "and"/"or"; exactly one for "not".
	Children []*Spec `json:"children,omitempty"`

	// Leaf fields for "has" (and step predicates inside "sequence").
	System   string `json:"system,omitempty"`   // code system filter
	Pattern  string `json:"pattern,omitempty"`  // anchored code regex
	Type     string `json:"type,omitempty"`     // entry type name
	Source   string `json:"source,omitempty"`   // source name
	Text     string `json:"text,omitempty"`     // free-text regex
	MinCount int    `json:"minCount,omitempty"` // for "has"

	// "sequence" steps.
	Steps      []*Spec `json:"steps,omitempty"`
	MinGapDays int     `json:"minGapDays,omitempty"`
	MaxGapDays int     `json:"maxGapDays,omitempty"`

	// "age".
	LoAge int    `json:"loAge,omitempty"`
	HiAge int    `json:"hiAge,omitempty"`
	AtISO string `json:"at,omitempty"` // YYYY-MM-DD

	// "sex": "F" or "M".
	Sex string `json:"sex,omitempty"`

	// "during": interval predicate and event predicate.
	Interval *Spec `json:"interval,omitempty"`
	Event    *Spec `json:"event,omitempty"`
}

// ParseSpec decodes a JSON query tree.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("query: parse spec: %w", err)
	}
	return &s, nil
}

// MarshalJSONSpec encodes the spec (indented, stable).
func (s *Spec) MarshalJSONSpec() ([]byte, error) {
	return json.MarshalIndent(s, "", "  ")
}

// Compile translates the spec into an executable expression.
func (s *Spec) Compile() (Expr, error) {
	switch s.Op {
	case "true", "":
		return TrueExpr{}, nil
	case "and", "or":
		if len(s.Children) == 0 {
			return nil, fmt.Errorf("query: %s with no children", s.Op)
		}
		kids := make([]Expr, len(s.Children))
		for i, c := range s.Children {
			e, err := c.Compile()
			if err != nil {
				return nil, err
			}
			kids[i] = e
		}
		if s.Op == "and" {
			return And(kids), nil
		}
		return Or(kids), nil
	case "not":
		if len(s.Children) != 1 {
			return nil, fmt.Errorf("query: not requires exactly one child")
		}
		e, err := s.Children[0].Compile()
		if err != nil {
			return nil, err
		}
		return Not{E: e}, nil
	case "has":
		p, err := s.compileEventPred()
		if err != nil {
			return nil, err
		}
		return Has{Pred: p, MinCount: s.MinCount}, nil
	case "sequence":
		if len(s.Steps) == 0 {
			return nil, fmt.Errorf("query: sequence with no steps")
		}
		steps := make([]Step, len(s.Steps))
		for i, sp := range s.Steps {
			p, err := sp.compileEventPred()
			if err != nil {
				return nil, err
			}
			steps[i] = Step{
				Pred:   p,
				MinGap: Days(sp.MinGapDays),
				MaxGap: Days(sp.MaxGapDays),
			}
		}
		return Sequence{Steps: steps}, nil
	case "age":
		at, err := model.ParseDate(s.AtISO)
		if err != nil {
			return nil, fmt.Errorf("query: age: %w", err)
		}
		return AgeBetween{Lo: s.LoAge, Hi: s.HiAge, At: at}, nil
	case "sex":
		switch s.Sex {
		case "F":
			return SexIs(model.SexFemale), nil
		case "M":
			return SexIs(model.SexMale), nil
		default:
			return nil, fmt.Errorf("query: sex must be F or M, got %q", s.Sex)
		}
	case "during":
		if s.Interval == nil || s.Event == nil {
			return nil, fmt.Errorf("query: during requires interval and event")
		}
		iv, err := s.Interval.compileEventPred()
		if err != nil {
			return nil, err
		}
		ev, err := s.Event.compileEventPred()
		if err != nil {
			return nil, err
		}
		return During{Interval: iv, Event: ev}, nil
	default:
		return nil, fmt.Errorf("query: unknown op %q", s.Op)
	}
}

// compileEventPred builds the event predicate described by the leaf fields:
// the conjunction of whichever of pattern/type/source/text are set.
func (s *Spec) compileEventPred() (EventPred, error) {
	var preds AllOf
	if s.Pattern != "" {
		c, err := NewCode(s.System, s.Pattern)
		if err != nil {
			return nil, err
		}
		preds = append(preds, c)
	}
	if s.Type != "" {
		t, err := typeByName(s.Type)
		if err != nil {
			return nil, err
		}
		preds = append(preds, TypeIs(t))
	}
	if s.Source != "" {
		src, err := sourceByName(s.Source)
		if err != nil {
			return nil, err
		}
		preds = append(preds, SourceIs(src))
	}
	if s.Text != "" {
		tm, err := NewTextMatch(s.Text)
		if err != nil {
			return nil, err
		}
		preds = append(preds, tm)
	}
	if len(preds) == 0 {
		return nil, fmt.Errorf("query: predicate with no constraints")
	}
	if len(preds) == 1 {
		return preds[0], nil
	}
	return preds, nil
}

func typeByName(name string) (model.Type, error) {
	for _, t := range model.Types() {
		if t.String() == name {
			return t, nil
		}
	}
	return model.TypeUnknown, fmt.Errorf("query: unknown entry type %q", name)
}

func sourceByName(name string) (model.Source, error) {
	for _, s := range model.Sources() {
		if s.String() == name {
			return s, nil
		}
	}
	return model.SourceUnknown, fmt.Errorf("query: unknown source %q", name)
}

// Builder is the fluent construction API the examples and tests use; it
// accumulates a conjunctive spec the way a user assembles criteria in the
// Query-Builder dialog.
type Builder struct {
	root Spec
}

// NewBuilder starts an empty (match-all) conjunctive query.
func NewBuilder() *Builder {
	return &Builder{root: Spec{Op: "and"}}
}

// HasCode adds "has a code matching pattern" (any system).
func (b *Builder) HasCode(pattern string) *Builder {
	return b.add(&Spec{Op: "has", Pattern: pattern, Type: "diagnosis"})
}

// HasCodeIn adds a system-scoped code criterion.
func (b *Builder) HasCodeIn(system, pattern string) *Builder {
	return b.add(&Spec{Op: "has", System: system, Pattern: pattern, Type: "diagnosis"})
}

// MinContacts adds "at least n contacts from source".
func (b *Builder) MinContacts(source string, n int) *Builder {
	return b.add(&Spec{Op: "has", Type: "contact", Source: source, MinCount: n})
}

// AgeBetween adds an age criterion at the given date.
func (b *Builder) AgeBetween(lo, hi int, atISO string) *Builder {
	return b.add(&Spec{Op: "age", LoAge: lo, HiAge: hi, AtISO: atISO})
}

// Add appends an arbitrary sub-spec.
func (b *Builder) Add(s *Spec) *Builder { return b.add(s) }

func (b *Builder) add(s *Spec) *Builder {
	b.root.Children = append(b.root.Children, s)
	return b
}

// Spec returns the accumulated tree.
func (b *Builder) Spec() *Spec {
	if len(b.root.Children) == 0 {
		return &Spec{Op: "true"}
	}
	return &b.root
}

// Compile compiles the accumulated tree.
func (b *Builder) Compile() (Expr, error) { return b.Spec().Compile() }
