package query

import (
	"pastas/internal/model"
	"pastas/internal/store"
)

// Index-accelerated evaluation. The plain evaluator scans every entry of
// every history; at the paper's scale (100,000+ individuals) interactive
// filtering needs better. EvalIndexed rewrites the boolean skeleton of an
// expression into bitset algebra and answers single-code Has leaves from
// the store's inverted index, falling back to a per-history scan only for
// the sub-expressions the indexes cannot answer (counting, sequences,
// during). The E3 ablation benchmarks this against the scan evaluator.
//
// EvalIndexed is the legacy single-store interpreter, kept as the
// compatibility surface and as the reference the engine's parity tests
// compare against. New code should run queries through internal/engine
// (or Workbench.Query), which adds plan rewrites, sharded fan-out,
// candidate masking and a plan cache; engine cannot be re-exported here
// without an import cycle, hence the retained implementation.

// EvalIndexed evaluates the expression over the store, returning the
// matching patients as a bitset.
func EvalIndexed(s *store.Store, e Expr) (*store.Bitset, error) {
	switch q := e.(type) {
	case TrueExpr:
		return s.All(), nil
	case And:
		out := s.All()
		for _, child := range q {
			b, err := EvalIndexed(s, child)
			if err != nil {
				return nil, err
			}
			out.And(b)
		}
		return out, nil
	case Or:
		out := s.Empty()
		for _, child := range q {
			b, err := EvalIndexed(s, child)
			if err != nil {
				return nil, err
			}
			out.Or(b)
		}
		return out, nil
	case Not:
		b, err := EvalIndexed(s, q.E)
		if err != nil {
			return nil, err
		}
		return b.Not(), nil
	case Has:
		if b, ok := hasFromIndex(s, q); ok {
			return b, nil
		}
	}
	// Fallback: per-history scan of this sub-expression.
	return s.Where(func(h *model.History) bool { return e.Eval(h) }), nil
}

// HasIndexKind says which inverted index answers a Has leaf.
type HasIndexKind int

const (
	// HasIndexCode: the code index, over HasIndexing.Systems.
	HasIndexCode HasIndexKind = iota
	// HasIndexType: the entry-type index.
	HasIndexType
	// HasIndexSource: the source index.
	HasIndexSource
)

// HasIndexing describes how a Has leaf maps onto the store's inverted
// indexes; produced by ClassifyHas.
type HasIndexing struct {
	Kind HasIndexKind
	// Systems restricts a code lookup; empty means any system.
	Systems []string
	Pattern string
	Type    model.Type
	Source  model.Source
}

// ClassifyHas reports whether a Has leaf is answerable exactly from the
// inverted indexes, and how. This single classification backs both the
// legacy interpreter below and the engine's plan compiler, so the two can
// never drift.
//
// Single-code, type and source predicates with MinCount <= 1 are always
// exact. Has(TypeIs(t) & Code) is exact only when the code systems
// reachable under the type constraint make the patient-level answer
// exact:
//   - diagnosis + ICPC2/ICD10: ICPC-2 codes only occur on diagnosis
//     entries; ICD-10 codes also occur on stay entries, but integration
//     always emits a same-coded diagnosis entry alongside each stay, so
//     the patient-level sets coincide.
//   - medication + ATC: ATC codes only occur on medications.
//
// Everything else falls back to the scan.
func ClassifyHas(q Has) (HasIndexing, bool) {
	if q.MinCount > 1 {
		return HasIndexing{}, false
	}
	switch p := q.Pred.(type) {
	case *Code:
		var systems []string
		if p.System != "" {
			systems = []string{p.System}
		}
		return HasIndexing{Kind: HasIndexCode, Systems: systems, Pattern: p.Pattern}, true
	case TypeIs:
		return HasIndexing{Kind: HasIndexType, Type: model.Type(p)}, true
	case SourceIs:
		return HasIndexing{Kind: HasIndexSource, Source: model.Source(p)}, true
	case AllOf:
		var code *Code
		var typ *model.Type
		for _, atom := range p {
			switch a := atom.(type) {
			case *Code:
				if code != nil {
					return HasIndexing{}, false
				}
				code = a
			case TypeIs:
				if typ != nil {
					return HasIndexing{}, false
				}
				t := model.Type(a)
				typ = &t
			default:
				return HasIndexing{}, false
			}
		}
		if code == nil || typ == nil {
			return HasIndexing{}, false
		}
		var systems []string
		switch *typ {
		case model.TypeDiagnosis:
			switch code.System {
			case "ICPC2", "ICD10":
				systems = []string{code.System}
			case "":
				systems = []string{"ICPC2", "ICD10"}
			default:
				return HasIndexing{}, false
			}
		case model.TypeMedication:
			if code.System != "ATC" && code.System != "" {
				return HasIndexing{}, false
			}
			systems = []string{"ATC"}
		default:
			return HasIndexing{}, false
		}
		return HasIndexing{Kind: HasIndexCode, Systems: systems, Pattern: code.Pattern}, true
	}
	return HasIndexing{}, false
}

// hasFromIndex answers index-answerable Has leaves (per ClassifyHas)
// straight from the inverted indexes.
func hasFromIndex(s *store.Store, q Has) (*store.Bitset, bool) {
	ix, ok := ClassifyHas(q)
	if !ok {
		return nil, false
	}
	switch ix.Kind {
	case HasIndexType:
		return s.WithType(ix.Type), true
	case HasIndexSource:
		return s.WithSource(ix.Source), true
	default:
		if len(ix.Systems) == 0 {
			b, err := s.WithCodeRegex("", ix.Pattern)
			if err != nil {
				return nil, false
			}
			return b, true
		}
		out := s.Empty()
		for _, sys := range ix.Systems {
			b, err := s.WithCodeRegex(sys, ix.Pattern)
			if err != nil {
				return nil, false
			}
			out.Or(b)
		}
		return out, true
	}
}
