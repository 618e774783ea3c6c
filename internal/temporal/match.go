package temporal

// Per-history scenario matching — the map step of the distributed
// analytics tier. A scenario names a sequence of episode steps (chapter
// labels of the dominant diagnosis) and constrains pairs of them with
// Allen relations; a history matches when its episodes bind to the steps
// and the observed interval network, tightened by the constraints, still
// has a consistent scenario. Matching is per history and returns integer
// tallies, so shards run it server-side over only masked-in histories and
// the partials merge exactly.

import (
	"fmt"
	"slices"
	"strings"

	"pastas/internal/abstraction"
)

// relNames maps every accepted spelling of a basic relation — the short
// Allen mnemonics the String form prints and the long aliases API and
// CLI callers write — to its bit.
var relNames = map[string]Rel{
	"b": Before, "before": Before,
	"m": Meets, "meets": Meets,
	"o": Overlaps, "overlaps": Overlaps,
	"s": Starts, "starts": Starts,
	"d": During, "during": During,
	"f": Finishes, "finishes": Finishes,
	"e": Equal, "equal": Equal, "equals": Equal,
	"fi": FinishedBy, "finished-by": FinishedBy,
	"di": Contains, "contains": Contains,
	"si": StartedBy, "started-by": StartedBy,
	"oi": OverlappedBy, "overlapped-by": OverlappedBy,
	"mi": MetBy, "met-by": MetBy,
	"bi": After, "after": After,
}

// ParseRel parses a relation set written as comma-separated relation
// names — short mnemonics ("b,m") or long aliases ("before,meets") — into
// the union of their bits. The empty string is rejected: an absent
// constraint should be expressed by omitting the relation, not by an
// accidental ⊥ or ⊤.
func ParseRel(s string) (Rel, error) {
	var out Rel
	for _, tok := range strings.Split(s, ",") {
		tok = strings.TrimSpace(strings.ToLower(tok))
		if tok == "" {
			return None, fmt.Errorf("temporal: empty relation name in %q", s)
		}
		r, ok := relNames[tok]
		if !ok {
			return None, fmt.Errorf("temporal: unknown relation %q (want e.g. before, meets, overlaps, during)", tok)
		}
		out |= r
	}
	return out, nil
}

// StepRel constrains scenario steps I and J (0-based) with an Allen
// relation set: the episode bound to step I must relate to step J's by
// one of the basic relations in Rel.
type StepRel struct {
	I, J int
	Rel  Rel
}

// Scenario is a temporal pattern over episode steps. Steps are chapter
// labels matched against the chapter of an episode's dominant diagnosis
// (or the raw code value when the chapter is unknown); each step binds to
// the earliest unbound episode with that label, in step order.
type Scenario struct {
	Steps     []string
	Relations []StepRel
}

// Validate rejects scenarios that could not possibly match or would
// index out of range — the loud-error half of the hostile-params
// contract: a malformed scenario never panics mid-map.
func (s Scenario) Validate() error {
	if len(s.Steps) == 0 {
		return fmt.Errorf("temporal: scenario has no steps")
	}
	for i, st := range s.Steps {
		if st == "" {
			return fmt.Errorf("temporal: scenario step %d is empty", i)
		}
	}
	for _, r := range s.Relations {
		if r.I < 0 || r.I >= len(s.Steps) || r.J < 0 || r.J >= len(s.Steps) {
			return fmt.Errorf("temporal: relation references step %d..%d, scenario has %d steps", r.I, r.J, len(s.Steps))
		}
		if r.I == r.J {
			return fmt.Errorf("temporal: relation constrains step %d against itself", r.I)
		}
		if r.Rel == None || r.Rel > Full {
			return fmt.Errorf("temporal: relation %d-%d carries invalid relation set %#x", r.I, r.J, uint16(r.Rel))
		}
	}
	return nil
}

// MatchEpisodes binds the scenario's steps to a history's episodes and
// checks the constraints. bound reports whether every step found an
// episode; matched whether the bound intervals satisfy the relations
// (path consistency plus the complete backtracking check). The binding is
// deterministic — step k takes the earliest episode with its label not
// claimed by steps 0..k-1 — so a distributed match tallies exactly what a
// local pass would.
func (s Scenario) MatchEpisodes(eps []abstraction.Episode) (bound, matched bool) {
	// Most histories fail to bind, and they should cost the map step no
	// allocation: the binding lives on the stack up to eight steps.
	var few [8]int
	chosen := few[:0]
	for _, step := range s.Steps {
		found := -1
		for i := range eps {
			if eps[i].Label == step && !slices.Contains(chosen, i) {
				found = i
				break
			}
		}
		if found < 0 {
			return false, false
		}
		chosen = append(chosen, found)
	}
	net := NewNetwork(s.Steps...)
	for i := range s.Steps {
		for j := range s.Steps {
			if i == j {
				continue
			}
			if !net.Constrain(i, j, Between(eps[chosen[i]].Period, eps[chosen[j]].Period)) {
				return true, false
			}
		}
	}
	for _, r := range s.Relations {
		if !net.Constrain(r.I, r.J, r.Rel) {
			return true, false
		}
	}
	return true, net.Satisfiable()
}

// ScenarioTally is the mergeable map-step partial for distributed
// scenario matching: pure integer sums over disjoint history sets.
type ScenarioTally struct {
	// Histories is how many histories were tallied; Bound how many had an
	// episode for every step; Matched how many satisfied the relations.
	Histories int
	Bound     int
	Matched   int
}

// Add folds one history's match outcome into the tally.
func (t *ScenarioTally) Add(bound, matched bool) {
	t.Histories++
	if bound {
		t.Bound++
	}
	if matched {
		t.Matched++
	}
}

// Merge folds another partial into the receiver.
func (t *ScenarioTally) Merge(o *ScenarioTally) {
	if o == nil {
		return
	}
	t.Histories += o.Histories
	t.Bound += o.Bound
	t.Matched += o.Matched
}

// HistoryCount reports how many histories the partial tallied.
func (t *ScenarioTally) HistoryCount() int { return t.Histories }
