package temporal

import (
	"testing"

	"pastas/internal/model"
)

func TestSolveAlreadyBasic(t *testing.T) {
	net := exactNetwork([]string{"a", "b"}, []model.Period{p(0, 10), p(20, 30)})
	s := net.Solve()
	if s == nil {
		t.Fatal("exact network unsolvable")
	}
	if s.Relation(0, 1) != Before {
		t.Errorf("scenario relation = %v", s.Relation(0, 1))
	}
}

func TestSolvePicksConsistentLabeling(t *testing.T) {
	// A before B, C unconstrained: Solve must return all-basic edges.
	net := NewNetwork("A", "B", "C")
	net.Constrain(0, 1, Before)
	s := net.Solve()
	if s == nil {
		t.Fatal("satisfiable network unsolved")
	}
	for i := 0; i < 3; i++ {
		for j := i + 1; j < 3; j++ {
			if !s.Relation(i, j).IsBasic() {
				t.Errorf("edge %d-%d not basic: %v", i, j, s.Relation(i, j))
			}
		}
	}
	// The solved scenario itself must be path-consistent.
	if !s.Clone().PathConsistency() {
		t.Error("scenario not path-consistent")
	}
	if s.Relation(0, 1) != Before {
		t.Error("solver changed a fixed edge")
	}
}

func TestSolveUnsatisfiable(t *testing.T) {
	net := NewNetwork("A", "B", "C")
	net.Constrain(0, 1, Before)
	net.Constrain(1, 2, Before)
	net.Constrain(2, 0, Before)
	if net.Solve() != nil {
		t.Error("inconsistent cycle solved")
	}
	if net.Satisfiable() {
		t.Error("Satisfiable true for cycle")
	}
}

func TestSolveRequiresSearchBeyondPC(t *testing.T) {
	// A disjunctive network PC alone does not finish: A {before,after} B,
	// B {before,after} C, A {before,after} C — satisfiable, needs labeling.
	net := NewNetwork("A", "B", "C")
	net.Constrain(0, 1, Before|After)
	net.Constrain(1, 2, Before|After)
	net.Constrain(0, 2, Before|After)
	s := net.Solve()
	if s == nil {
		t.Fatal("satisfiable disjunctive network unsolved")
	}
	// Transitivity must hold in the found scenario.
	ab, bc, ac := s.Relation(0, 1), s.Relation(1, 2), s.Relation(0, 2)
	if ab == Before && bc == Before && ac != Before {
		t.Error("scenario violates transitivity")
	}
	if ab == After && bc == After && ac != After {
		t.Error("scenario violates transitivity")
	}
}

func TestSolveDoesNotMutateInput(t *testing.T) {
	net := NewNetwork("A", "B")
	net.Constrain(0, 1, Before|After)
	_ = net.Solve()
	if net.Relation(0, 1) != Before|After {
		t.Error("Solve mutated its input")
	}
}

func TestSolveEpisodeScale(t *testing.T) {
	// An 8-interval network with half its edges erased must still solve
	// quickly (propagation prunes the search).
	periods := make([]model.Period, 8)
	names := make([]string, 8)
	for i := range periods {
		start := model.Time(i) * 100
		periods[i] = model.Period{Start: start, End: start + 150} // overlapping chain
		names[i] = string(rune('A' + i))
	}
	net := exactNetwork(names, periods)
	for i := 0; i < 8; i++ {
		for j := i + 2; j < 8; j++ {
			net.Erase(i, j)
		}
	}
	s := net.Solve()
	if s == nil {
		t.Fatal("erased chain unsolvable")
	}
	// Kept edges survive.
	if s.Relation(0, 1) != Overlaps {
		t.Errorf("kept edge changed: %v", s.Relation(0, 1))
	}
}
