package temporal

import (
	"testing"

	"pastas/internal/abstraction"
	"pastas/internal/model"
)

func p(a, b model.Time) model.Period { return model.Period{Start: a, End: b} }

func TestBetweenAllThirteen(t *testing.T) {
	cases := []struct {
		a, b model.Period
		want Rel
	}{
		{p(0, 1), p(2, 3), Before},
		{p(0, 2), p(2, 3), Meets},
		{p(0, 3), p(2, 5), Overlaps},
		{p(0, 2), p(0, 5), Starts},
		{p(2, 3), p(0, 5), During},
		{p(3, 5), p(0, 5), Finishes},
		{p(0, 5), p(0, 5), Equal},
		{p(0, 5), p(3, 5), FinishedBy},
		{p(0, 5), p(2, 3), Contains},
		{p(0, 5), p(0, 2), StartedBy},
		{p(2, 5), p(0, 3), OverlappedBy},
		{p(2, 3), p(0, 2), MetBy},
		{p(2, 3), p(0, 1), After},
	}
	seen := Rel(0)
	for _, c := range cases {
		got := Between(c.a, c.b)
		if got != c.want {
			t.Errorf("Between(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
		seen |= got
	}
	if seen != Full {
		t.Error("test cases do not cover all 13 relations")
	}
}

func TestConverse(t *testing.T) {
	for _, b := range Basics() {
		if Converse(Converse(b)) != b {
			t.Errorf("converse not involutive for %v", b)
		}
	}
	if Converse(Before) != After || Converse(Equal) != Equal {
		t.Error("converse values wrong")
	}
	if Converse(Full) != Full {
		t.Error("converse of Full must be Full")
	}
	// Converse must agree with swapped Between.
	a, b := p(0, 3), p(2, 5)
	if Converse(Between(a, b)) != Between(b, a) {
		t.Error("converse disagrees with Between")
	}
}

// TestCompositionAgainstBruteForce verifies the derived 13×13 composition
// table against exhaustive enumeration of concrete configurations over a
// small integer domain (8 endpoint values suffice to realize every ordering
// of six endpoints).
func TestCompositionAgainstBruteForce(t *testing.T) {
	var intervals []model.Period
	const dom = 8
	for s := model.Time(0); s < dom; s++ {
		for e := s + 1; e <= dom; e++ {
			intervals = append(intervals, p(s, e))
		}
	}
	brute := map[[2]Rel]Rel{}
	for _, A := range intervals {
		for _, B := range intervals {
			r1 := Between(A, B)
			for _, C := range intervals {
				r2 := Between(B, C)
				brute[[2]Rel{r1, r2}] |= Between(A, C)
			}
		}
	}
	for _, r1 := range Basics() {
		for _, r2 := range Basics() {
			want := brute[[2]Rel{r1, r2}]
			got := Compose(r1, r2)
			if got != want {
				t.Errorf("Compose(%v,%v) = %v, want %v", r1, r2, got, want)
			}
		}
	}
}

func TestCompositionIdentities(t *testing.T) {
	// Published table entries.
	if Compose(Before, Before) != Before {
		t.Error("b∘b must be b")
	}
	if Compose(Meets, Meets) != Before {
		t.Error("m∘m must be b")
	}
	if Compose(During, During) != During {
		t.Error("d∘d must be d")
	}
	for _, r := range Basics() {
		if Compose(Equal, r) != r || Compose(r, Equal) != r {
			t.Errorf("e is not neutral for %v", r)
		}
	}
	// Converse anti-homomorphism: (r1∘r2)⁻¹ = r2⁻¹∘r1⁻¹.
	for _, r1 := range Basics() {
		for _, r2 := range Basics() {
			if Converse(Compose(r1, r2)) != Compose(Converse(r2), Converse(r1)) {
				t.Fatalf("converse anti-homomorphism fails at %v,%v", r1, r2)
			}
		}
	}
	// o∘o is the published {b,m,o}.
	if got := Compose(Overlaps, Overlaps); got != Before|Meets|Overlaps {
		t.Errorf("o∘o = %v", got)
	}
	// b∘bi is the full relation.
	if Compose(Before, After) != Full {
		t.Error("b∘bi must be ⊤")
	}
}

func TestRelHelpers(t *testing.T) {
	r := Before | Meets
	if !r.Has(Before) || r.Has(After) || r.Count() != 2 {
		t.Error("Rel helpers broken")
	}
	if !Before.IsBasic() || r.IsBasic() || None.IsBasic() {
		t.Error("IsBasic broken")
	}
	if None.String() != "⊥" || Full.String() != "⊤" {
		t.Error("extreme stringers broken")
	}
	if r.String() != "{b,m}" {
		t.Errorf("stringer = %q", r.String())
	}
	if len(Basics()) != 13 {
		t.Error("Basics length wrong")
	}
}

func TestNetworkConsistentChain(t *testing.T) {
	// A meets B, B meets C ⇒ A before C must be inferable.
	net := NewNetwork("A", "B", "C")
	net.Constrain(0, 1, Meets)
	net.Constrain(1, 2, Meets)
	if !net.PathConsistency() {
		t.Fatal("consistent network reported inconsistent")
	}
	if got := net.Relation(0, 2); got != Before {
		t.Errorf("inferred A?C = %v, want b", got)
	}
}

func TestNetworkInconsistency(t *testing.T) {
	// A before B, B before C, C before A is a cycle: inconsistent.
	net := NewNetwork("A", "B", "C")
	net.Constrain(0, 1, Before)
	net.Constrain(1, 2, Before)
	net.Constrain(2, 0, Before)
	if net.PathConsistency() {
		t.Error("inconsistent cycle accepted")
	}
}

func TestConstrainDirectConflict(t *testing.T) {
	net := NewNetwork("A", "B")
	if !net.Constrain(0, 1, Before) {
		t.Fatal("first constrain failed")
	}
	if net.Constrain(0, 1, After) {
		t.Error("contradictory constrain must report empty")
	}
}

func TestFromPeriodsAndErase(t *testing.T) {
	names := []string{"admission", "homecare", "rehab"}
	periods := []model.Period{p(0, 10), p(10, 100), p(20, 50)}
	net := exactNetwork(names, periods)
	if net.Relation(0, 1) != Meets {
		t.Errorf("admission vs homecare = %v", net.Relation(0, 1))
	}
	if net.Relation(2, 1) != During {
		t.Errorf("rehab vs homecare = %v", net.Relation(2, 1))
	}

	// Erase admission-rehab and recover it by propagation:
	// admission meets homecare, rehab during homecare gives a disjunction
	// containing before (the true relation).
	truth := net.Relation(0, 2)
	net.Erase(0, 2)
	if net.Relation(0, 2) != Full {
		t.Error("erase did not clear edge")
	}
	if !net.PathConsistency() {
		t.Fatal("network became inconsistent")
	}
	if !net.Relation(0, 2).Has(truth) {
		t.Errorf("propagation lost the true relation: %v missing %v", net.Relation(0, 2), truth)
	}
	if net.Relation(0, 2) == Full {
		t.Error("propagation inferred nothing")
	}
}

// exactNetwork builds the fully specified network over named periods.
func exactNetwork(names []string, periods []model.Period) *Network {
	net := NewNetwork(names...)
	for i := range periods {
		for j := range periods {
			if i != j {
				net.Constrain(i, j, Between(periods[i], periods[j]))
			}
		}
	}
	return net
}

func TestFromEpisodes(t *testing.T) {
	h := model.NewHistory(model.Patient{ID: 1, Birth: 0})
	d0 := model.Date(2010, 1, 1)
	h.Add(model.Entry{ID: 1, Kind: model.Interval, Start: d0, End: d0.AddDays(10), Type: model.TypeStay, Source: model.SourceHospital})
	h.Add(model.Entry{ID: 2, Kind: model.Point, Start: d0.AddDays(60), End: d0.AddDays(60), Type: model.TypeContact, Source: model.SourceGP})
	h.Sort()
	eps := abstraction.Episodes(h, 14*model.Day)
	if len(eps) != 2 {
		t.Fatalf("episodes = %d", len(eps))
	}
	net := FromEpisodes(eps)
	if net.Size() != 2 {
		t.Fatal("network size wrong")
	}
	if net.Relation(0, 1) != Before {
		t.Errorf("episode relation = %v", net.Relation(0, 1))
	}
	if !net.PathConsistency() {
		t.Error("exact network must be consistent")
	}
}

func TestNetworkClone(t *testing.T) {
	net := NewNetwork("A", "B")
	net.Constrain(0, 1, Before)
	c := net.Clone()
	c.Constrain(0, 1, After) // empties the clone's edge
	if net.Relation(0, 1) != Before {
		t.Error("clone shares storage")
	}
	if c.names[0] != "A" {
		t.Error("clone lost names")
	}
}
