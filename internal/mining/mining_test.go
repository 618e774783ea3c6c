package mining

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// Population: T90 and K86 strongly associated; R74 independent noise.
func assocSeqs() [][]string {
	return [][]string{
		{"T90", "K86"},
		{"T90", "K86", "R74"},
		{"K86", "T90"},
		{"T90", "K86"},
		{"R74"},
		{"L03", "R74"},
		{"T90", "K86", "F83"},
		{"U71"},
	}
}

func findRule(rs []Rule, a, b string) *Rule {
	for i := range rs {
		if rs[i].A == a && rs[i].B == b {
			return &rs[i]
		}
	}
	return nil
}

func TestCoOccurrenceCounts(t *testing.T) {
	rules := CoOccurrence(assocSeqs(), Options{MinSupport: 0.1})
	r := findRule(rules, "K86", "T90")
	if r == nil {
		t.Fatalf("K86∧T90 not mined: %v", rules)
	}
	if r.CountPair != 5 || r.N != 8 {
		t.Errorf("counts = %d/%d", r.CountPair, r.N)
	}
	if math.Abs(r.Support-5.0/8) > 1e-9 {
		t.Errorf("support = %f", r.Support)
	}
	if math.Abs(r.Confidence-1.0) > 1e-9 { // K86 always with T90
		t.Errorf("confidence = %f", r.Confidence)
	}
	wantLift := 1.0 / (5.0 / 8.0)
	if math.Abs(r.Lift-wantLift) > 1e-9 {
		t.Errorf("lift = %f, want %f", r.Lift, wantLift)
	}
}

func TestCoOccurrenceThresholds(t *testing.T) {
	// High support threshold prunes everything but the strong pair.
	rules := CoOccurrence(assocSeqs(), Options{MinSupport: 0.5})
	if len(rules) != 1 {
		t.Fatalf("rules = %v", rules)
	}
	// MinCount prunes singleton pairs.
	rules = CoOccurrence(assocSeqs(), Options{MinSupport: 0.01, MinCount: 3})
	for _, r := range rules {
		if r.CountPair < 3 {
			t.Errorf("rule below MinCount: %v", r)
		}
	}
}

func TestCoOccurrenceDedupWithinHistory(t *testing.T) {
	// Repeated codes in one history must count once.
	rules := CoOccurrence([][]string{
		{"T90", "T90", "K86", "K86", "K86"},
		{"T90", "K86"},
	}, Options{MinSupport: 0.1})
	r := findRule(rules, "K86", "T90")
	if r == nil || r.CountPair != 2 {
		t.Fatalf("rule = %v", r)
	}
}

func TestSequentialDirectionality(t *testing.T) {
	seqs := [][]string{
		{"K75", "K77"},
		{"K75", "A04", "K77"},
		{"K75", "K77"},
		{"K77"},
		{"K75"},
	}
	rules := Sequential(seqs, Options{MinSupport: 0.1})
	fwd := findRule(rules, "K75", "K77")
	if fwd == nil || fwd.CountPair != 3 {
		t.Fatalf("K75→K77 = %v", fwd)
	}
	if rev := findRule(rules, "K77", "K75"); rev != nil {
		t.Errorf("reverse rule mined without evidence: %v", rev)
	}
	if !fwd.Sequential || !strings.Contains(fwd.String(), "→") {
		t.Error("sequential marking broken")
	}
}

func TestSequentialMaxGap(t *testing.T) {
	seqs := [][]string{
		{"K75", "X", "X", "X", "K77"},
		{"K75", "X", "X", "X", "K77"},
	}
	// Gap 4 needed; MaxGap 2 must prune.
	rules := Sequential(seqs, Options{MinSupport: 0.1, MaxGap: 2})
	if findRule(rules, "K75", "K77") != nil {
		t.Error("MaxGap not enforced")
	}
	rules = Sequential(seqs, Options{MinSupport: 0.1, MaxGap: 4})
	if findRule(rules, "K75", "K77") == nil {
		t.Error("MaxGap 4 should allow the rule")
	}
}

func TestSortOrderAndTop(t *testing.T) {
	rules := CoOccurrence(assocSeqs(), Options{MinSupport: 0.01})
	for i := 1; i < len(rules); i++ {
		if rules[i-1].Lift < rules[i].Lift {
			t.Fatal("rules not sorted by lift")
		}
	}
	if got := Top(rules, 1); len(got) != 1 {
		t.Error("Top broken")
	}
	if got := Top(rules, 1000); len(got) != len(rules) {
		t.Error("Top overflow broken")
	}
}

func TestEmptyInputs(t *testing.T) {
	if CoOccurrence(nil, Options{}) != nil {
		t.Error("nil seqs should mine nothing")
	}
	if Sequential(nil, Options{}) != nil {
		t.Error("nil seqs should mine nothing")
	}
	if len(CoOccurrence([][]string{{"A"}}, Options{})) != 0 {
		t.Error("single-code history should mine nothing")
	}
}

func TestStringer(t *testing.T) {
	r := Rule{A: "T90", B: "F83", Support: 0.1, Confidence: 0.5, Lift: 2, CountPair: 4}
	if !strings.Contains(r.String(), "∧") {
		t.Error("co-occurrence stringer broken")
	}
}

// Partials built over any partition of the histories must finalize to
// the identical rule list — the property distributed mining rests on.
func TestCountsMergeParity(t *testing.T) {
	seqs := assocSeqs()
	opt := Options{MinSupport: 0.01}
	want := CoOccurrence(seqs, opt)

	for _, cut := range [][]int{{3}, {1, 5}, {2, 4, 6}} {
		merged := NewCounts(false, 0)
		prev := 0
		for _, end := range append(cut, len(seqs)) {
			part := NewCounts(false, 0)
			for _, s := range seqs[prev:end] {
				part.AddSequence(s)
			}
			if err := merged.Merge(part); err != nil {
				t.Fatal(err)
			}
			prev = end
		}
		if merged.HistoryCount() != len(seqs) {
			t.Fatalf("cut %v: merged %d histories, want %d", cut, merged.HistoryCount(), len(seqs))
		}
		if got := merged.Rules(opt); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %v: merged rules differ from direct mine\n got %v\nwant %v", cut, got, want)
		}
	}
}

func TestCountsMergeModeMismatch(t *testing.T) {
	if err := NewCounts(false, 0).Merge(NewCounts(true, 0)); err == nil {
		t.Error("merging sequential into co-occurrence counts should error")
	}
	if err := NewCounts(true, 2).Merge(NewCounts(true, 3)); err == nil {
		t.Error("merging across MaxGap settings should error")
	}
	c := NewCounts(true, 2)
	if err := c.Merge(nil); err != nil {
		t.Errorf("nil merge should be a no-op, got %v", err)
	}
}

// Top's cut must not depend on the incoming order: rules that tie on
// support break the tie on the rule key, so any permutation of the same
// rule list truncates to the identical top-k.
func TestTopDeterministicOnTies(t *testing.T) {
	tied := []Rule{
		{A: "T90", B: "K86", Support: 0.5, Lift: 3},
		{A: "A01", B: "B02", Support: 0.5, Lift: 1},
		{A: "A01", B: "B02", Support: 0.5, Lift: 2, Sequential: true},
		{A: "L03", B: "R74", Support: 0.7, Lift: 1},
		{A: "A01", B: "A09", Support: 0.5, Lift: 9},
	}
	want := Top(tied, 3)
	// Every rotation of the input must truncate identically.
	for shift := 1; shift < len(tied); shift++ {
		rotated := append(append([]Rule(nil), tied[shift:]...), tied[:shift]...)
		if got := Top(rotated, 3); !reflect.DeepEqual(got, want) {
			t.Fatalf("rotation %d: Top differs\n got %v\nwant %v", shift, got, want)
		}
	}
	if want[0].A != "L03" {
		t.Errorf("highest support rule should lead, got %v", want[0])
	}
	// Within the 0.5 tie, (A01,A09) sorts before (A01,B02), and the
	// co-occurrence form of (A01,B02) before its sequential twin.
	if want[1].B != "A09" || want[2].B != "B02" || want[2].Sequential {
		t.Errorf("tie-break order wrong: %v", want[1:])
	}
}

// refAddSequence is the tally the scratch-based loop replaced — a presence
// map and a pair map per history — kept as the oracle.
func refAddSequence(c *Counts, seq []string) {
	c.N++
	present := make(map[string]bool)
	pairs := make(map[[2]string]bool)
	for i, a := range seq {
		present[a] = true
		for j := i + 1; j < len(seq); j++ {
			b := seq[j]
			switch {
			case a == b:
			case !c.Sequential && a < b:
				pairs[[2]string{a, b}] = true
			case !c.Sequential:
				pairs[[2]string{b, a}] = true
			case c.MaxGap == 0 || j-i <= c.MaxGap:
				pairs[[2]string{a, b}] = true
			}
		}
	}
	for code := range present {
		c.Single[code]++
	}
	for p := range pairs {
		c.Pair[p]++
	}
}

// TestAddMatchesReference: the same tallies from the per-history maps, from
// AddSequence's fresh scratch and from one scratch reused across every
// sequence (long after short, empty in between), in every counting mode.
func TestAddMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alphabet := []string{"A", "B", "D", "K", "K86", "L", "R", "T", "T90", ""}
	var seqs [][]string
	for i := 0; i < 500; i++ {
		seq := make([]string, rng.Intn(1+rng.Intn(40)))
		for j := range seq {
			seq[j] = alphabet[rng.Intn(1+rng.Intn(len(alphabet)))]
		}
		seqs = append(seqs, seq)
	}
	for _, mode := range []struct {
		sequential bool
		maxGap     int
	}{{false, 0}, {true, 0}, {true, 1}, {true, 3}} {
		want := NewCounts(mode.sequential, mode.maxGap)
		fresh := NewCounts(mode.sequential, mode.maxGap)
		reused := NewCounts(mode.sequential, mode.maxGap)
		var scratch Scratch
		for _, seq := range seqs {
			refAddSequence(want, seq)
			fresh.AddSequence(seq)
			reused.Add(seq, &scratch)
		}
		if len(want.Pair) < 20 {
			t.Fatalf("%+v: the sample counted only %d pairs", mode, len(want.Pair))
		}
		if !reflect.DeepEqual(fresh, want) {
			t.Errorf("%+v: AddSequence diverges from the reference:\n got %+v\nwant %+v", mode, fresh, want)
		}
		if !reflect.DeepEqual(reused, want) {
			t.Errorf("%+v: a reused scratch diverges from the reference:\n got %+v\nwant %+v", mode, reused, want)
		}
	}
}
