package terminology

import "testing"

func TestTablesLoad(t *testing.T) {
	if n := len(ForICPC2().concepts); n < 150 {
		t.Errorf("ICPC2 table suspiciously small: %d", n)
	}
	if n := len(ForICD10().concepts); n < 100 {
		t.Errorf("ICD10 table suspiciously small: %d", n)
	}
	if n := len(ForATC().concepts); n < 50 {
		t.Errorf("ATC table suspiciously small: %d", n)
	}
}

func TestICPC2Chapters(t *testing.T) {
	cs := ForICPC2()
	chapters := 0
	for _, c := range cs.concepts {
		if c.Level == LevelChapter {
			chapters++
		}
	}
	if chapters != 17 {
		t.Fatalf("ICPC-2 has %d chapters, want 17", chapters)
	}
	for _, want := range []string{"A", "B", "D", "F", "H", "K", "L", "N", "P", "R", "S", "T", "U", "W", "X", "Y", "Z"} {
		if !cs.Known(want) {
			t.Errorf("missing chapter %s", want)
		}
	}
	// No C, E, G, I etc. chapters in ICPC-2.
	for _, absent := range []string{"C", "E", "G", "I", "J", "M", "O", "Q", "V"} {
		if cs.Known(absent) {
			t.Errorf("ICPC-2 must not have chapter %s", absent)
		}
	}
}

func TestHierarchyNavigation(t *testing.T) {
	cs := ForICPC2()
	if got := cs.concepts["T90"].Parent; got != "T" {
		t.Errorf("parent of T90 = %q", got)
	}
	if got := cs.Chapter("T90"); got != "T" {
		t.Errorf("Chapter(T90) = %q", got)
	}
	if got := cs.Chapter("NOPE"); got != "" {
		t.Errorf("Chapter(NOPE) = %q, want \"\"", got)
	}
}

func TestICD10Hierarchy(t *testing.T) {
	cs := ForICD10()
	if got := cs.Chapter("E11.9"); got != "IV" {
		t.Errorf("Chapter(E11.9) = %q, want IV", got)
	}
}

func TestATCHierarchy(t *testing.T) {
	cs := ForATC()
	if got := cs.Chapter("A10BA02"); got != "A" {
		t.Errorf("Chapter(A10BA02) = %q", got)
	}
}

func TestCompileCodePatternCache(t *testing.T) {
	a, err := CompileCodePattern(`K8[67]`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompileCodePattern(`K8[67]`)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("cache did not return the same compiled pattern")
	}
	if !a.MatchString("K86") || a.MatchString("K86X") || a.MatchString("XK86") {
		t.Error("anchoring broken")
	}
	if _, err := CompileCodePattern(`(`); err == nil {
		t.Error("want error for bad pattern")
	}
}

func TestDisjunction(t *testing.T) {
	pat := Disjunction(`F.*`, `H.*`, `T90`)
	re, err := CompileCodePattern(pat)
	if err != nil {
		t.Fatal(err)
	}
	for _, yes := range []string{"F92", "H03", "T90"} {
		if !re.MatchString(yes) {
			t.Errorf("disjunction should match %s", yes)
		}
	}
	if re.MatchString("T89") {
		t.Error("disjunction must not match T89")
	}
}

func TestSystemsRegistry(t *testing.T) {
	for _, sys := range []System{ICPC2, ICD10, ATC} {
		if For(sys) == nil {
			t.Errorf("For(%s) = nil", sys)
		}
	}
	if For("BOGUS") != nil {
		t.Error("unknown system must return nil")
	}
}
