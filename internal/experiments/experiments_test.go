package experiments

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pastas/internal/core"
	"pastas/internal/model"
)

// The suite at reduced scale: every experiment must run, and the shape
// verdicts that are scale-independent must pass.
func TestSuiteQuickRun(t *testing.T) {
	dir := t.TempDir()
	s, err := NewSuite(Config{Population: 4000, Seed: 42, OutDir: dir, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := s.RunAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 14 {
		t.Fatalf("experiments = %d, want 14", len(results))
	}

	byID := map[string]Result{}
	for _, r := range results {
		byID[r.ID] = r
		if r.Paper == "" || r.Measured == "" {
			t.Errorf("%s: empty paper/measured", r.ID)
		}
		if !strings.Contains(r.Format(), r.ID) {
			t.Errorf("%s: Format missing ID", r.ID)
		}
	}

	// Scale-independent shape checks must pass even at 4k.
	for _, id := range []string{"F1", "F2a", "F3", "F4", "E2", "E3", "E4", "A1", "A2", "A3", "X1"} {
		if r := byID[id]; !r.Pass {
			t.Errorf("%s failed at quick scale: %s\n%v", id, r.Measured, r.Details)
		}
	}
	// E1 at 4k has sampling noise but should stay inside its own 15%
	// band most seeds; warn (not fail) to keep the test robust... except
	// gross failures.
	if r := byID["E1"]; !r.Pass {
		t.Logf("E1 outside band at small scale (expected occasionally): %s", r.Measured)
	}

	// Artifacts written.
	for _, name := range []string{
		"fig1_workbench.svg", "fig2a_graph.svg", "fig2b_zoomed_out.svg",
		"fig3_feature.svg", "fig3_conjunction.svg", "fig4_query.json",
	} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}
}

func TestWithin(t *testing.T) {
	if !within(100, 100, 0) || !within(110, 100, 0.1) || within(120, 100, 0.1) {
		t.Error("within broken")
	}
	if !within(0, 0, 0.1) || within(1, 0, 0.1) {
		t.Error("within zero-want broken")
	}
}

func TestScaled(t *testing.T) {
	s := &Suite{Cfg: Config{Population: 84000}}
	if got := s.scaled(13000); got != 6500 {
		t.Errorf("scaled = %f", got)
	}
}

func TestNoArtifactsWithoutOutDir(t *testing.T) {
	s := &Suite{Cfg: Config{}}
	path, err := s.writeArtifact("x.svg", "content")
	if err != nil || path != "" {
		t.Errorf("writeArtifact without OutDir: %q, %v", path, err)
	}
}

func TestWriteReport(t *testing.T) {
	s, err := NewSuite(Config{Population: 500, Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	results := []Result{
		{ID: "F1", Title: "one", Paper: "p", Measured: "m", Pass: true},
		{ID: "E1", Title: "two", Paper: "p", Measured: "m", Pass: false},
	}
	var b strings.Builder
	if err := WriteReport(&b, s, results, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# Experiment run record",
		"1/2 shape-consistent",
		"| F1 | one | SHAPE OK |",
		"| E1 | two | MISMATCH |",
		"### F1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

// sample replaces the store-bound cohort type's Sample: shuffling the set
// ordinals must pick the members the ID shuffle did (Fisher-Yates depends
// only on positions and length). The goldens are the parent commit's
// Sample output for the study cohort of the 2,000-patient seed-42
// population, at two (n, seed) pairs the experiments use.
func TestSampleDeterministic(t *testing.T) {
	s, err := NewSuite(Config{Population: 2000, Seed: 42, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	study, err := s.WB.Query(core.StudyCriteria(s.Window))
	if err != nil {
		t.Fatal(err)
	}
	if study.Count() != 173 {
		t.Fatalf("study cohort = %d, want 173 (the goldens' cohort)", study.Count())
	}
	for _, g := range []struct {
		n    int
		seed int64
		want []model.PatientID
	}{
		{100, 1, []model.PatientID{4, 62, 99, 102, 115, 125, 136, 189, 201, 220, 221, 227, 290, 294, 321, 340,
			395, 427, 437, 440, 458, 501, 513, 524, 536, 560, 582, 594, 598, 626, 637, 644, 654, 665, 670,
			689, 714, 721, 725, 735, 774, 781, 784, 828, 832, 872, 914, 941, 999, 1002, 1012, 1031, 1036,
			1043, 1084, 1094, 1157, 1170, 1259, 1320, 1324, 1351, 1358, 1377, 1402, 1403, 1408, 1413, 1434,
			1436, 1442, 1456, 1470, 1479, 1485, 1500, 1501, 1548, 1597, 1617, 1625, 1658, 1669, 1707, 1709,
			1724, 1744, 1775, 1788, 1821, 1831, 1849, 1860, 1862, 1866, 1881, 1893, 1902, 1945, 1956}},
		{60, 7, []model.PatientID{59, 102, 125, 129, 214, 220, 291, 322, 404, 437, 455, 488, 501, 524, 563, 644,
			665, 670, 689, 752, 781, 784, 872, 980, 990, 992, 999, 1009, 1036, 1078, 1094, 1222, 1303, 1324,
			1325, 1343, 1403, 1408, 1413, 1426, 1434, 1436, 1470, 1501, 1597, 1616, 1625, 1626, 1660, 1682,
			1724, 1739, 1744, 1755, 1812, 1821, 1838, 1881, 1903, 1956}},
	} {
		got, err := s.WB.Engine.IDsOf(sample(study, g.n, g.seed))
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, g.want) {
			t.Errorf("sample(%d, %d) = %v, want the parent's %v", g.n, g.seed, got, g.want)
		}
	}

	if a, b := sample(study, 20, 7), sample(study, 20, 8); a.Count() != 20 || a.Equal(b) {
		t.Errorf("sample(20): %d members, equal across seeds %v", a.Count(), a.Equal(b))
	}
	// Oversampling returns the whole cohort; n ≤ 0 nobody (the old
	// ids[:n] panicked on a negative n).
	if got := sample(study, 1000, 1); !got.Equal(study) {
		t.Errorf("oversample = %d members", got.Count())
	}
	for _, n := range []int{0, -3} {
		if got := sample(study, n, 1); got.Count() != 0 || got.Len() != study.Len() {
			t.Errorf("sample(%d) = %d members over %d", n, got.Count(), got.Len())
		}
	}
}
