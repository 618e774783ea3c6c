// Package experiments regenerates every figure and reported number in the
// paper's evaluation: Figs. 1-4, the Section-IV cohort selection (13,000 of
// 168,000) and recognition survey (92/7/1), the abstract's scale claims
// (100k+ cohort analysis, 10k+ web timelines), the 0.1 s interaction
// budget, and the ablations (merge noise resilience, interval reasoning,
// code-relation mining). RunAll is the experiment index; the
// measured-vs-paper record is what cmd/experiments -md writes.
package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"pastas/internal/core"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// Config scales the suite.
type Config struct {
	// Population is the synthetic population size; the paper's full data
	// set is 168,000.
	Population int
	// Seed drives all generation.
	Seed int64
	// OutDir receives SVG/JSON artifacts ("" = skip writing).
	OutDir string
	// Quick trims trial counts and page counts for use inside tests.
	Quick bool
}

// Result is one experiment's outcome.
type Result struct {
	ID       string
	Title    string
	Paper    string // what the paper reports
	Measured string // what this reproduction measures
	Pass     bool   // shape agreement verdict
	Details  []string
}

// Format renders the result block of the cmd/experiments -md record.
func (r Result) Format() string {
	status := "SHAPE OK"
	if !r.Pass {
		status = "SHAPE MISMATCH"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s [%s]\n\n", r.ID, r.Title, status)
	fmt.Fprintf(&b, "* paper:    %s\n", r.Paper)
	fmt.Fprintf(&b, "* measured: %s\n", r.Measured)
	for _, d := range r.Details {
		fmt.Fprintf(&b, "  * %s\n", d)
	}
	return b.String()
}

// Suite holds the shared workbench all experiments run against.
type Suite struct {
	Cfg    Config
	WB     *core.Workbench
	Window model.Period

	// BuildTime records how long generation+integration+indexing took —
	// part of the E3 scale story.
	BuildTime time.Duration
}

// NewSuite generates and loads the population once.
func NewSuite(cfg Config) (*Suite, error) {
	if cfg.Population <= 0 {
		cfg.Population = 168000
	}
	if cfg.Seed == 0 {
		cfg.Seed = 42
	}
	gen := synth.DefaultConfig(cfg.Population)
	gen.Seed = cfg.Seed
	start := time.Now()
	wb, err := core.Synthesize(gen)
	if err != nil {
		return nil, fmt.Errorf("experiments: %w", err)
	}
	return &Suite{
		Cfg:       cfg,
		WB:        wb,
		Window:    gen.Window(),
		BuildTime: time.Since(start),
	}, nil
}

// RunAll executes every experiment in index order.
func (s *Suite) RunAll() ([]Result, error) {
	runs := []func() (Result, error){
		s.F1Workbench,
		s.F2aMergedGraph,
		s.F2bZoomedOut,
		s.F3Preattentive,
		s.F4QueryBuilder,
		s.E1CohortSelection,
		s.E2RecognitionSurvey,
		s.E3LargeCohortAnalysis,
		s.E4WebTimelines,
		s.E5InteractionBudget,
		s.A1MergeNoiseAblation,
		s.A2IntervalReasoning,
		s.A3AssociationMining,
		s.X1ClusteredOrdering,
	}
	out := make([]Result, 0, len(runs))
	for _, run := range runs {
		r, err := run()
		if err != nil {
			return out, err
		}
		out = append(out, r)
	}
	return out, nil
}

// writeArtifact saves content under OutDir (no-op when unset).
func (s *Suite) writeArtifact(name, content string) (string, error) {
	if s.Cfg.OutDir == "" {
		return "", nil
	}
	if err := os.MkdirAll(s.Cfg.OutDir, 0o755); err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	path := filepath.Join(s.Cfg.OutDir, name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		return "", fmt.Errorf("experiments: %w", err)
	}
	return path, nil
}

// panel evaluates a cohort expression and materializes a sample of at most
// n of its members as a sub-collection.
func (s *Suite) panel(e query.Expr, n int, seed int64) (*model.Collection, error) {
	cohort, err := s.WB.Query(e)
	if err != nil {
		return nil, err
	}
	return s.WB.Histories(sample(cohort, n, seed))
}

// sample returns a deterministic pseudo-random subset of a cohort with at
// most n members (seeded; stable across runs) — it cuts a 13k cohort down
// to a reviewable panel. n ≤ 0 selects nobody.
func sample(cohort *store.Bitset, n int, seed int64) *store.Bitset {
	ords := cohort.Ones()
	if n >= len(ords) {
		return cohort
	}
	// Fisher-Yates over a local PRNG (splitmix-style) so package math/rand
	// state elsewhere cannot perturb experiment determinism.
	state := uint64(seed)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03
	next := func() uint64 {
		state += 0x9E3779B97F4A7C15
		z := state
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		return z ^ (z >> 31)
	}
	for i := len(ords) - 1; i > 0; i-- {
		j := int(next() % uint64(i+1))
		ords[i], ords[j] = ords[j], ords[i]
	}
	picked := store.NewBitset(cohort.Len())
	for _, o := range ords[:max(n, 0)] {
		picked.Set(o)
	}
	return picked
}

// scaled maps a full-population count to this run's population.
func (s *Suite) scaled(fullCount int) float64 {
	return float64(fullCount) * float64(s.Cfg.Population) / 168000.0
}

// within reports |got-want|/want <= tol (want > 0).
func within(got, want, tol float64) bool {
	if want == 0 {
		return got == 0
	}
	d := got - want
	if d < 0 {
		d = -d
	}
	return d/want <= tol
}
