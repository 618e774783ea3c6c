package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// WriteReport renders a full run as the Markdown record cmd/experiments
// emits with -md, for diffing a fresh environment against an earlier run.
func WriteReport(w io.Writer, s *Suite, results []Result, elapsed time.Duration) error {
	var b strings.Builder
	b.WriteString("# Experiment run record\n\n")
	fmt.Fprintf(&b, "* population: %d patients, %d entries\n", s.WB.Patients(), s.WB.Entries())
	fmt.Fprintf(&b, "* seed: %d\n", s.Cfg.Seed)
	fmt.Fprintf(&b, "* build time: %v\n", s.BuildTime.Round(time.Millisecond))
	fmt.Fprintf(&b, "* total time: %v\n", elapsed.Round(time.Second))

	pass := 0
	for _, r := range results {
		if r.Pass {
			pass++
		}
	}
	fmt.Fprintf(&b, "* verdict: %d/%d shape-consistent\n\n", pass, len(results))

	b.WriteString("| id | title | verdict |\n|---|---|---|\n")
	for _, r := range results {
		verdict := "SHAPE OK"
		if !r.Pass {
			verdict = "MISMATCH"
		}
		fmt.Fprintf(&b, "| %s | %s | %s |\n", r.ID, r.Title, verdict)
	}
	b.WriteString("\n")

	for _, r := range results {
		b.WriteString(r.Format())
		b.WriteString("\n")
	}
	if _, err := io.WriteString(w, b.String()); err != nil {
		return fmt.Errorf("experiments: write report: %w", err)
	}
	return nil
}
