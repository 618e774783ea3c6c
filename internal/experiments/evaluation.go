package experiments

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"pastas/internal/align"
	"pastas/internal/core"
	"pastas/internal/model"
	"pastas/internal/perception"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/stats"
	"pastas/internal/webapp"
)

// E1CohortSelection reproduces Section IV: "The prototype was used in the
// research project to select 13,000 patients from a data set of 168,000
// patients based on predefined characteristics."
func (s *Suite) E1CohortSelection() (Result, error) {
	start := time.Now()
	study, err := s.WB.Query(core.StudyCriteria(s.Window))
	if err != nil {
		return Result{}, err
	}
	took := time.Since(start)

	expected := s.scaled(13000)
	got := float64(study.Count())
	r := Result{
		ID:    "E1",
		Title: "Predefined-characteristics selection: 13,000 of 168,000",
		Paper: "13,000 of 168,000 patients selected (7.74%)",
		Measured: fmt.Sprintf("%d of %d selected (%.2f%%; scale-expected %.0f) in %v",
			study.Count(), s.WB.Patients(), 100*got/float64(s.WB.Patients()), expected, took.Round(time.Millisecond)),
		Pass: within(got, expected, 0.15),
		Details: []string{
			"criteria: ≥1 chronic diagnosis (ICPC-2/ICD-10) ∧ ≥6 GP contacts ∧ (admission ∨ ≥2 hospital outpatient visits), all inside the 2-year window",
		},
	}
	return r, nil
}

// E2RecognitionSurvey reproduces the Section-IV patient feedback: "only 1%
// of the patients said that everything was wrong ... while 92% could easily
// recognize their own trajectory and 7% did not remember."
func (s *Suite) E2RecognitionSurvey() (Result, error) {
	study, err := s.WB.Query(core.StudyCriteria(s.Window))
	if err != nil {
		return Result{}, err
	}
	col, err := s.WB.Histories(study)
	if err != nil {
		return Result{}, err
	}
	res := stats.SimulateSurvey(col, stats.DefaultSurveyParams())
	rec, notRem, wrong := res.Proportions()

	r := Result{
		ID:       "E2",
		Title:    "Patient recognition survey (92% / 7% / 1%)",
		Paper:    "92% easily recognized their own trajectory, 7% did not remember, 1% said everything was wrong",
		Measured: fmt.Sprintf("n=%d: recognized %.1f%%, did not remember %.1f%%, everything wrong %.1f%%", res.N, 100*rec, 100*notRem, 100*wrong),
		Pass:     res.N > 0 && within(rec, 0.92, 0.04) && within(notRem, 0.07, 0.45) && within(wrong, 0.01, 0.8),
		Details: []string{
			"model: 'everything wrong' ⇐ mislinked records (1.1% per patient); 'did not remember' ⇐ recall decay 0.25·exp(-contacts/12)",
		},
	}
	return r, nil
}

// E3LargeCohortAnalysis reproduces the abstract's "health researchers have
// successfully analyzed large cohorts (over 100,000 individuals)": the full
// query → align → aggregate pipeline at population scale, with the
// index-vs-scan ablation.
func (s *Suite) E3LargeCohortAnalysis() (Result, error) {
	st := s.WB.Store
	pattern := `T90|E11(\..*)?`

	t0 := time.Now()
	idx, err := st.WithCodeRegex("", pattern)
	if err != nil {
		return Result{}, err
	}
	tIndexed := time.Since(t0)

	t0 = time.Now()
	scan, err := st.WithCodeRegexScan("", pattern)
	if err != nil {
		return Result{}, err
	}
	tScan := time.Since(t0)

	if idx.Count() != scan.Count() {
		return Result{}, fmt.Errorf("experiments: index/scan disagree: %d vs %d", idx.Count(), scan.Count())
	}

	diabetics := st.Subset(idx)
	t0 = time.Now()
	aligned := align.Align(diabetics, align.First(query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", "T90")}))
	tAlign := time.Since(t0)

	t0 = time.Now()
	aligned.Sort(aligned.ByAnchor())
	tSort := time.Since(t0)

	// Aggregate: contacts per month relative to anchor (the cohort-level
	// pattern an analyst reads off the aligned view).
	t0 = time.Now()
	months := make(map[int]int)
	for _, h := range aligned.Col.Histories() {
		off := aligned.Offsets[h.Patient.ID]
		for i := range h.Entries {
			e := &h.Entries[i]
			if e.Type == model.TypeContact {
				months[int((e.Start-off)/model.Month)]++
			}
		}
	}
	tAgg := time.Since(t0)

	speedup := float64(tScan) / float64(maxDuration(tIndexed, time.Microsecond))
	r := Result{
		ID:    "E3",
		Title: "Cohort analysis at 100,000+ individuals",
		Paper: "health researchers have successfully analyzed large cohorts (over 100,000 individuals) using the tool",
		Measured: fmt.Sprintf("population %d (build %v): diabetic query indexed %v vs scan %v (%.0fx), align %d histories %v, sort %v, monthly aggregate %v",
			s.WB.Patients(), s.BuildTime.Round(time.Millisecond),
			tIndexed.Round(time.Microsecond), tScan.Round(time.Millisecond), speedup,
			aligned.Col.Len(), tAlign.Round(time.Millisecond), tSort.Round(time.Millisecond), tAgg.Round(time.Millisecond)),
		Pass: tIndexed <= tScan && len(months) > 0,
	}
	return r, nil
}

func maxDuration(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}

// E4WebTimelines reproduces the abstract's "interactive personal health
// time-lines (for more than 10,000 individuals) on the web": serve personal
// timeline pages and measure throughput.
func (s *Suite) E4WebTimelines() (Result, error) {
	pages := 10000
	if s.Cfg.Quick {
		pages = 200
	}
	if pages > s.WB.Patients() {
		pages = s.WB.Patients()
	}
	srv := httptest.NewServer(webapp.NewServer(s.WB, webapp.DefaultConfig()))
	defer srv.Close()

	client := srv.Client()
	ids := s.WB.Store.Collection().IDs()
	start := time.Now()
	failures := 0
	for i := 0; i < pages; i++ {
		url := fmt.Sprintf("%s/timeline?patient=%d&pw=tromsø", srv.URL, uint64(ids[i]))
		resp, err := client.Get(url)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: e4: %w", err)
		}
		if resp.StatusCode != http.StatusOK {
			failures++
		}
		resp.Body.Close()
	}
	took := time.Since(start)
	perPage := took / time.Duration(pages)

	r := Result{
		ID:    "E4",
		Title: "Personal web timelines for 10,000+ individuals",
		Paper: "interactive personal health time-lines for more than 10,000 individuals on the web (pastas.no)",
		Measured: fmt.Sprintf("%d timeline pages served in %v (%.0f pages/s, %v/page), %d failures",
			pages, took.Round(time.Millisecond), float64(pages)/took.Seconds(), perPage.Round(time.Microsecond), failures),
		Pass: failures == 0 && perPage < 100*time.Millisecond,
	}
	return r, nil
}

// E5InteractionBudget reproduces the responsiveness requirement: "response
// times for mouse and typing actions should be less than 0.1 second", and
// the conclusion's caveat that the tool "can be challenging to use for very
// large data sets".
func (s *Suite) E5InteractionBudget() (Result, error) {
	sizes := []int{1000, 10000, s.WB.Patients()}
	if s.Cfg.Quick {
		sizes = []int{200, s.WB.Patients()}
	}
	var details []string
	pass := true
	for _, size := range sizes {
		if size > s.WB.Patients() {
			continue
		}
		sub, err := s.panel(query.TrueExpr{}, size, 5)
		if err != nil {
			return Result{}, err
		}
		sess, err := core.NewSession(core.FromCollection(sub, s.Window))
		if err != nil {
			return Result{}, err
		}

		if err := sess.Extract(query.Has{Pred: query.AllOf{
			query.TypeIs(model.TypeDiagnosis), query.MustCode("", `K8.|T90`)}}); err != nil {
			return Result{}, err
		}
		if err := sess.SortBy("entries", align.ByEntryCount()); err != nil {
			return Result{}, err
		}
		if err := sess.SetZoom(2, 1.5); err != nil {
			return Result{}, err
		}
		if err := sess.FilterEvents(query.TypeIs(model.TypeDiagnosis)); err != nil {
			return Result{}, err
		}
		if err := sess.ClearFilter(); err != nil {
			return Result{}, err
		}
		if err := sess.AlignOn(align.First(query.AllOf{
			query.TypeIs(model.TypeDiagnosis), query.MustCode("", `K8.|T90`)})); err != nil {
			return Result{}, err
		}
		_ = sess.RenderTimeline(render.TimelineOptions{MaxRows: 50})
		if v := sess.View(); v.Len() > 0 {
			h := v.At(0)
			if h.Len() > 0 {
				_ = sess.Details(h.Patient.ID, h.Entries[0].Start)
			}
		}

		violations := sess.Budget().Violations()
		status := "all ops ≤ 100 ms"
		if len(violations) > 0 {
			ops := make([]string, 0, len(violations))
			for _, v := range violations {
				ops = append(ops, fmt.Sprintf("%s max %v", v.Op, v.Max.Round(time.Millisecond)))
			}
			status = fmt.Sprintf("over budget: %v", ops)
		}
		details = append(details, fmt.Sprintf("n=%d: %s", size, status))
		// The shape claim: budget holds at 10k and below; at full scale
		// the paper itself concedes difficulty, so violations there do
		// not fail the experiment.
		if size <= 10000 && len(violations) > 0 {
			pass = false
		}

		// The paper's caveat, demonstrated: an unbounded full-view
		// render at this size (not a violation — the reproduction of
		// "challenging to use for very large data sets").
		if size == s.WB.Patients() && !s.Cfg.Quick {
			start := time.Now()
			_ = sess.RenderTimeline(render.TimelineOptions{MaxRows: 5000})
			full := time.Since(start)
			details = append(details, fmt.Sprintf(
				"n=%d: unbounded 5000-row render %v — the conclusion's 'challenging for very large data sets'",
				size, full.Round(time.Millisecond)))
		}
	}
	r := Result{
		ID:       "E5",
		Title:    "Interactive response budget (<0.1 s)",
		Paper:    "response times for mouse and typing actions should be less than 0.1 second; the tool is usable but challenging for very large data sets",
		Measured: fmt.Sprintf("session ops audited at cohort sizes %v; limit %v", sizes, perception.ShneidermanLimit),
		Pass:     pass,
		Details:  details,
	}
	return r, nil
}
