package core

import (
	"strings"
	"testing"

	"pastas/internal/align"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/synth"
)

func testWorkbench(t testing.TB, n int) *Workbench {
	t.Helper()
	wb, err := Synthesize(synth.DefaultConfig(n))
	if err != nil {
		t.Fatal(err)
	}
	return wb
}

// mustSession opens a session over a store-backed workbench.
func mustSession(t testing.TB, wb *Workbench) *Session {
	t.Helper()
	s, err := NewSession(wb)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSynthesizePipeline(t *testing.T) {
	wb := testWorkbench(t, 120)
	if wb.Patients() != 120 {
		t.Errorf("patients = %d", wb.Patients())
	}
	if wb.Entries() == 0 {
		t.Error("no entries")
	}
	if wb.Report == nil || wb.Report.Patients != 120 {
		t.Error("integration report missing")
	}
	if wb.Window.Empty() {
		t.Error("window missing")
	}
}

func TestSessionExtractAndUndo(t *testing.T) {
	wb := testWorkbench(t, 300)
	s := mustSession(t, wb)
	full := s.View().Len()

	diabetics := query.Or{
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", "T90")}},
		query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICD10", `E11(\..*)?`)}},
	}
	if err := s.Extract(diabetics); err != nil {
		t.Fatal(err)
	}
	sub := s.View().Len()
	if sub == 0 || sub >= full {
		t.Fatalf("extract: %d of %d", sub, full)
	}

	// Second extraction on a narrowed view uses the scan path.
	if err := s.Extract(query.SexIs(model.SexFemale)); err != nil {
		t.Fatal(err)
	}
	if s.View().Len() > sub {
		t.Error("second extract grew the view")
	}

	if !s.Undo() {
		t.Fatal("undo failed")
	}
	if s.View().Len() != sub {
		t.Errorf("undo restored %d, want %d", s.View().Len(), sub)
	}
	if !s.Undo() {
		t.Fatal("second undo failed")
	}
	if s.View().Len() != full {
		t.Errorf("undo to full restored %d, want %d", s.View().Len(), full)
	}
	if s.Undo() {
		t.Error("undo on empty stack must fail")
	}
}

func TestSessionAlignment(t *testing.T) {
	wb := testWorkbench(t, 300)
	s := mustSession(t, wb)
	anchor := align.First(query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", "K86|K87")})
	if err := s.AlignOn(anchor); err != nil {
		t.Fatal(err)
	}
	if s.Aligned() == nil {
		t.Fatal("no alignment active")
	}
	if s.View().Len()+len(s.Aligned().Missing) != 300 {
		t.Error("alignment partition broken")
	}
	svg := s.RenderTimeline(render.TimelineOptions{MaxRows: 50})
	if !strings.Contains(svg, "alignment point") {
		t.Error("aligned render missing anchor rule")
	}
	if err := s.ClearAlignment(); err != nil {
		t.Fatal(err)
	}
	if s.Aligned() != nil {
		t.Error("alignment not cleared")
	}
}

func TestSessionFilterEvents(t *testing.T) {
	wb := testWorkbench(t, 100)
	s := mustSession(t, wb)
	plain := s.RenderTimeline(render.TimelineOptions{MaxRows: 20})

	if err := s.FilterEvents(query.TypeIs(model.TypeMeasurement)); err != nil {
		t.Fatal(err)
	}
	filtered := s.RenderTimeline(render.TimelineOptions{MaxRows: 20})
	// Diagnosis rectangles are gone; the render shrinks.
	if strings.Count(filtered, render.ColorDiagnosis) >= strings.Count(plain, render.ColorDiagnosis) {
		t.Error("filter did not remove diagnosis marks")
	}
	if err := s.ClearFilter(); err != nil {
		t.Fatal(err)
	}
	back := s.RenderTimeline(render.TimelineOptions{MaxRows: 20})
	if strings.Count(back, render.ColorDiagnosis) != strings.Count(plain, render.ColorDiagnosis) {
		t.Error("clear-filter did not restore marks")
	}
}

func TestSessionSortZoomDetails(t *testing.T) {
	wb := testWorkbench(t, 80)
	s := mustSession(t, wb)
	if err := s.SortBy("by-entries", align.ByEntryCount()); err != nil {
		t.Fatal(err)
	}
	if s.View().At(0).Len() < s.View().At(s.View().Len()-1).Len() {
		t.Error("sort did not order by entry count")
	}
	if err := s.SetZoom(2, 0.5); err != nil { // y clamps to 1
		t.Fatal(err)
	}
	x, y := s.Zoom()
	if x != 2 || y != 1 {
		t.Errorf("zoom = %f, %f", x, y)
	}

	h := s.View().At(0)
	if h.Len() > 0 {
		lines := s.Details(h.Patient.ID, h.Entries[0].Start)
		if len(lines) == 0 {
			t.Error("details empty at an entry")
		}
	}
	if got := s.Details(999999, 0); got != nil {
		t.Error("details for unknown patient must be nil")
	}
}

func TestSessionPatternSearch(t *testing.T) {
	wb := testWorkbench(t, 300)
	s := mustSession(t, wb)
	seq := query.Sequence{Steps: []query.Step{
		{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", "K86|K87|T90")}},
		{Pred: query.TypeIs(model.TypeMeasurement), MaxGap: query.Days(370)},
	}}
	ids := s.SearchPattern(seq)
	// Hypertensives get BP measurements; some matches are certain at 300.
	if len(ids) == 0 {
		t.Error("pattern search found nothing")
	}
}

func TestSessionGraphViews(t *testing.T) {
	wb := testWorkbench(t, 200)
	s := mustSession(t, wb)
	if err := s.Extract(query.Has{Pred: query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", "T90")}}); err != nil {
		t.Fatal(err)
	}
	svg, err := s.RenderGraph("T90", 2, render.GraphOptions{Labels: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(svg, "#ffe08a") {
		t.Error("anchor node missing in graph render")
	}
	if _, err := s.RenderGraph("(", 1, render.GraphOptions{}); err == nil {
		t.Error("bad pattern accepted")
	}
	msa := s.RenderGraphMSA(render.GraphOptions{})
	if !strings.Contains(msa, "<ellipse") {
		t.Error("MSA graph render empty")
	}
}

func TestSessionHistoryAndBudget(t *testing.T) {
	wb := testWorkbench(t, 60)
	s := mustSession(t, wb)
	_ = s.RenderTimeline(render.TimelineOptions{MaxRows: 10})
	if err := s.SetZoom(2, 2); err != nil {
		t.Fatal(err)
	}
	s.Reset()
	log := s.History()
	if len(log) < 3 {
		t.Fatalf("history = %v", log)
	}
	ops := map[string]bool{}
	for _, r := range log {
		ops[r.Op] = true
	}
	for _, want := range []string{"render-timeline", "zoom", "reset"} {
		if !ops[want] {
			t.Errorf("history missing %s", want)
		}
	}
	if len(s.Budget().Report()) == 0 {
		t.Error("budget collected nothing")
	}
}

// TestExtractErrorLeavesStateIntact: an extract the engine refuses — a
// code pattern that does not compile, caught by engine.Compile's pattern
// check — changes neither the view, the operation log nor the undo stack.
func TestExtractErrorLeavesStateIntact(t *testing.T) {
	wb := testWorkbench(t, 50)
	s := mustSession(t, wb)
	view, log := s.View(), len(s.History())
	if err := s.Extract(query.Has{Pred: &query.Code{Pattern: "("}}); err == nil {
		t.Fatal("extract with pattern \"(\" succeeded")
	}
	if s.View() != view || len(s.History()) != log {
		t.Errorf("failed extract changed the session: view %d → %d patients, log %d → %d entries",
			view.Len(), s.View().Len(), log, len(s.History()))
	}
	if s.Undo() {
		t.Error("failed extract left a state to undo")
	}
}
