package render

import (
	"runtime"
	"strings"
	"testing"

	"pastas/internal/align"
	"pastas/internal/graph"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/synth"
)

func testCollection(t testing.TB, n int) *model.Collection {
	t.Helper()
	bundle := synth.Generate(synth.DefaultConfig(n))
	col, _, err := integrate.Build(bundle, integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func TestSVGPrimitives(t *testing.T) {
	s := NewSVG(100, 50)
	s.Rect(1, 2, 3, 4, "fill", "#fff")
	s.Circle(5, 5, 2)
	s.Ellipse(5, 5, 4, 2)
	s.Line(0, 0, 10, 10, "stroke", "red")
	s.Polygon([]float64{0, 0, 5, 0, 2.5, 5})
	s.Text(10, 10, `label <with> "specials" & stuff`)
	s.TitledGroup("tool tip")
	s.Comment("inside -- group")
	s.Circle(1, 1, 1)
	s.EndGroup()
	out := s.String()

	for _, want := range []string{
		"<svg", `width="100"`, "<rect", "<circle", "<ellipse", "<line",
		"<polygon", "&lt;with&gt;", "&quot;specials&quot;", "&amp;",
		"<g>", "<title>tool tip</title>", "    <circle", "  </g>", "</svg>",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	if strings.Contains(out, "inside -- group") {
		t.Error("double dash must not survive in comments")
	}
}

func TestNumFormatting(t *testing.T) {
	cases := map[float64]string{
		1.0: "1", 1.5: "1.5", 0.25: "0.25", -2.0: "-2", 0.0: "0",
	}
	for in, want := range cases {
		if got := num(in); got != want {
			t.Errorf("num(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestClassColorsDeterministic(t *testing.T) {
	c := NewClassColors()
	a := c.Color("A10")
	b := c.Color("C07")
	if a == b {
		t.Error("distinct classes share a color")
	}
	if c.Color("A10") != a {
		t.Error("assignment not stable")
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	// Overflow assignment still returns a palette color.
	many := NewClassColors()
	for i := 0; i < 30; i++ {
		col := many.Color(string(rune('A'+i)) + "01")
		if col == "" {
			t.Fatal("empty color")
		}
	}
}

func TestTimelineCalendarMode(t *testing.T) {
	col := testCollection(t, 30)
	svg := Timeline(col, TimelineOptions{Tooltips: true, Legend: true})
	for _, want := range []string{
		"patient histories", "time axis", "patient id axis",
		ColorHistoryBar, "Medication classes", "<title>",
	} {
		if !strings.Contains(svg, want) {
			t.Errorf("timeline missing %q", want)
		}
	}
	// Calendar labels look like YYYY-MM.
	if !strings.Contains(svg, "2010-") && !strings.Contains(svg, "2011-") {
		t.Error("calendar tick labels missing")
	}
}

func TestTimelineAlignedMode(t *testing.T) {
	col := testCollection(t, 60)
	res := align.Align(col, align.First(query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", "K86|T90")}))
	if res.Col.Len() == 0 {
		t.Skip("no anchored histories in this sample")
	}
	svg := Timeline(res.Col, TimelineOptions{Aligned: res})
	if !strings.Contains(svg, "alignment point") {
		t.Error("alignment rule missing")
	}
	if !strings.Contains(svg, "mo</text>") {
		t.Error("month-offset labels missing")
	}
}

func TestTimelineZoomGrowsCanvas(t *testing.T) {
	col := testCollection(t, 10)
	base := Timeline(col, TimelineOptions{})
	zoomed := Timeline(col, TimelineOptions{ZoomX: 3, ZoomY: 2})
	if len(zoomed) <= len(base) {
		t.Error("zoom produced no growth")
	}
	if !strings.Contains(zoomed, `width="3`) && len(zoomed) < len(base) {
		t.Error("zoomed canvas did not grow")
	}
}

func TestTimelineMaxRows(t *testing.T) {
	col := testCollection(t, 30)
	svg := Timeline(col, TimelineOptions{MaxRows: 5})
	count := strings.Count(svg, `fill="`+ColorHistoryBar+`"`)
	if count != 5 {
		t.Errorf("history bars = %d, want 5", count)
	}
}

func TestDetails(t *testing.T) {
	col := testCollection(t, 50)
	var h *model.History
	var at model.Time
	for _, cand := range col.Histories() {
		if e := cand.First(func(e *model.Entry) bool { return e.Type == model.TypeDiagnosis }); e != nil {
			h, at = cand, e.Start
			break
		}
	}
	if h == nil {
		t.Skip("no diagnoses in sample")
	}
	lines := Details(h, at, 7*model.Day)
	if len(lines) == 0 {
		t.Fatal("no details returned")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "diagnosis") {
		t.Errorf("details lack diagnosis line: %s", joined)
	}
	// Far-away time returns nothing.
	if got := Details(h, at+50*model.Year, model.Day); len(got) != 0 {
		t.Error("details leaked outside radius")
	}
}

func TestGraphView(t *testing.T) {
	seqs := [][]string{
		{"A04", "T90", "K86"},
		{"A04", "T90", "K86"},
		{"D01", "T90", "F92"},
	}
	g, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	l := graph.Layered(g)
	svg := Graph(g, l, GraphOptions{Labels: true})
	for _, want := range []string{"<ellipse", "edges", "nodes", "#ffe08a", "T90"} {
		if !strings.Contains(svg, want) {
			t.Errorf("graph view missing %q", want)
		}
	}
	// Edge widths vary with weight.
	if !strings.Contains(svg, `stroke-width="0.8"`) {
		t.Error("light edges missing")
	}
}

func TestPreattentiveStimulus(t *testing.T) {
	svg, target := PreattentiveStimulus(StimulusOptions{Distractors: 20, Seed: 1})
	if target < 0 || target > 20 {
		t.Errorf("target index = %d", target)
	}
	if got := strings.Count(svg, "#cc2222"); got != 1 {
		t.Errorf("feature display has %d red elements, want 1", got)
	}
	if got := strings.Count(svg, "<circle"); got != 21 {
		t.Errorf("feature display has %d circles, want 21", got)
	}

	conj, _ := PreattentiveStimulus(StimulusOptions{Distractors: 20, Conjunction: true, Seed: 1})
	reds := strings.Count(conj, "#cc2222")
	if reds < 2 {
		t.Errorf("conjunction display has %d red elements, want several", reds)
	}
	if !strings.Contains(conj, "<rect") || !strings.Contains(conj, "<circle") {
		t.Error("conjunction display needs both shapes")
	}

	// Determinism.
	svg2, target2 := PreattentiveStimulus(StimulusOptions{Distractors: 20, Seed: 1})
	if svg != svg2 || target != target2 {
		t.Error("stimulus not deterministic")
	}
}

func TestTimelineDeterministic(t *testing.T) {
	col := testCollection(t, 15)
	a := Timeline(col, TimelineOptions{Legend: true, Tooltips: true})
	b := Timeline(col, TimelineOptions{Legend: true, Tooltips: true})
	if a != b {
		t.Error("timeline rendering not deterministic")
	}
}

// allocsAndBytes reports what one call of f allocates (after a warm call),
// averaged over a few runs: deterministic where a wall-clock bound is a
// guess about the machine.
func allocsAndBytes(f func()) (allocs, bytes float64) {
	const runs = 5
	allocs = testing.AllocsPerRun(runs, f) // warms f up with one extra call
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
}

// TestTimelineAllocatesInProportionToOutput is the render layer's budget: a
// 1,000-row drawing costs a handful of allocations per row (band merging)
// and a small multiple of its own size in bytes (the buffer, a reserve step
// or two, the string: 3.2×, 4.3× under the race detector). The fmt-based
// writer it replaced cost 586 allocations per row and 137 bytes per byte
// drawn.
func TestTimelineAllocatesInProportionToOutput(t *testing.T) {
	col := testCollection(t, 1000)
	for _, opt := range []TimelineOptions{{}, {Tooltips: true, Legend: true}} {
		var size int
		allocs, bytes := allocsAndBytes(func() { size = len(Timeline(col, opt)) })
		if size == 0 {
			t.Fatal("empty render")
		}
		if perRow := allocs / float64(col.Len()); perRow > 10 {
			t.Errorf("tooltips=%v: %.0f allocations, %.1f per row (budget 10)", opt.Tooltips, allocs, perRow)
		}
		if ratio := bytes / float64(size); ratio > 6 {
			t.Errorf("tooltips=%v: %.0f bytes allocated for a %d-byte drawing, %.1f× (budget 6×)",
				opt.Tooltips, bytes, size, ratio)
		}
	}
}
