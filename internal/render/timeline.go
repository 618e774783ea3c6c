package render

import (
	"fmt"
	"slices"
	"sort"
	"strconv"

	"pastas/internal/abstraction"
	"pastas/internal/align"
	"pastas/internal/model"
	"pastas/internal/terminology"
)

// Timeline renders the Fig. 1 workbench view: "Each gray bar ... constitutes
// a patient history, with small rectangles and arrows indicating diagnoses
// and blood pressure measurements ... The colors in the visualization show
// different classes of medication." The horizontal axis is calendar time,
// or months relative to the alignment point when an aligned result is
// supplied; the two zoom factors are the paper's two sliders.

// TimelineOptions configures the view.
type TimelineOptions struct {
	// Width/Height are the nominal viewport in pixels (defaults 1200×700).
	Width, Height float64
	// ZoomX/ZoomY are the two sliders: multiply the drawn time scale and
	// row height. 1.0 fits the viewport; larger values grow the canvas
	// (the workbench scrolls). Minimum 1.
	ZoomX, ZoomY float64
	// Aligned switches the axis to months-relative mode.
	Aligned *align.Result
	// MaxRows caps the histories drawn (0 = all).
	MaxRows int
	// ATCLevel controls medication-band abstraction (default therapeutic).
	ATCLevel abstraction.ATCLevel
	// Tooltips embeds <title> details-on-demand on each mark.
	Tooltips bool
	// Legend draws the medication-class legend.
	Legend bool
	// Highlights marks rows with a colored margin bar — the change
	// indication Section II.C demands ("the visualization should not
	// presume that a user is able to detect changes between views
	// without a way of highlighting the change"). Keyed by patient.
	Highlights map[model.PatientID]string
	// Banner is an optional annotation line drawn above the plot (the
	// diff summary uses it).
	Banner string
	// DetailPatient/DetailAt render the paper's detail panel ("dynamic
	// displays showing detailed information about the history content
	// under the mouse cursor") for a cursor position at the bottom of
	// the image. Zero values disable the panel.
	DetailPatient model.PatientID
	DetailAt      model.Time
}

func (o *TimelineOptions) defaults() {
	if o.Width <= 0 {
		o.Width = 1200
	}
	if o.Height <= 0 {
		o.Height = 700
	}
	if o.ZoomX < 1 {
		o.ZoomX = 1
	}
	if o.ZoomY < 1 {
		o.ZoomY = 1
	}
	if o.ATCLevel == 0 {
		o.ATCLevel = abstraction.ATCTherapeutic
	}
}

const (
	marginLeft   = 78.0
	marginRight  = 14.0
	marginTop    = 26.0
	marginBottom = 34.0
	legendWidth  = 170.0
)

// Timeline renders the collection.
func Timeline(col *model.Collection, opt TimelineOptions) string {
	return string(AppendTimeline(nil, col, opt))
}

// AppendTimeline appends the rendered collection to dst: its first MaxRows
// histories, on the time axis its whole span (or the alignment's) sets. A
// caller assembling a larger document (the web pages) draws into its own
// buffer instead of copying a string in.
func AppendTimeline(dst []byte, col *model.Collection, opt TimelineOptions) []byte {
	rows := col.Histories()
	if opt.MaxRows > 0 && len(rows) > opt.MaxRows {
		rows = rows[:opt.MaxRows]
	}
	var domain model.Period
	if opt.Aligned != nil {
		domain = opt.Aligned.Span()
	} else {
		domain = col.Span()
	}
	var detail *model.History
	if opt.DetailPatient != 0 {
		detail = col.Get(opt.DetailPatient)
	}
	return AppendRows(dst, rows, domain, detail, opt)
}

// AppendRows is the one drawing routine, behind Timeline and the cohort
// view alike: it draws exactly rows, scaled to domain — a view of a large
// cohort hands it the rows it fetched and the span the shards tallied,
// never the cohort. detail is the history opt.DetailPatient names (nil
// draws no panel); opt.MaxRows is not consulted.
func AppendRows(dst []byte, rows []*model.History, domain model.Period, detail *model.History, opt TimelineOptions) []byte {
	opt.defaults()
	if domain.Empty() {
		domain.End = domain.Start + model.Day
	}

	legendW := 0.0
	if opt.Legend {
		legendW = legendWidth
	}
	plotW := (opt.Width - marginLeft - marginRight - legendW) * opt.ZoomX
	rowH := 14.0 * opt.ZoomY
	plotH := rowH * float64(len(rows))
	if plotH < rowH {
		plotH = rowH
	}

	// Detail panel content, sized before the canvas is fixed.
	var detailLines []string
	if detail != nil {
		detailLines = Details(detail, opt.DetailAt, 3*model.Day)
		header := fmt.Sprintf("details: %s @ %s", opt.DetailPatient, opt.DetailAt)
		detailLines = append([]string{header}, detailLines...)
	}
	panelH := 0.0
	if len(detailLines) > 0 {
		panelH = float64(len(detailLines))*13 + 16
	}

	docW := marginLeft + plotW + marginRight + legendW
	docH := marginTop + plotH + marginBottom + panelH

	s := newSVG(dst, docW, docH)
	s.Rect(0, 0, docW, docH, "fill", "#ffffff")

	offset := func(h *model.History) model.Time {
		if opt.Aligned != nil {
			return opt.Aligned.Offsets[h.Patient.ID]
		}
		return 0
	}
	x := func(t model.Time) float64 {
		frac := float64(t-domain.Start) / float64(domain.Duration())
		return marginLeft + frac*plotW
	}

	colors := NewClassColors()
	drawAxes(s, domain, opt, plotW, plotH)

	if opt.Banner != "" {
		s.Comment("banner")
		s.Text(marginLeft, marginTop-10, opt.Banner, "font-size", "11", "fill", ColorAxis, "font-style", "italic")
	}

	s.Comment("patient histories")
	// A row's size follows its entry count, so the bytes per entry drawn so
	// far tell what the whole plot needs; reserving that (plus an eighth for
	// drift and the labels and legend that follow) keeps append's own 1.25×
	// steps from copying a large drawing five times on its way up.
	entries := 0
	for _, h := range rows {
		entries += h.Len()
	}
	rowsStart, drawn := len(s.buf), 0
	for i, h := range rows {
		top := marginTop + float64(i)*rowH
		if color, ok := opt.Highlights[h.Patient.ID]; ok {
			s.Rect(marginLeft-6, top+rowH*0.1, 3, rowH*0.8, "fill", color)
		}
		drawHistoryRow(s, h, top, rowH, x, offset(h), domain, colors, opt)
		if drawn += h.Len(); drawn > 0 {
			used := len(s.buf) - rowsStart
			want := (used/drawn + 1) * entries
			s.buf = slices.Grow(s.buf, want+want/8-used)
		}
	}

	// Y axis labels: patient IDs, thinned when crowded.
	s.Comment("patient id axis")
	step := 1
	if maxLabels := int(plotH / 12); maxLabels > 0 && len(rows) > maxLabels {
		step = (len(rows) + maxLabels - 1) / maxLabels
	}
	for i := 0; i < len(rows); i += step {
		top := marginTop + float64(i)*rowH
		s.Text(4, top+rowH*0.7, rows[i].Patient.ID.String(),
			"font-size", "9", "fill", ColorAxis)
	}

	// Alignment rule at relative time zero.
	if opt.Aligned != nil {
		s.Comment("alignment point")
		s.Line(x(0), marginTop, x(0), marginTop+plotH,
			"stroke", ColorAnchorLine, "stroke-width", "1.2", "stroke-dasharray", "4 2")
	}

	if opt.Legend {
		drawLegend(s, colors, marginLeft+plotW+marginRight, marginTop)
	}

	if len(detailLines) > 0 {
		s.Comment("detail panel")
		panelTop := marginTop + plotH + marginBottom - 6
		s.Rect(marginLeft, panelTop, plotW, panelH, "fill", "#f6f6f6", "stroke", ColorGridLine)
		for i, line := range detailLines {
			weight := "normal"
			if i == 0 {
				weight = "bold"
			}
			s.Text(marginLeft+6, panelTop+16+float64(i)*13, line,
				"font-size", "10", "fill", ColorAxis, "font-weight", weight)
		}
	}
	return s.Bytes()
}

// drawHistoryRow draws one gray bar with its bands and marks.
func drawHistoryRow(s *SVG, h *model.History, top, rowH float64,
	x func(model.Time) float64, off model.Time, domain model.Period,
	colors *ClassColors, opt TimelineOptions) {

	rel := func(t model.Time) model.Time { return t - off }
	span := h.Span()
	barY := top + rowH*0.25
	barH := rowH * 0.5

	// The gray history bar.
	x0, x1 := x(rel(span.Start)), x(rel(span.End))
	if x1 <= x0 {
		x1 = x0 + 1
	}
	s.Rect(x0, barY, x1-x0, barH, "fill", ColorHistoryBar)

	// Background colorings: stays, services, medication classes.
	for _, b := range abstraction.ServiceBands(h) {
		color := ColorStay
		if b.Class == "municipal service" {
			color = ColorService
		}
		bx0, bx1 := x(rel(b.Period.Start)), x(rel(b.Period.End))
		if b.OpenEnd {
			// Uncertain end: solid body plus a fading tail — the
			// "strip of paint" metaphor (Chittaro & Combi) for an
			// interval of unknown length.
			solidEnd := bx0 + (bx1-bx0)*0.7
			drawBand(s, bx0, solidEnd, top+rowH*0.1, rowH*0.8, color, b.Title+" (ongoing)", opt)
			steps := 4
			for i := 0; i < steps; i++ {
				fx0 := solidEnd + (bx1-solidEnd)*float64(i)/float64(steps)
				fx1 := solidEnd + (bx1-solidEnd)*float64(i+1)/float64(steps)
				op := 0.6 * (1 - float64(i)/float64(steps))
				s.Rect(fx0, top+rowH*0.1, fx1-fx0, rowH*0.8,
					"fill", color, "fill-opacity", num(op))
			}
			continue
		}
		drawBand(s, bx0, bx1, top+rowH*0.1, rowH*0.8, color, b.Title, opt)
	}
	for _, b := range abstraction.MedicationBands(h, opt.ATCLevel, 14*model.Day) {
		color := colors.Color(b.Class)
		title := b.Class
		if b.Title != "" {
			title = b.Class + " " + b.Title
		}
		bx0, bx1 := x(rel(b.Period.Start)), x(rel(b.Period.End))
		drawBand(s, bx0, bx1, top+rowH*0.72, rowH*0.22, color, title, opt)
	}

	// Marks. A tooltip is appended piece by piece, and only when tooltips
	// are on: a view without them never looks a title up.
	icpc := terminology.ForICPC2()
	icd := terminology.ForICD10()
	for i := range h.Entries {
		e := &h.Entries[i]
		ex := x(rel(e.Start))
		switch e.Type {
		case model.TypeContact:
			s.Line(ex, barY, ex, barY+barH, "stroke", ColorContact, "stroke-width", "0.6")
		case model.TypeDiagnosis:
			if opt.Tooltips {
				s.openTitle()
				s.esc(e.Code.String())
				var t string
				switch e.Code.System {
				case "ICPC2":
					t = icpc.Title(e.Code.Value)
				case "ICD10":
					t = icd.Title(e.Code.Value)
				}
				if t != "" {
					s.raw(" ")
					s.esc(t)
				}
				s.closeTitle()
			}
			size := rowH * 0.32
			s.Rect(ex-size/2, top+rowH*0.08, size, size, "fill", ColorDiagnosis)
			if opt.Tooltips {
				s.EndGroup()
			}
		case model.TypeMeasurement:
			if opt.Tooltips {
				s.openTitle()
				s.raw("BP ")
				s.buf = strconv.AppendFloat(s.buf, e.Value, 'f', 0, 64) // fmt's %.0f
				s.raw("/")
				s.buf = strconv.AppendFloat(s.buf, e.Aux, 'f', 0, 64)
				s.closeTitle()
			}
			// The blood-pressure arrow: an upward triangle.
			sz := rowH * 0.35
			s.Polygon([]float64{
				ex, top + rowH*0.58,
				ex - sz/2, top + rowH*0.58 + sz,
				ex + sz/2, top + rowH*0.58 + sz,
			}, "fill", ColorArrow)
			if opt.Tooltips {
				s.EndGroup()
			}
		}
	}
}

func drawBand(s *SVG, x0, x1, y, h float64, color, title string, opt TimelineOptions) {
	if x1 <= x0 {
		x1 = x0 + 0.5
	}
	titled := opt.Tooltips && title != ""
	if titled {
		s.TitledGroup(title)
	}
	s.Rect(x0, y, x1-x0, h, "fill", color, "fill-opacity", "0.75")
	if titled {
		s.EndGroup()
	}
}

// drawAxes renders the horizontal axis: calendar dates, or month offsets in
// aligned mode ("the axis shows the number of months before and after the
// alignment point").
func drawAxes(s *SVG, domain model.Period, opt TimelineOptions, plotW, plotH float64) {
	s.Comment("time axis")
	axisY := marginTop + plotH
	s.Line(marginLeft, axisY, marginLeft+plotW, axisY, "stroke", ColorAxis, "stroke-width", "1")

	x := func(t model.Time) float64 {
		frac := float64(t-domain.Start) / float64(domain.Duration())
		return marginLeft + frac*plotW
	}

	if opt.Aligned != nil {
		// Month ticks around zero.
		startM := int(domain.Start / model.Month)
		endM := int(domain.End/model.Month) + 1
		stepM := niceStep(endM-startM, int(plotW/55))
		for m := startM; m <= endM; m += stepM {
			t := model.Time(m) * model.Month
			if t < domain.Start || t > domain.End {
				continue
			}
			tick(s, x(t), axisY, fmt.Sprintf("%+d mo", m))
			s.Line(x(t), marginTop, x(t), axisY, "stroke", ColorGridLine, "stroke-width", "0.5")
		}
		return
	}

	// Calendar ticks at month boundaries, thinned to fit.
	first := domain.Start.DayFloor()
	var months []model.Time
	t := firstOfMonth(first)
	for ; t < domain.End; t = nextMonth(t) {
		if t >= domain.Start {
			months = append(months, t)
		}
	}
	stepM := niceStep(len(months), int(plotW/70))
	for i := 0; i < len(months); i += stepM {
		m := months[i]
		tick(s, x(m), axisY, m.AsTime().Format("2006-01"))
		s.Line(x(m), marginTop, x(m), axisY, "stroke", ColorGridLine, "stroke-width", "0.5")
	}
}

func tick(s *SVG, x, axisY float64, label string) {
	s.Line(x, axisY, x, axisY+4, "stroke", ColorAxis, "stroke-width", "1")
	s.Text(x, axisY+16, label, "font-size", "10", "fill", ColorAxis, "text-anchor", "middle")
}

// niceStep thins n items to at most maxTicks.
func niceStep(n, maxTicks int) int {
	if maxTicks <= 0 {
		maxTicks = 1
	}
	step := 1
	for n/step > maxTicks {
		step++
	}
	return step
}

func firstOfMonth(t model.Time) model.Time {
	tt := t.AsTime()
	return model.Date(tt.Year(), tt.Month(), 1)
}

func nextMonth(t model.Time) model.Time {
	tt := t.AsTime()
	y, m := tt.Year(), tt.Month()
	if m == 12 {
		return model.Date(y+1, 1, 1)
	}
	return model.Date(y, m+1, 1)
}

// drawLegend renders the medication-class legend in assignment order.
func drawLegend(s *SVG, colors *ClassColors, xpos, ypos float64) {
	s.Comment("legend")
	s.Text(xpos, ypos, "Medication classes", "font-size", "11", "fill", ColorAxis, "font-weight", "bold")
	classes := make([]string, 0, colors.Len())
	for class := range colors.assigned {
		classes = append(classes, class)
	}
	sort.Strings(classes)
	atc := terminology.ForATC()
	for i, class := range classes {
		y := ypos + 14 + float64(i)*16
		s.Rect(xpos, y, 12, 10, "fill", colors.assigned[class], "fill-opacity", "0.75")
		label := class
		if t := atc.Title(class); t != "" {
			label += " " + truncate(t, 18)
		}
		s.Text(xpos+16, y+9, label, "font-size", "9", "fill", ColorAxis)
	}
	// Fixed roles.
	base := ypos + 22 + float64(len(classes))*16
	s.Rect(xpos, base, 12, 10, "fill", ColorStay, "fill-opacity", "0.75")
	s.Text(xpos+16, base+9, "hospital stay", "font-size", "9", "fill", ColorAxis)
	s.Rect(xpos, base+16, 12, 10, "fill", ColorService, "fill-opacity", "0.75")
	s.Text(xpos+16, base+25, "municipal service", "font-size", "9", "fill", ColorAxis)
}

func truncate(t string, n int) string {
	if len(t) <= n {
		return t
	}
	return t[:n-1] + "…"
}

// Details returns the details-on-demand text for a history around a time
// point: the paper's "dynamic displays showing detailed information about
// the history content under the mouse cursor". radius bounds the lookup.
func Details(h *model.History, at model.Time, radius model.Time) []string {
	var out []string
	icpc := terminology.ForICPC2()
	icd := terminology.ForICD10()
	atc := terminology.ForATC()
	window := model.Period{Start: at - radius, End: at + radius}
	for _, e := range h.Within(window) {
		line := fmt.Sprintf("%s  %s %s", e.Start, e.Source, e.Type)
		if !e.Code.IsZero() {
			line += " " + e.Code.String()
			var title string
			switch e.Code.System {
			case "ICPC2":
				title = icpc.Title(e.Code.Value)
			case "ICD10":
				title = icd.Title(e.Code.Value)
			case "ATC":
				title = atc.Title(e.Code.Value)
			}
			if title != "" {
				line += " (" + title + ")"
			}
		}
		if e.Type == model.TypeMeasurement {
			line += fmt.Sprintf(" BP %.0f/%.0f", e.Value, e.Aux)
		}
		if e.Kind == model.Interval {
			line += fmt.Sprintf(" [%s → %s]", e.Start, e.End)
		}
		out = append(out, line)
	}
	return out
}
