package render

import (
	"fmt"

	"pastas/internal/model"
	"pastas/internal/query"
)

// EventChart renders the Fails et al. view the paper relates its design
// to: "the visualisation shows only the time spanned by the search hits, as
// opposed to the traditional event chart showing the entire histories ...
// multiple lines per history, one for each hit of a temporal query. Also,
// events not part of a search hit are only counted."
//
// Each temporal-pattern hit becomes one line: matched entries as filled
// dots at their relative offsets, with the count of unmatched events inside
// the hit span annotated at the line's end.

// EventChartOptions configures the view.
type EventChartOptions struct {
	// Width is the viewport width in pixels (default 900).
	Width float64
	// MaxLines caps the hit lines drawn (0 = all).
	MaxLines int
	// Tooltips embeds details per matched entry.
	Tooltips bool
}

// EventChart renders every hit of the pattern across the collection.
func EventChart(col *model.Collection, seq query.Sequence, opt EventChartOptions) string {
	if opt.Width <= 0 {
		opt.Width = 900
	}

	type hit struct {
		h     *model.History
		match *query.Match
	}
	var hits []hit
	maxSpan := model.Time(0)
	for _, h := range col.Histories() {
		for _, m := range seq.AllMatches(h) {
			hits = append(hits, hit{h, m})
			if d := m.Span().Duration(); d > maxSpan {
				maxSpan = d
			}
		}
	}
	if opt.MaxLines > 0 && len(hits) > opt.MaxLines {
		hits = hits[:opt.MaxLines]
	}
	if maxSpan == 0 {
		maxSpan = model.Day
	}

	rowH := 16.0
	plotW := opt.Width - marginLeft - marginRight - 60 // room for the count
	docH := marginTop + rowH*float64(len(hits)) + marginBottom
	if docH < marginTop+marginBottom+rowH {
		docH = marginTop + marginBottom + rowH
	}
	s := NewSVG(opt.Width, docH)
	s.Rect(0, 0, opt.Width, docH, "fill", "#ffffff")
	s.Comment(fmt.Sprintf("event chart: %d hits of %s", len(hits), seq.String()))

	x := func(rel model.Time) float64 {
		return marginLeft + float64(rel)/float64(maxSpan)*plotW
	}

	for i, ht := range hits {
		y := marginTop + float64(i)*rowH + rowH/2
		span := ht.match.Span()
		s.Text(4, y+3, ht.h.Patient.ID.String(), "font-size", "8", "fill", ColorAxis)
		s.Line(x(0), y, x(span.Duration()), y, "stroke", ColorContact, "stroke-width", "1.2")

		// Matched entries as dots.
		for _, e := range ht.match.Entries {
			cx := x(e.Start - span.Start)
			if opt.Tooltips {
				s.TitledGroup(e.String())
			}
			s.Circle(cx, y, 3.2, "fill", ColorDiagnosis)
			if opt.Tooltips {
				s.EndGroup()
			}
		}

		// Unmatched events inside the span: counted, not drawn.
		matched := make(map[uint64]bool, len(ht.match.Entries))
		for _, e := range ht.match.Entries {
			matched[e.ID] = true
		}
		other := 0
		for _, e := range ht.h.Within(model.Period{Start: span.Start, End: span.End + 1}) {
			if !matched[e.ID] {
				other++
			}
		}
		s.Text(x(span.Duration())+8, y+3, fmt.Sprintf("+%d", other),
			"font-size", "8", "fill", ColorArrow)
	}

	// Relative time axis in days.
	axisY := marginTop + rowH*float64(len(hits)) + 6
	s.Line(marginLeft, axisY, marginLeft+plotW, axisY, "stroke", ColorAxis, "stroke-width", "1")
	days := int(maxSpan / model.Day)
	step := niceStep(days+1, int(plotW/60))
	for d := 0; d <= days; d += step {
		tick(s, x(model.Time(d)*model.Day), axisY, fmt.Sprintf("+%dd", d))
	}
	return s.String()
}
