package pastas_test

import (
	"strings"
	"testing"

	"pastas"
)

// The facade smoke test: the public API alone supports the quickstart flow.
func TestFacadeQuickstartFlow(t *testing.T) {
	wb, err := pastas.Synthesize(pastas.DefaultSynthConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	if wb.Patients() != 300 {
		t.Fatalf("patients = %d", wb.Patients())
	}

	// Cohort via the Query-Builder.
	q, err := pastas.NewQueryBuilder().HasCode(`T90|E11(\..*)?`).Compile()
	if err != nil {
		t.Fatal(err)
	}
	diabetics, err := wb.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if diabetics.Count() == 0 {
		t.Fatal("no diabetics at n=300")
	}

	// Session: extract, align, render.
	sess, err := pastas.NewSession(wb)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Extract(q); err != nil {
		t.Fatal(err)
	}
	anchor, err := pastas.AlignFirst("T90")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.AlignOn(anchor); err != nil {
		t.Fatal(err)
	}
	svg := sess.RenderTimeline(pastas.TimelineOptions{MaxRows: 20})
	if !strings.Contains(svg, "<svg") {
		t.Error("render failed")
	}

	// Study criteria + survey.
	study, err := wb.Query(pastas.StudyCriteria(wb.Window))
	if err != nil {
		t.Fatal(err)
	}
	col, err := wb.Histories(study)
	if err != nil {
		t.Fatal(err)
	}
	res := pastas.SimulateSurvey(col, pastas.DefaultSurveyParams())
	if res.N != study.Count() {
		t.Error("survey size mismatch")
	}

	// Details-on-demand through the facade.
	h := wb.Store.Collection().At(0)
	if h.Len() > 0 {
		if lines := pastas.Details(h, h.Entries[0].Start, 3*pastas.Day); len(lines) == 0 {
			t.Error("no details")
		}
	}

	// Spec JSON round trip.
	spec := pastas.NewQueryBuilder().HasCodeIn("ICPC2", `F.*|H.*`).Spec()
	data, err := spec.MarshalJSONSpec()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pastas.ParseQuerySpec(data); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeDate(t *testing.T) {
	d := pastas.Date(2010, 3, 5)
	if d.String() != "2010-03-05" {
		t.Errorf("Date = %s", d)
	}
	if pastas.ShneidermanLimit.Milliseconds() != 100 {
		t.Error("budget constant wrong")
	}
}
