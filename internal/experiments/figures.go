package experiments

import (
	"fmt"
	"strings"

	"pastas/internal/align"
	"pastas/internal/core"
	"pastas/internal/graph"
	"pastas/internal/model"
	"pastas/internal/perception"
	"pastas/internal/query"
	"pastas/internal/render"
)

// F1Workbench regenerates Fig. 1: the main workbench window over a chronic
// sub-cohort — gray history bars, diagnosis rectangles, blood-pressure
// arrows, medication-class colorings, axes and zoom.
func (s *Suite) F1Workbench() (Result, error) {
	col, err := s.panel(core.StudyCriteria(s.Window), 100, 1)
	if err != nil {
		return Result{}, err
	}

	// The detail panel shows the cursor hovering the first patient's
	// first diagnosis, as in the screenshot's bottom display.
	opt := render.TimelineOptions{Tooltips: true, Legend: true}
	if col.Len() > 0 {
		h := col.At(0)
		if e := h.First(func(e *model.Entry) bool { return e.Type == model.TypeDiagnosis }); e != nil {
			opt.DetailPatient = h.Patient.ID
			opt.DetailAt = e.Start
		}
	}
	svg := render.Timeline(col, opt)
	path, err := s.writeArtifact("fig1_workbench.svg", svg)
	if err != nil {
		return Result{}, err
	}

	// The aligned variant: months relative to first hypertension control.
	res := align.Align(col, align.First(query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", "K86|K87|T90")}))
	var alignedPath string
	if res.Col.Len() > 0 {
		alignedSVG := render.Timeline(res.Col, render.TimelineOptions{Aligned: res, Tooltips: true})
		alignedPath, err = s.writeArtifact("fig1_workbench_aligned.svg", alignedSVG)
		if err != nil {
			return Result{}, err
		}
	}

	encodings := []string{
		render.ColorHistoryBar, // gray bars
		render.ColorDiagnosis,  // diagnosis rectangles
		render.ColorArrow,      // BP arrows
		"Medication classes",   // class legend
		"time axis",
	}
	missing := 0
	for _, enc := range encodings {
		if !strings.Contains(svg, enc) {
			missing++
		}
	}

	r := Result{
		ID:    "F1",
		Title: "Workbench timeline view (Fig. 1)",
		Paper: "gray bar per history; rectangles = diagnoses; arrows = blood pressure; colors = medication classes; details under cursor; calendar or aligned axis; two zoom sliders",
		Measured: fmt.Sprintf("%d-patient panel rendered, %d KiB SVG, all %d encodings present, aligned variant with %d/%d histories anchored",
			col.Len(), len(svg)/1024, len(encodings)-missing, res.Col.Len(), col.Len()),
		Pass: missing == 0 && col.Len() > 0,
	}
	if path != "" {
		r.Details = append(r.Details, "artifact: "+path)
	}
	if alignedPath != "" {
		r.Details = append(r.Details, "artifact: "+alignedPath)
	}
	return r, nil
}

// diabeticSequences extracts ICPC-2 diagnosis sequences for patients with
// a T90 diagnosis, NSEPter's Fig. 2 input.
func (s *Suite) diabeticSequences(max int) ([][]string, error) {
	col, err := s.panel(query.Has{
		Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICPC2", "T90")},
	}, max, 2)
	if err != nil {
		return nil, err
	}
	var seqs [][]string
	for _, h := range col.Histories() {
		var seq []string
		for _, c := range h.CodeSequence(model.TypeDiagnosis) {
			if c.System == "ICPC2" {
				seq = append(seq, c.Value)
			}
		}
		if len(seq) >= 2 {
			seqs = append(seqs, seq)
		}
	}
	return seqs, nil
}

// F2aMergedGraph regenerates Fig. 2a: a small diabetes graph merged around
// the first incidence of T90, edge thickness scaling with history count.
func (s *Suite) F2aMergedGraph() (Result, error) {
	seqs, err := s.diabeticSequences(12)
	if err != nil {
		return Result{}, err
	}
	g, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", MaxOccurrences: 1, Depth: 2})
	if err != nil {
		return Result{}, err
	}
	l := graph.Layered(g)
	svg := render.Graph(g, l, render.GraphOptions{Labels: true})
	path, err := s.writeArtifact("fig2a_graph.svg", svg)
	if err != nil {
		return Result{}, err
	}

	anchorHistories := 0
	for _, n := range g.Nodes {
		if n.Anchor && n.Histories() > anchorHistories {
			anchorHistories = n.Histories()
		}
	}
	r := Result{
		ID:    "F2a",
		Title: "NSEPter merged graph around first T90 (Fig. 2a)",
		Paper: "thicker lines indicate several patients follow the same path before and after the diabetes code T90, the first occurrence merged across all histories",
		Measured: fmt.Sprintf("%d histories; anchor merges %d histories; %d nodes, %d edges, compression %.2fx, max edge weight %d",
			len(seqs), anchorHistories, len(g.Nodes), len(g.Edges), g.Compression(), g.MaxEdgeWeight()),
		Pass: anchorHistories == len(seqs) && g.MaxEdgeWeight() > 1,
	}
	if path != "" {
		r.Details = append(r.Details, "artifact: "+path)
	}
	return r, nil
}

// F2bZoomedOut regenerates Fig. 2b: several hundred patients in one merged
// graph, quantifying the crowding that made it "virtually unreadable".
func (s *Suite) F2bZoomedOut() (Result, error) {
	seqs, err := s.diabeticSequences(400)
	if err != nil {
		return Result{}, err
	}
	small := seqs
	if len(small) > 12 {
		small = small[:12]
	}
	gSmall, err := graph.SerialMerge(small, graph.SerialOptions{Pattern: "T90", Depth: 2})
	if err != nil {
		return Result{}, err
	}
	gLarge, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", Depth: 2})
	if err != nil {
		return Result{}, err
	}
	lSmall, lLarge := graph.Layered(gSmall), graph.Layered(gLarge)
	crossSmall := graph.Crossings(gSmall, lSmall)
	crossLarge := graph.Crossings(gLarge, lLarge)

	svg := render.Graph(gLarge, lLarge, render.GraphOptions{Labels: false, NodeSpacingX: 40, NodeSpacingY: 14})
	path, err := s.writeArtifact("fig2b_zoomed_out.svg", svg)
	if err != nil {
		return Result{}, err
	}

	r := Result{
		ID:    "F2b",
		Title: "Zoomed-out merged graph, several hundred patients (Fig. 2b)",
		Paper: "the graphs quickly became crowded and virtually unreadable ... basically a web of edges; with larger zoom factors context was lost",
		Measured: fmt.Sprintf("%d histories: %d nodes, %d edges, %d crossings, max %d nodes per column (vs %d histories: %d crossings)",
			len(seqs), len(gLarge.Nodes), len(gLarge.Edges), crossLarge, lLarge.MaxPerCol,
			len(small), crossSmall),
		Pass: crossLarge > 10*maxInt(crossSmall, 1) && lLarge.MaxPerCol > 3*lSmall.MaxPerCol,
	}
	if path != "" {
		r.Details = append(r.Details, "artifact: "+path)
	}
	return r, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// F3Preattentive regenerates Fig. 3 and the flat-vs-linear search result
// that motivates the encoding rules.
func (s *Suite) F3Preattentive() (Result, error) {
	feat, _ := render.PreattentiveStimulus(render.StimulusOptions{Distractors: 48, Seed: 3})
	conj, _ := render.PreattentiveStimulus(render.StimulusOptions{Distractors: 48, Conjunction: true, Seed: 3})
	p1, err := s.writeArtifact("fig3_feature.svg", feat)
	if err != nil {
		return Result{}, err
	}
	p2, err := s.writeArtifact("fig3_conjunction.svg", conj)
	if err != nil {
		return Result{}, err
	}

	trials := 400
	if s.Cfg.Quick {
		trials = 100
	}
	m := perception.DefaultModel()
	ns := []int{1, 5, 10, 20, 30, 50}
	featSeries := m.Series(perception.Feature, ns, trials, s.Cfg.Seed)
	conjSeries := m.Series(perception.Conjunction, ns, trials, s.Cfg.Seed)
	_, featSlope := perception.FitLine(featSeries)
	_, conjSlope := perception.FitLine(conjSeries)

	r := Result{
		ID:    "F3",
		Title: "Preattentive pop-out vs conjunction search (Fig. 3)",
		Paper: "time to find the red circle is independent of the number of distracting elements; conjunction search time increases linearly",
		Measured: fmt.Sprintf("feature slope %.1f ms/item (flat), conjunction slope %.1f ms/item (linear), %d trials/cell",
			featSlope, conjSlope, trials),
		Pass: featSlope < 5 && conjSlope >= 15 && conjSlope <= 40,
		Details: []string{
			strings.TrimSpace(perception.FormatSeries(perception.Feature, featSeries)),
			strings.TrimSpace(perception.FormatSeries(perception.Conjunction, conjSeries)),
		},
	}
	if p1 != "" {
		r.Details = append(r.Details, "artifact: "+p1, "artifact: "+p2)
	}
	return r, nil
}

// F4QueryBuilder regenerates Fig. 4: the Query-Builder constructing the
// paper's eye-or-ear disjunction, serialized, parsed back and executed.
func (s *Suite) F4QueryBuilder() (Result, error) {
	spec := query.NewBuilder().
		HasCodeIn("ICPC2", `F.*|H.*`).
		MinContacts("gp", 2).
		Spec()
	data, err := spec.MarshalJSONSpec()
	if err != nil {
		return Result{}, err
	}
	path, err := s.writeArtifact("fig4_query.json", string(data))
	if err != nil {
		return Result{}, err
	}

	back, err := query.ParseSpec(data)
	if err != nil {
		return Result{}, err
	}
	expr, err := back.Compile()
	if err != nil {
		return Result{}, err
	}
	bits, err := s.WB.Query(expr)
	if err != nil {
		return Result{}, err
	}
	count := bits.Count()

	// The disjunction must equal the union of its branches.
	eye, err := s.WB.Query(query.Has{
		Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICPC2", `F.*`)}})
	if err != nil {
		return Result{}, err
	}
	ear, err := s.WB.Query(query.Has{
		Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICPC2", `H.*`)}})
	if err != nil {
		return Result{}, err
	}
	gp2, err := s.WB.Query(query.Has{
		Pred:     query.AllOf{query.TypeIs(model.TypeContact), query.SourceIs(model.SourceGP)},
		MinCount: 2})
	if err != nil {
		return Result{}, err
	}
	union := eye.Or(ear).And(gp2)

	r := Result{
		ID:    "F4",
		Title: "Query-Builder over code hierarchies (Fig. 4)",
		Paper: "to specify diagnoses concerning the eye (F) or ear (H) one may specify the regular expression F.*|H.*; a graphical user interface fronts the regexes",
		Measured: fmt.Sprintf("builder → JSON → parse → compile round-trip OK; F.*|H.* ∧ ≥2 GP contacts selects %d of %d patients; equals branch-union (%d)",
			count, s.WB.Patients(), union.Count()),
		Pass: count > 0 && count == union.Count(),
	}
	if path != "" {
		r.Details = append(r.Details, "artifact: "+path)
	}
	return r, nil
}

// --- MSA demo shared with A1 ------------------------------------------------

// msaRecovery measures, for each backbone code, the largest fraction of
// histories a single node captures.
func msaRecovery(g *graph.Graph, backbone []string, histories int) float64 {
	if histories == 0 {
		return 0
	}
	total := 0.0
	for _, code := range backbone {
		total += float64(g.LargestMerge(code)) / float64(histories)
	}
	return total / float64(len(backbone))
}
