package render

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"pastas/internal/align"
	"pastas/internal/graph"
	"pastas/internal/model"
	"pastas/internal/query"
)

// The goldens pin every view's bytes to what the fmt-based writer produced
// (captured at the commit before svg.go became an append-style writer): a
// rewrite of the writer may change how the bytes are made, never which.

func openServiceHistory() *model.History {
	h := model.NewHistory(model.Patient{ID: 1, Birth: model.Date(1940, time.June, 1)})
	h.Add(model.Entry{
		ID: 1, Kind: model.Interval,
		Start: model.Date(2010, time.March, 1), End: model.Date(2011, time.December, 31),
		Source: model.SourceMunicipal, Type: model.TypeService,
		Text: "homecare", OpenEnd: true,
	})
	h.Sort()
	return h
}

func goldenGraph(t *testing.T) (*graph.Graph, *graph.Layout) {
	t.Helper()
	g, err := graph.SerialMerge([][]string{
		{"A04", "T90", "K86"},
		{"A04", "T90", "K86"},
		{"D01", "T90", "F92"},
		{"R05", "T90", `K<86>&"q"`},
	}, graph.SerialOptions{Pattern: "T90", Depth: 1})
	if err != nil {
		t.Fatal(err)
	}
	return g, graph.Layered(g)
}

func TestGoldenBytes(t *testing.T) {
	small := testCollection(t, 30)
	large := testCollection(t, 200)

	aligned := align.Align(testCollection(t, 60), align.First(query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", "K86|T90")}))
	if aligned.Col.Len() == 0 {
		t.Fatal("no anchored histories: the aligned golden draws nothing")
	}

	var detail *model.History
	var detailAt model.Time
	for _, cand := range small.Histories() {
		if e := cand.First(func(e *model.Entry) bool { return e.Type == model.TypeDiagnosis }); e != nil {
			detail, detailAt = cand, e.Start
			break
		}
	}
	if detail == nil {
		t.Fatal("no diagnosis in the sample: the detail golden draws no panel")
	}

	before := model.MustCollection(
		chartHistory(1, []int{0}, []string{"T90"}),
		chartHistory(2, []int{0, 10}, []string{"T90", "K86"}),
		chartHistory(3, []int{0}, []string{"R74"}),
	)
	after := model.MustCollection(
		chartHistory(1, []int{0}, []string{"T90"}),
		chartHistory(2, []int{0}, []string{"T90"}),
		chartHistory(4, []int{0, 5}, []string{"K75", "K77"}),
	)
	g, layout := goldenGraph(t)

	// Frequent enough in the synthetic population to draw dozens of hits.
	seq := query.Sequence{Steps: []query.Step{
		{Pred: query.MustCode("", "R74")},
		{Pred: query.MustCode("", "A30|L03|R05"), MaxGap: query.Days(365)},
	}}
	busiest := small.Histories()[0]
	for _, h := range small.Histories() {
		if h.Len() > busiest.Len() {
			busiest = h
		}
	}

	cases := []struct {
		name   string
		render func() string
		want   string
	}{
		{"calendar+tooltips+legend", func() string {
			return Timeline(small, TimelineOptions{Tooltips: true, Legend: true})
		}, "f7c2d60dba76e5a6a7b28876f13d0b0034d72cd770f7f32f1f9aad015d7e09b0"},
		{"plain", func() string { return Timeline(small, TimelineOptions{}) }, "9cb0f89f5f32f173e73e1a7569c9f1ef9b92f15dba95eba90678b96e217044c8"},
		{"aligned", func() string { return Timeline(aligned.Col, TimelineOptions{Aligned: aligned}) }, "c8d5724f875f403044ee0ca6b3021f114ddc06fffda68220ecf3e0772b14ea40"},
		{"cohort view: 50 rows of 200", func() string {
			return Timeline(large, TimelineOptions{MaxRows: 50, Tooltips: true, Legend: true})
		}, "652d6599ac7d1d1d9e6eb5165d3c01e04d1bff6b6d03ea1571080d8f19b9258e"},
		{"patient page", func() string {
			return Timeline(model.MustCollection(busiest), TimelineOptions{
				Width: 1000, Height: 220, ZoomY: 5, Tooltips: true, Legend: true})
		}, "359ec028090577b5f41915acc457d3a044b389cb99ed4edcdf616b6963a24721"},
		{"zoomed", func() string {
			return Timeline(small, TimelineOptions{ZoomX: 3.3, ZoomY: 1.7, Legend: true})
		}, "1886acf46e535b2b6e9dbf92adb7bfc8a6b3ac4040ce4dd3907fd41957c82e00"},
		{"detail panel", func() string {
			return Timeline(small, TimelineOptions{DetailPatient: detail.Patient.ID, DetailAt: detailAt})
		}, "8b79f69b0cb655e3d4d8681512d8460d0063acab6f3fb6725f9f45493ee54e92"},
		{"highlights+banner", func() string {
			svg, _ := TimelineDiff(before, after, TimelineOptions{})
			return svg
		}, "a3ef9bcd3e7abe0783c07bf11c0d462ab89479600cf3546d4481a8317870cf94"},
		{"escaped banner", func() string {
			return Timeline(after, TimelineOptions{Banner: `a < b && "c" > d -- e`})
		}, "7d65ad7d9618741e84760769a5d92bcd9799269ae3cecbf23187d45b6be127e4"},
		{"escaped tooltip", func() string {
			return Timeline(model.MustCollection(chartHistory(9, []int{0, 3}, []string{`K<8&6>"`, "T90"})),
				TimelineOptions{Tooltips: true})
		}, "a5028a85a80190122731bc08b859ce359e98be2d2393fe1067498bcef4529763"},
		{"open-ended service fade", func() string {
			return Timeline(model.MustCollection(openServiceHistory()), TimelineOptions{Tooltips: true})
		}, "d07b279ccca4b6adb01b1353626a3efa433b9b47449a577d84f675c5bac0cd89"},
		{"empty collection", func() string {
			return Timeline(model.MustCollection(), TimelineOptions{Legend: true})
		}, "b81ca377ba0f8b46c678886984b30fad80483c20ba9455141a9b54dfb80b8f4f"},
		{"event chart", func() string {
			return EventChart(large, seq, EventChartOptions{Tooltips: true})
		}, "8eb60cd553c2f7b22247ed65c29f2fe0a42c4e6c6e7fbd069c783db666041120"},
		{"event chart, capped, no tooltips", func() string {
			return EventChart(large, seq, EventChartOptions{MaxLines: 3, Width: 640})
		}, "c6d579bb3ec4153bce682d85e13ba33d82e5d2dbf730e2711faad4ebf89b0dad"},
		{"graph, labels", func() string { return Graph(g, layout, GraphOptions{Labels: true}) }, "9f79add84b2db8c17e549f1a9b24276d6a177f74653ff29ee824ed050336fc21"},
		{"graph, zoomed out", func() string {
			return Graph(g, layout, GraphOptions{NodeSpacingX: 22.5, NodeSpacingY: 9.25, MaxEdgeWidth: 3})
		}, "87b2bb6d02625dfe4a359bba0d19d2b64bbbbf51dd6948fab7ebb3dd45b93198"},
		{"stimulus, feature", func() string {
			svg, _ := PreattentiveStimulus(StimulusOptions{Distractors: 20, Seed: 1})
			return svg
		}, "2b875964d6c768d7a89f3f4c5e230079f40318f75c27e0c519131a10848a820f"},
		{"stimulus, conjunction", func() string {
			svg, _ := PreattentiveStimulus(StimulusOptions{Distractors: 33, Conjunction: true, Seed: 7, Size: 301})
			return svg
		}, "47c95646d2bf9caff9c5c688bcac2a8512463388019b8d24b3b7324d692ed08c"},
	}
	for _, c := range cases {
		out := c.render()
		sum := sha256.Sum256([]byte(out))
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", c.name, len(out), got, c.want)
		}
	}
}
