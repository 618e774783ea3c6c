package render

import (
	"fmt"
	"sort"

	"pastas/internal/graph"
)

// GraphOptions configures the Fig. 2 NSEPter view.
type GraphOptions struct {
	// NodeSpacingX/Y are pixels between layers and stacked nodes.
	NodeSpacingX, NodeSpacingY float64
	// Labels draws code labels inside nodes (off for zoomed-out views,
	// where the paper notes "context was lost").
	Labels bool
	// MaxEdgeWidth is the stroke width of the heaviest edge ("common
	// edges ... were scaled according to the number of histories").
	MaxEdgeWidth float64
}

func (o *GraphOptions) defaults() {
	if o.NodeSpacingX <= 0 {
		o.NodeSpacingX = 90
	}
	if o.NodeSpacingY <= 0 {
		o.NodeSpacingY = 34
	}
	if o.MaxEdgeWidth <= 0 {
		o.MaxEdgeWidth = 6
	}
}

// Graph renders a merged NSEPter graph with its layered layout.
func Graph(g *graph.Graph, l *graph.Layout, opt GraphOptions) string {
	opt.defaults()

	margin := 50.0
	w := margin*2 + float64(l.Cols-1)*opt.NodeSpacingX
	maxY := 0.0
	for _, y := range l.Y {
		if y > maxY {
			maxY = y
		}
	}
	h := margin*2 + maxY*opt.NodeSpacingY
	if w < 2*margin {
		w = 2 * margin
	}
	if h < 2*margin {
		h = 2 * margin
	}

	s := NewSVG(w, h)
	s.Rect(0, 0, w, h, "fill", "#ffffff")

	px := func(id int) float64 { return margin + l.X[id]*opt.NodeSpacingX }
	py := func(id int) float64 { return margin + l.Y[id]*opt.NodeSpacingY }

	// Edges under nodes, heaviest last so they stay visible.
	s.Comment("edges")
	edges := append([]*graph.Edge(nil), g.Edges...)
	sort.Slice(edges, func(i, j int) bool { return edges[i].Weight < edges[j].Weight })
	maxW := g.MaxEdgeWeight()
	for _, e := range edges {
		width := 0.8
		if maxW > 1 {
			width = 0.8 + (opt.MaxEdgeWidth-0.8)*float64(e.Weight-1)/float64(maxW-1)
		}
		s.Line(px(e.From), py(e.From), px(e.To), py(e.To),
			"stroke", "#555555", "stroke-width", num(width), "stroke-opacity", "0.7")
	}

	s.Comment("nodes")
	for _, n := range g.Nodes {
		fill := "#ffffff"
		stroke := "#333333"
		if n.Anchor {
			fill = "#ffe08a" // the merge seed stands out
			stroke = "#a07000"
		} else if len(n.Members) > 1 {
			fill = "#dcedc8" // merged nodes tinted
		}
		rx := 16.0 + 4*float64(min(n.Histories()-1, 4))
		s.TitledGroup(fmt.Sprintf("%s: %d occurrence(s) in %d history(ies)",
			n.Label, len(n.Members), n.Histories()))
		s.Ellipse(px(n.ID), py(n.ID), rx, 12,
			"fill", fill, "stroke", stroke, "stroke-width", "1")
		if opt.Labels {
			s.Text(px(n.ID), py(n.ID)+3.5, n.Label,
				"font-size", "9", "text-anchor", "middle", "fill", "#111111")
		}
		s.EndGroup()
	}
	return s.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
