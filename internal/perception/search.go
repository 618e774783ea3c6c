// Package perception models the two cognitive results the paper builds its
// encoding and responsiveness decisions on: preattentive visual search
// ("the time used to process the visualization is independent of the number
// of distracting elements", vs. conjunction search where it "increases
// linearly") and Shneiderman's 0.1-second response budget for mouse and
// typing actions.
//
// The search model is the standard Treisman-style account: response time =
// base + slope·N + noise, with slope ≈ 0 for feature search and a
// positive per-item cost for conjunction search. Simulating it regenerates
// the flat-vs-linear series behind Fig. 3 (experiment F3).
package perception

import (
	"fmt"
	"math"
	"math/rand"
)

// Mode selects the search task.
type Mode int

const (
	// Feature search: the target differs in one preattentive feature.
	Feature Mode = iota
	// Conjunction search: the target is defined by two features jointly.
	Conjunction
)

func (m Mode) String() string {
	if m == Feature {
		return "feature"
	}
	return "conjunction"
}

// Model holds the response-time parameters in milliseconds. Defaults follow
// the visual-search literature the paper cites (Healey; Treisman & Gelade):
// flat feature search around half a second, conjunction search with a
// 20-30 ms per-item cost on target-present trials.
type Model struct {
	FeatureBase      float64 // ms
	FeatureSlope     float64 // ms per distractor
	ConjunctionBase  float64 // ms
	ConjunctionSlope float64 // ms per distractor
	NoiseSD          float64 // ms, residual variability
}

// DefaultModel returns the literature-calibrated parameters.
func DefaultModel() Model {
	return Model{
		FeatureBase:      480,
		FeatureSlope:     0.6,
		ConjunctionBase:  450,
		ConjunctionSlope: 26,
		NoiseSD:          55,
	}
}

// Trial simulates one search trial and returns the response time in ms.
func (m Model) Trial(rng *rand.Rand, mode Mode, distractors int) float64 {
	var base, slope float64
	switch mode {
	case Feature:
		base, slope = m.FeatureBase, m.FeatureSlope
	default:
		base, slope = m.ConjunctionBase, m.ConjunctionSlope
	}
	rt := base + slope*float64(distractors) + rng.NormFloat64()*m.NoiseSD
	if rt < 150 { // physiological floor
		rt = 150
	}
	return rt
}

// Point is one cell of the search-time series.
type Point struct {
	Distractors int
	MeanRT      float64 // ms
	SD          float64 // ms
	Trials      int
}

// Series simulates trials per distractor count and returns mean response
// times — the data behind the F3 plot.
func (m Model) Series(mode Mode, distractorCounts []int, trials int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Point, 0, len(distractorCounts))
	for _, n := range distractorCounts {
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			rt := m.Trial(rng, mode, n)
			sum += rt
			sumSq += rt * rt
		}
		mean := sum / float64(trials)
		variance := sumSq/float64(trials) - mean*mean
		if variance < 0 {
			variance = 0
		}
		out = append(out, Point{Distractors: n, MeanRT: mean, SD: math.Sqrt(variance), Trials: trials})
	}
	return out
}

// FitLine least-squares fits RT = intercept + slope·N over the series.
func FitLine(points []Point) (intercept, slope float64) {
	n := float64(len(points))
	if n < 2 {
		if n == 1 {
			return points[0].MeanRT, 0
		}
		return 0, 0
	}
	var sx, sy, sxx, sxy float64
	for _, p := range points {
		x, y := float64(p.Distractors), p.MeanRT
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return sy / n, 0
	}
	slope = (n*sxy - sx*sy) / den
	intercept = (sy - slope*sx) / n
	return intercept, slope
}

// FormatSeries renders a series as the table the F3 experiment reports.
func FormatSeries(mode Mode, points []Point) string {
	out := fmt.Sprintf("%s search:\n", mode)
	for _, p := range points {
		out += fmt.Sprintf("  N=%-3d meanRT=%6.1f ms (sd %5.1f, %d trials)\n",
			p.Distractors, p.MeanRT, p.SD, p.Trials)
	}
	_, slope := FitLine(points)
	out += fmt.Sprintf("  slope: %.1f ms/item\n", slope)
	return out
}
