// Package stats provides the quantiles the experiment harness reports, the
// utilization tallies behind indicators and cohort profiles, and the
// recognition-survey model behind experiment E2.
package stats

import "sort"

// Quantile returns the q-quantile (0 ≤ q ≤ 1) by linear interpolation.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median is the 0.5 quantile.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }
