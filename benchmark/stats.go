package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of samples by linear interpolation
// between order statistics (the samples are sorted in place).
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sort.Float64s(samples)
	pos := q * float64(len(samples)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return samples[lo] + (samples[hi]-samples[lo])*(pos-float64(lo))
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailSupported reports whether n samples leave at least ten beyond the
// q-quantile — the rule for which tail percentile a metric may name.
func tailSupported(n int, q float64) bool {
	return float64(n)*(1-q) >= 10-1e-9 // 100 × (1 − 0.9) is 9.999… in floating point
}

// highestSupported is the highest of the usual tail percentiles that n
// samples support, or 0 when not even p75 has ten samples beyond it.
func highestSupported(n int) float64 {
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if tailSupported(n, q) {
			return q
		}
	}
	return 0
}

// span is one timed interval of the traced pass: a rung of one operation.
// Parent is the index of the enclosing span in the trace, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
}

// selfTimes returns each span's duration minus the part of it its child
// spans cover (children of one span never overlap here: one client).
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
	}
	for _, s := range spans {
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	return self
}
