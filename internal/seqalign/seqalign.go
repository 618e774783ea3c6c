// Package seqalign implements sequence alignment over diagnosis-code
// sequences: global (Needleman-Wunsch) and progressive multiple alignment
// (center-star). The second predecessor
// project [7] "employed alignment methods and different measures to reduce
// the amount of noise" in NSEPter's merging; this package provides those
// methods, with terminology-aware substitution costs (same chapter =
// cheaper) so clinically adjacent codes align.
package seqalign

import (
	"pastas/internal/terminology"
)

// Cost prices edit operations; 0 means identical.
type Cost interface {
	// Sub is the substitution cost between two codes, in [0, 1].
	Sub(a, b string) float64
	// Gap is the insertion/deletion cost.
	Gap() float64
}

// UnitCost is plain edit distance: substitution 1, gap 1.
type UnitCost struct{}

func (UnitCost) Sub(a, b string) float64 {
	if a == b {
		return 0
	}
	return 1
}

func (UnitCost) Gap() float64 { return 1 }

// ChapterCost discounts substitutions within the same chapter of a code
// system: T89 vs T90 costs 0.5, T90 vs K86 costs 1.
type ChapterCost struct {
	System terminology.System
}

func (c ChapterCost) Sub(a, b string) float64 {
	if a == b {
		return 0
	}
	cs := terminology.For(c.System)
	if cs == nil {
		return 1
	}
	ca, cb := cs.Chapter(a), cs.Chapter(b)
	if ca != "" && ca == cb {
		return 0.5
	}
	return 1
}

func (ChapterCost) Gap() float64 { return 1 }

// Pair is one column of a pairwise alignment; -1 marks a gap.
type Pair struct {
	I, J int
}

// Alignment is an ordered list of pairwise columns.
type Alignment []Pair

// Global computes the optimal Needleman-Wunsch alignment of a and b under
// the cost model, returning the alignment and its total cost.
func Global(a, b []string, c Cost) (Alignment, float64) {
	n, m := len(a), len(b)
	gap := c.Gap()

	// dp[i][j] = min cost aligning a[:i] with b[:j].
	dp := make([][]float64, n+1)
	for i := range dp {
		dp[i] = make([]float64, m+1)
	}
	for i := 1; i <= n; i++ {
		dp[i][0] = float64(i) * gap
	}
	for j := 1; j <= m; j++ {
		dp[0][j] = float64(j) * gap
	}
	for i := 1; i <= n; i++ {
		for j := 1; j <= m; j++ {
			sub := dp[i-1][j-1] + c.Sub(a[i-1], b[j-1])
			del := dp[i-1][j] + gap
			ins := dp[i][j-1] + gap
			dp[i][j] = min3(sub, del, ins)
		}
	}

	// Traceback (prefer substitution, then deletion, then insertion, for
	// deterministic alignments).
	var rev Alignment
	i, j := n, m
	for i > 0 || j > 0 {
		switch {
		case i > 0 && j > 0 && dp[i][j] == dp[i-1][j-1]+c.Sub(a[i-1], b[j-1]):
			rev = append(rev, Pair{i - 1, j - 1})
			i--
			j--
		case i > 0 && dp[i][j] == dp[i-1][j]+gap:
			rev = append(rev, Pair{i - 1, -1})
			i--
		default:
			rev = append(rev, Pair{-1, j - 1})
			j--
		}
	}
	// Reverse.
	for l, r := 0, len(rev)-1; l < r; l, r = l+1, r-1 {
		rev[l], rev[r] = rev[r], rev[l]
	}
	return rev, dp[n][m]
}

// Distance is the Global alignment cost alone.
func Distance(a, b []string, c Cost) float64 {
	_, d := Global(a, b, c)
	return d
}

func min3(a, b, c float64) float64 {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
