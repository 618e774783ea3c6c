package seqalign

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestGlobalIdentical(t *testing.T) {
	a := []string{"T90", "K86", "R74"}
	aln, cost := Global(a, a, UnitCost{})
	if cost != 0 {
		t.Errorf("cost = %f", cost)
	}
	if len(aln) != 3 {
		t.Fatalf("alignment = %v", aln)
	}
	for i, p := range aln {
		if p.I != i || p.J != i {
			t.Errorf("aln[%d] = %v", i, p)
		}
	}
}

func TestGlobalEditDistance(t *testing.T) {
	// Classic: kitten → sitting as tokens.
	a := []string{"k", "i", "t", "t", "e", "n"}
	b := []string{"s", "i", "t", "t", "i", "n", "g"}
	_, cost := Global(a, b, UnitCost{})
	if cost != 3 {
		t.Errorf("edit distance = %f, want 3", cost)
	}
}

func TestGlobalEmptySequences(t *testing.T) {
	aln, cost := Global(nil, []string{"a", "b"}, UnitCost{})
	if cost != 2 || len(aln) != 2 {
		t.Errorf("empty vs ab: %v %f", aln, cost)
	}
	aln, cost = Global(nil, nil, UnitCost{})
	if cost != 0 || len(aln) != 0 {
		t.Errorf("empty vs empty: %v %f", aln, cost)
	}
}

func TestGlobalCoversAllPositions(t *testing.T) {
	f := func(an, bn uint8) bool {
		rng := rand.New(rand.NewSource(int64(an)*256 + int64(bn)))
		vocab := []string{"T90", "K86", "R74", "A04", "L03"}
		a := make([]string, int(an)%8)
		b := make([]string, int(bn)%8)
		for i := range a {
			a[i] = vocab[rng.Intn(len(vocab))]
		}
		for i := range b {
			b[i] = vocab[rng.Intn(len(vocab))]
		}
		aln, cost := Global(a, b, UnitCost{})
		// Every position appears exactly once, in order.
		ai, bi := 0, 0
		for _, p := range aln {
			if p.I >= 0 {
				if p.I != ai {
					return false
				}
				ai++
			}
			if p.J >= 0 {
				if p.J != bi {
					return false
				}
				bi++
			}
		}
		if ai != len(a) || bi != len(b) {
			return false
		}
		// Cost bounded by the trivial alignments.
		maxLen := len(a)
		if len(b) > maxLen {
			maxLen = len(b)
		}
		return cost <= float64(len(a)+len(b)) && cost >= float64(maxLen-minInt(len(a), len(b)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestDistanceSymmetry(t *testing.T) {
	a := []string{"T90", "K86", "R74"}
	b := []string{"T90", "R74"}
	if Distance(a, b, UnitCost{}) != Distance(b, a, UnitCost{}) {
		t.Error("distance not symmetric")
	}
}

func TestChapterCost(t *testing.T) {
	c := ChapterCost{System: "ICPC2"}
	if c.Sub("T90", "T90") != 0 {
		t.Error("identical should be 0")
	}
	if c.Sub("T90", "T89") != 0.5 {
		t.Error("same chapter should be 0.5")
	}
	if c.Sub("T90", "K86") != 1 {
		t.Error("cross chapter should be 1")
	}
	if c.Sub("???", "!!!") != 1 {
		t.Error("unknown codes should be 1")
	}
	// Chapter-aware alignment prefers pairing T89 with T90.
	a := []string{"A04", "T89", "R74"}
	b := []string{"T90", "R74"}
	aln, _ := Global(a, b, c)
	var pairedT bool
	for _, p := range aln {
		if p.I == 1 && p.J == 0 {
			pairedT = true
		}
	}
	if !pairedT {
		t.Errorf("chapter cost did not pair T89/T90: %v", aln)
	}
}

func TestMSATrivialCases(t *testing.T) {
	if m := Align(nil, UnitCost{}); len(m.Rows) != 0 || !m.Consistent() {
		t.Error("empty MSA broken")
	}
	m := Align([][]string{{"T90", "K86"}}, UnitCost{})
	if len(m.Rows[0]) != 2 || !m.Consistent() {
		t.Error("single-sequence MSA broken")
	}
}

func TestMSAIdenticalSequences(t *testing.T) {
	seq := []string{"T90", "K86", "R74"}
	m := Align([][]string{seq, seq, seq}, UnitCost{})
	if !m.Consistent() {
		t.Fatal("inconsistent MSA")
	}
	if len(m.Rows[0]) != 3 {
		t.Errorf("columns = %d", len(m.Rows[0]))
	}
	// All rows identical, no gaps.
	for _, row := range m.Rows {
		if !reflect.DeepEqual(row, seq) {
			t.Errorf("row = %v", row)
		}
	}
}

func TestMSAWithInsertions(t *testing.T) {
	// One noisy sequence with an insertion must not break the shared
	// column structure.
	seqs := [][]string{
		{"A04", "T90", "K86"},
		{"A04", "R74", "T90", "K86"}, // R74 inserted
		{"A04", "T90", "K86"},
	}
	m := Align(seqs, UnitCost{})
	if !m.Consistent() {
		t.Fatal("inconsistent MSA")
	}
	// T90 of all three sequences must share a column.
	col0 := m.ColumnOf(0, 1)
	col1 := m.ColumnOf(1, 2)
	col2 := m.ColumnOf(2, 1)
	if col0 != col1 || col1 != col2 {
		t.Errorf("T90 columns differ: %d %d %d\nrows: %v", col0, col1, col2, m.Rows)
	}
}

func TestMSAManyRandomConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	vocab := []string{"T90", "K86", "R74", "A04", "L03", "P76"}
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(5)
		seqs := make([][]string, n)
		for i := range seqs {
			l := 1 + rng.Intn(7)
			seqs[i] = make([]string, l)
			for j := range seqs[i] {
				seqs[i][j] = vocab[rng.Intn(len(vocab))]
			}
		}
		m := Align(seqs, UnitCost{})
		if !m.Consistent() {
			t.Fatalf("trial %d inconsistent: seqs=%v rows=%v", trial, seqs, m.Rows)
		}
	}
}

func TestColumnOfBounds(t *testing.T) {
	m := Align([][]string{{"A04"}}, UnitCost{})
	if m.ColumnOf(0, 0) != 0 {
		t.Error("ColumnOf(0,0) wrong")
	}
	if m.ColumnOf(0, 5) != -1 || m.ColumnOf(9, 0) != -1 || m.ColumnOf(-1, 0) != -1 {
		t.Error("ColumnOf bounds broken")
	}
}
