package seqalign

// Progressive multiple sequence alignment (center-star): pick the sequence
// with minimum summed distance to the rest as the center, align every other
// sequence to it pairwise, and merge under "once a gap, always a gap". The
// result assigns every code occurrence a column; NSEPter's improved merging
// fuses occurrences that share (column, code), which tolerates noise
// insertions that break the original serial merge.

const gapToken = "-"

// MSA is a computed multiple alignment.
type MSA struct {
	// Seqs are the input sequences (referenced, not copied).
	Seqs [][]string
	// Rows are the aligned sequences, padded with "-" to equal length.
	Rows [][]string
	// Center is the index of the center-star sequence.
	Center int
}

// Align computes the center-star MSA under the cost model. Empty input
// returns an empty MSA; single sequences align trivially.
func Align(seqs [][]string, c Cost) *MSA {
	m := &MSA{Seqs: seqs}
	if len(seqs) == 0 {
		return m
	}
	if len(seqs) == 1 {
		m.Rows = [][]string{append([]string(nil), seqs[0]...)}
		return m
	}

	// Choose the center: minimum total pairwise distance.
	total := make([]float64, len(seqs))
	for i := 0; i < len(seqs); i++ {
		for j := i + 1; j < len(seqs); j++ {
			d := Distance(seqs[i], seqs[j], c)
			total[i] += d
			total[j] += d
		}
	}
	center := 0
	for i, t := range total {
		if t < total[center] {
			center = i
		}
	}
	m.Center = center

	// centerRow accumulates gaps as sequences merge in; rows hold the
	// already-merged sequences in input order (filled progressively).
	centerRow := append([]string(nil), seqs[center]...)
	rows := make([][]string, len(seqs))

	for i := range seqs {
		if i == center {
			continue
		}
		// Align seqs[i] against the *original* center sequence; then
		// replay the alignment against the gapped centerRow.
		aln, _ := Global(stripGaps(centerRow), seqs[i], c)
		newCenter, newRow, inserts := mergeIntoCenter(centerRow, seqs[i], aln)
		// Propagate the new gap positions into every finished row.
		for j := range rows {
			if rows[j] != nil {
				rows[j] = insertGaps(rows[j], inserts)
			}
		}
		centerRow = newCenter
		rows[i] = newRow
	}
	rows[center] = centerRow
	m.Rows = rows
	return m
}

// stripGaps removes gap tokens.
func stripGaps(row []string) []string {
	out := make([]string, 0, len(row))
	for _, t := range row {
		if t != gapToken {
			out = append(out, t)
		}
	}
	return out
}

// mergeIntoCenter replays a (center, seq) pairwise alignment against the
// gapped center row. It returns the new center row, the new aligned row for
// seq, and the columns (indices into the OLD center row, in increasing
// order) where fresh gaps were inserted.
func mergeIntoCenter(centerRow, seq []string, aln Alignment) (newCenter, newRow []string, inserts []int) {
	// Map from center position (ungapped index) to its column in centerRow.
	posToCol := make([]int, 0, len(centerRow))
	for col, t := range centerRow {
		if t != gapToken {
			posToCol = append(posToCol, col)
		}
	}

	newCenter = make([]string, 0, len(centerRow)+len(seq))
	newRow = make([]string, 0, len(centerRow)+len(seq))
	col := 0 // cursor into old centerRow columns

	flushCenterThrough := func(targetCol int) {
		for col <= targetCol {
			newCenter = append(newCenter, centerRow[col])
			newRow = append(newRow, gapToken)
			col++
		}
	}

	for _, pr := range aln {
		switch {
		case pr.I >= 0 && pr.J >= 0:
			// Center position pr.I matches seq position pr.J: emit any
			// intervening old-center gap columns, then the match column.
			flushCenterThrough(posToCol[pr.I] - 1)
			newCenter = append(newCenter, centerRow[posToCol[pr.I]])
			newRow = append(newRow, seq[pr.J])
			col = posToCol[pr.I] + 1
		case pr.I >= 0:
			// Deletion: center position unmatched.
			flushCenterThrough(posToCol[pr.I] - 1)
			newCenter = append(newCenter, centerRow[posToCol[pr.I]])
			newRow = append(newRow, gapToken)
			col = posToCol[pr.I] + 1
		default:
			// Insertion: seq position with no center counterpart — a
			// fresh gap column in the (old) center at position col.
			inserts = append(inserts, col)
			newCenter = append(newCenter, gapToken)
			newRow = append(newRow, seq[pr.J])
		}
	}
	// Trailing old-center columns.
	flushCenterThrough(len(centerRow) - 1)
	return newCenter, newRow, inserts
}

// insertGaps inserts gap tokens into row before the given old-column
// indices (sorted ascending, possibly repeated).
func insertGaps(row []string, inserts []int) []string {
	if len(inserts) == 0 {
		return row
	}
	out := make([]string, 0, len(row)+len(inserts))
	k := 0
	for col := 0; col <= len(row); col++ {
		for k < len(inserts) && inserts[k] == col {
			out = append(out, gapToken)
			k++
		}
		if col < len(row) {
			out = append(out, row[col])
		}
	}
	return out
}

// ColumnOf returns the column of the pos-th (0-based) code of sequence
// seq, or -1 when out of range.
func (m *MSA) ColumnOf(seq, pos int) int {
	if seq < 0 || seq >= len(m.Rows) {
		return -1
	}
	n := -1
	for col, t := range m.Rows[seq] {
		if t != gapToken {
			n++
			if n == pos {
				return col
			}
		}
	}
	return -1
}

// Consistent verifies structural invariants: equal row lengths and that
// stripping gaps recovers the inputs. Tests use it as the reference check.
func (m *MSA) Consistent() bool {
	if len(m.Rows) != len(m.Seqs) {
		return false
	}
	for i, row := range m.Rows {
		if len(row) != len(m.Rows[0]) {
			return false
		}
		orig := stripGaps(row)
		if len(orig) != len(m.Seqs[i]) {
			return false
		}
		for j := range orig {
			if orig[j] != m.Seqs[i][j] {
				return false
			}
		}
	}
	return true
}
