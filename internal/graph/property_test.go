package graph

import (
	"math/rand"
	"testing"
	"testing/quick"

	"pastas/internal/seqalign"
)

// randomSeqs builds a deterministic random sequence set from a seed.
func randomSeqs(seed int64, maxHist, maxLen int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	vocab := []string{"A04", "T90", "K86", "R74", "L03", "P76", "D01"}
	n := 1 + rng.Intn(maxHist)
	seqs := make([][]string, n)
	for i := range seqs {
		l := 1 + rng.Intn(maxLen)
		seqs[i] = make([]string, l)
		for j := range seqs[i] {
			seqs[i][j] = vocab[rng.Intn(len(vocab))]
		}
	}
	return seqs
}

// Property: every merge algorithm yields a structurally valid graph where
// each occurrence belongs to exactly one node and edge weights sum to the
// number of transitions.
func TestMergedGraphInvariants(t *testing.T) {
	check := func(g *Graph) bool {
		if g.Validate() != nil {
			return false
		}
		// Node membership partitions all positions.
		total := 0
		for _, n := range g.Nodes {
			total += len(n.Members)
		}
		if total != g.TotalPositions() {
			return false
		}
		// Edge weights sum to the transition count.
		trans := 0
		for _, s := range g.seqs {
			if len(s) > 0 {
				trans += len(s) - 1
			}
		}
		wsum := 0
		for _, e := range g.Edges {
			wsum += e.Weight
		}
		return wsum == trans
	}

	f := func(seed int64) bool {
		seqs := randomSeqs(seed, 6, 8)
		raw := unmerged(seqs)
		serial, err := SerialMerge(seqs, SerialOptions{Pattern: "T90", Depth: 2})
		if err != nil {
			return false
		}
		msa := MSAMerge(seqs, seqalign.UnitCost{})
		return check(raw) && check(serial) && check(msa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: merging never increases node count beyond the raw graph, and
// compression is monotone ≥ 1.
func TestMergeOnlyShrinks(t *testing.T) {
	f := func(seed int64) bool {
		seqs := randomSeqs(seed, 6, 8)
		raw := unmerged(seqs)
		msa := MSAMerge(seqs, seqalign.UnitCost{})
		return len(msa.Nodes) <= len(raw.Nodes) && msa.Compression() >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: layouts assign coordinates to every node and layer counts never
// exceed the node count.
func TestLayoutTotality(t *testing.T) {
	f := func(seed int64) bool {
		seqs := randomSeqs(seed, 6, 8)
		g, err := SerialMerge(seqs, SerialOptions{Pattern: ".*", Depth: 1})
		if err != nil {
			return false
		}
		l := Layered(g)
		if len(l.X) != len(g.Nodes) || len(l.Y) != len(g.Nodes) {
			return false
		}
		return l.MaxPerCol <= len(g.Nodes) && l.Cols >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
