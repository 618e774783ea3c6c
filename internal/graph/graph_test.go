package graph

import (
	"math/rand"
	"testing"

	"pastas/internal/seqalign"
)

// diabetesSeqs mimics Fig. 2a: histories sharing a T90 diagnosis with
// common paths before and after it.
func diabetesSeqs() [][]string {
	return [][]string{
		{"A04", "T90", "K86", "R74"},
		{"A04", "T90", "K86", "L03"},
		{"D01", "T90", "K86", "R74"},
		{"A04", "T90", "F92"},
	}
}

// unmerged is the raw graph NSEPter drew: one node per code occurrence,
// chained per history.
func unmerged(seqs [][]string) *Graph {
	g := newGraph(seqs)
	g.finish()
	return g
}

func TestFromSequencesUnmerged(t *testing.T) {
	seqs := diabetesSeqs()
	g := unmerged(seqs)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(g.Nodes) != g.TotalPositions() {
		t.Errorf("unmerged graph must have one node per position: %d vs %d",
			len(g.Nodes), g.TotalPositions())
	}
	if g.Compression() != 1 {
		t.Errorf("compression = %f", g.Compression())
	}
	// Chain edges only, all weight 1.
	if g.MaxEdgeWeight() != 1 {
		t.Errorf("max weight = %d", g.MaxEdgeWeight())
	}
	wantEdges := 0
	for _, s := range seqs {
		wantEdges += len(s) - 1
	}
	if len(g.Edges) != wantEdges {
		t.Errorf("edges = %d, want %d", len(g.Edges), wantEdges)
	}
}

func TestSerialMergeAnchor(t *testing.T) {
	g, err := SerialMerge(diabetesSeqs(), SerialOptions{Pattern: "T90", Depth: 0})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// One anchor node holding all four T90 occurrences.
	var anchor *Node
	for _, n := range g.Nodes {
		if n.Anchor {
			if anchor != nil {
				t.Fatal("multiple anchors with MaxOccurrences=1")
			}
			anchor = n
		}
	}
	if anchor == nil || anchor.Histories() != 4 {
		t.Fatalf("anchor = %+v", anchor)
	}
}

func TestSerialMergeNeighbourRecursion(t *testing.T) {
	g, err := SerialMerge(diabetesSeqs(), SerialOptions{Pattern: "T90", Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// K86 follows T90 in three histories: must merge.
	if got := g.LargestMerge("K86"); got != 3 {
		t.Errorf("K86 merge = %d, want 3", got)
	}
	// A04 precedes T90 in three histories: must merge.
	if got := g.LargestMerge("A04"); got != 3 {
		t.Errorf("A04 merge = %d, want 3", got)
	}
	// R74 follows K86 in two of those three: second-level recursion.
	if got := g.LargestMerge("R74"); got != 2 {
		t.Errorf("R74 merge = %d, want 2", got)
	}
	// Edge weights scale with histories on the T90→K86 transition.
	var t90ToK86 int
	for _, e := range g.Edges {
		if g.Nodes[e.From].Anchor && g.Nodes[e.To].Label == "K86" {
			t90ToK86 = e.Weight
		}
	}
	if t90ToK86 != 3 {
		t.Errorf("anchor→K86 weight = %d, want 3", t90ToK86)
	}
	// Depth 0 must not merge neighbours.
	g0, _ := SerialMerge(diabetesSeqs(), SerialOptions{Pattern: "T90", Depth: 0})
	if g0.LargestMerge("K86") != 1 {
		t.Error("depth 0 merged neighbours")
	}
}

func TestSerialMergeMultipleOccurrences(t *testing.T) {
	seqs := [][]string{
		{"T90", "A04", "T90"},
		{"T90", "L03", "T90"},
	}
	g, err := SerialMerge(seqs, SerialOptions{Pattern: "T90", MaxOccurrences: 2})
	if err != nil {
		t.Fatal(err)
	}
	anchors := 0
	for _, n := range g.Nodes {
		if n.Anchor {
			anchors++
			if n.Histories() != 2 {
				t.Errorf("anchor %q holds %d histories", n.Label, n.Histories())
			}
		}
	}
	if anchors != 2 {
		t.Errorf("anchors = %d, want 2 (serial rounds)", anchors)
	}
}

func TestSerialMergeBadPattern(t *testing.T) {
	if _, err := SerialMerge(diabetesSeqs(), SerialOptions{Pattern: "("}); err == nil {
		t.Error("bad pattern accepted")
	}
}

func TestSerialMergeNoiseFragility(t *testing.T) {
	// The documented weakness: one inserted code before the anchor breaks
	// the predecessor merge (A04 is no longer adjacent to T90 in the
	// noisy history).
	clean := [][]string{
		{"A04", "T90", "K86"},
		{"A04", "T90", "K86"},
		{"A04", "T90", "K86"},
	}
	noisy := [][]string{
		{"A04", "T90", "K86"},
		{"A04", "R74", "T90", "K86"}, // R74 inserted between A04 and T90
		{"A04", "T90", "K86"},
	}
	gClean, _ := SerialMerge(clean, SerialOptions{Pattern: "T90", Depth: 1})
	gNoisy, _ := SerialMerge(noisy, SerialOptions{Pattern: "T90", Depth: 1})
	if gClean.LargestMerge("A04") != 3 {
		t.Fatalf("clean A04 merge = %d", gClean.LargestMerge("A04"))
	}
	if gNoisy.LargestMerge("A04") != 2 {
		t.Errorf("noisy A04 merge = %d: serial merge should have broken", gNoisy.LargestMerge("A04"))
	}

	// MSA merging tolerates the same insertion.
	gMSA := MSAMerge(noisy, seqalign.UnitCost{})
	if err := gMSA.Validate(); err != nil {
		t.Fatal(err)
	}
	if gMSA.LargestMerge("A04") != 3 {
		t.Errorf("MSA A04 merge = %d, want 3", gMSA.LargestMerge("A04"))
	}
	if gMSA.LargestMerge("T90") != 3 {
		t.Errorf("MSA T90 merge = %d, want 3", gMSA.LargestMerge("T90"))
	}
}

func TestMSAMergeCompression(t *testing.T) {
	seqs := diabetesSeqs()
	g := MSAMerge(seqs, seqalign.ChapterCost{System: "ICPC2"})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Compression() <= 1 {
		t.Errorf("MSA merge achieved no compression: %f", g.Compression())
	}
	if g.LargestMerge("T90") != 4 {
		t.Errorf("T90 merge = %d", g.LargestMerge("T90"))
	}
}

func TestMergeOrderIndependenceMSA(t *testing.T) {
	seqs := diabetesSeqs()
	rev := make([][]string, len(seqs))
	for i := range seqs {
		rev[i] = seqs[len(seqs)-1-i]
	}
	a := MSAMerge(seqs, seqalign.UnitCost{})
	b := MSAMerge(rev, seqalign.UnitCost{})
	// Structural invariants (node/edge counts and largest merges) must
	// not depend on input order.
	if len(a.Nodes) != len(b.Nodes) || len(a.Edges) != len(b.Edges) {
		t.Errorf("MSA merge order-dependent: %d/%d nodes, %d/%d edges",
			len(a.Nodes), len(b.Nodes), len(a.Edges), len(b.Edges))
	}
	for _, label := range []string{"T90", "K86", "A04"} {
		if a.LargestMerge(label) != b.LargestMerge(label) {
			t.Errorf("order-dependent merge for %s", label)
		}
	}
}

func TestLayoutAndCrossings(t *testing.T) {
	g, err := SerialMerge(diabetesSeqs(), SerialOptions{Pattern: "T90", Depth: 2})
	if err != nil {
		t.Fatal(err)
	}
	l := Layered(g)
	if l.Cols < 3 {
		t.Errorf("layout cols = %d", l.Cols)
	}
	// Every node has coordinates.
	for _, n := range g.Nodes {
		if _, ok := l.X[n.ID]; !ok {
			t.Fatalf("node %d missing X", n.ID)
		}
		if _, ok := l.Y[n.ID]; !ok {
			t.Fatalf("node %d missing Y", n.ID)
		}
	}
	if c := Crossings(g, l); c < 0 {
		t.Errorf("crossings = %d", c)
	}
}

func TestCrowdingMetricsGrow(t *testing.T) {
	// Fig. 2b: hundreds of histories make the full graph unreadable.
	// Crossings and node counts must grow sharply with population.
	rng := rand.New(rand.NewSource(3))
	vocab := []string{"A04", "T90", "K86", "R74", "L03", "P76", "D01", "U71"}
	build := func(n int) *Graph {
		seqs := make([][]string, n)
		for i := range seqs {
			l := 3 + rng.Intn(5)
			seqs[i] = make([]string, l)
			for j := range seqs[i] {
				seqs[i][j] = vocab[rng.Intn(len(vocab))]
			}
			// Plant the anchor so the merge creates shared hub nodes,
			// as in the paper's zoomed-out diabetes graph.
			seqs[i][1+rng.Intn(l-1)] = "T90"
		}
		g, err := SerialMerge(seqs, SerialOptions{Pattern: "T90", Depth: 2})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	small := build(10)
	large := build(100)
	ls, ll := Layered(small), Layered(large)
	if Crossings(large, ll) <= Crossings(small, ls) {
		t.Error("crossings did not grow with population")
	}
	if ll.MaxPerCol <= ls.MaxPerCol {
		t.Error("column crowding did not grow")
	}
}

func TestNodeHistories(t *testing.T) {
	n := &Node{Members: []Occurrence{{0, 1}, {0, 3}, {1, 2}}}
	if n.Histories() != 2 {
		t.Errorf("Histories = %d", n.Histories())
	}
}

func TestDensityEdgeCases(t *testing.T) {
	if unmerged(nil).Compression() != 0 {
		t.Error("empty graph metrics broken")
	}
}
