// Package graph implements NSEPter, the paper's predecessor system for
// portraying collections of diagnosis histories as directed graphs
// (Fig. 2): per-history node chains, regex-driven serial merging with
// recursive neighbour expansion, edge weights scaled by the number of
// histories exhibiting a transition — plus the alignment-based merging the
// second project introduced to fix the serial algorithm's noise fragility,
// and the readability metrics that quantify Fig. 2b's crowding.
package graph

import (
	"fmt"
	"sort"
)

// Occurrence identifies one code instance: position Pos in history Hist.
type Occurrence struct {
	Hist, Pos int
}

// Node is a (possibly merged) graph node: all occurrences drawn as one.
type Node struct {
	ID      int
	Label   string
	Members []Occurrence
	// Anchor marks nodes created by the merge seed (the regex hit),
	// distinguishing them in rendering.
	Anchor bool
}

// Histories returns how many distinct histories pass through the node.
func (n *Node) Histories() int {
	seen := make(map[int]bool, len(n.Members))
	for _, m := range n.Members {
		seen[m.Hist] = true
	}
	return len(seen)
}

// Edge is a weighted transition: Weight histories move directly from node
// From to node To.
type Edge struct {
	From, To int
	Weight   int
}

// Graph is a merged view over diagnosis-code sequences.
type Graph struct {
	Nodes []*Node
	Edges []*Edge

	seqs   [][]string
	nodeOf map[Occurrence]int
}

// newGraph prepares an empty graph over sequences.
func newGraph(seqs [][]string) *Graph {
	return &Graph{seqs: seqs, nodeOf: make(map[Occurrence]int)}
}

// addNode creates a node and assigns its members.
func (g *Graph) addNode(label string, anchor bool, members []Occurrence) *Node {
	n := &Node{ID: len(g.Nodes), Label: label, Members: members, Anchor: anchor}
	g.Nodes = append(g.Nodes, n)
	for _, m := range members {
		g.nodeOf[m] = n.ID
	}
	return n
}

// finish assigns singleton nodes to unmerged positions and builds edges.
func (g *Graph) finish() {
	// Singletons in deterministic order.
	for h, seq := range g.seqs {
		for p := range seq {
			o := Occurrence{h, p}
			if _, done := g.nodeOf[o]; !done {
				g.addNode(seq[p], false, []Occurrence{o})
			}
		}
	}
	// Edges: consecutive positions within each history.
	weights := make(map[[2]int]int)
	for h, seq := range g.seqs {
		for p := 0; p+1 < len(seq); p++ {
			from := g.nodeOf[Occurrence{h, p}]
			to := g.nodeOf[Occurrence{h, p + 1}]
			weights[[2]int{from, to}]++
		}
	}
	keys := make([][2]int, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i][0] != keys[j][0] {
			return keys[i][0] < keys[j][0]
		}
		return keys[i][1] < keys[j][1]
	})
	for _, k := range keys {
		g.Edges = append(g.Edges, &Edge{From: k[0], To: k[1], Weight: weights[k]})
	}
}

// Validate checks structural invariants.
func (g *Graph) Validate() error {
	for h, seq := range g.seqs {
		for p := range seq {
			id, ok := g.nodeOf[Occurrence{h, p}]
			if !ok {
				return fmt.Errorf("graph: occurrence (%d,%d) unassigned", h, p)
			}
			if g.Nodes[id].Label != seq[p] && !g.Nodes[id].Anchor {
				return fmt.Errorf("graph: occurrence (%d,%d) code %q in node %q", h, p, seq[p], g.Nodes[id].Label)
			}
		}
	}
	for _, e := range g.Edges {
		if e.From < 0 || e.From >= len(g.Nodes) || e.To < 0 || e.To >= len(g.Nodes) {
			return fmt.Errorf("graph: edge %v out of range", e)
		}
		if e.Weight <= 0 {
			return fmt.Errorf("graph: edge %v with non-positive weight", e)
		}
	}
	return nil
}

// --- metrics (the Fig. 2b crowding numbers) ---------------------------------

// TotalPositions counts code occurrences across all histories.
func (g *Graph) TotalPositions() int {
	n := 0
	for _, s := range g.seqs {
		n += len(s)
	}
	return n
}

// Compression is occurrences per node; 1.0 means nothing merged.
func (g *Graph) Compression() float64 {
	if len(g.Nodes) == 0 {
		return 0
	}
	return float64(g.TotalPositions()) / float64(len(g.Nodes))
}

// MaxEdgeWeight returns the heaviest transition.
func (g *Graph) MaxEdgeWeight() int {
	max := 0
	for _, e := range g.Edges {
		if e.Weight > max {
			max = e.Weight
		}
	}
	return max
}

// LargestMerge returns the maximum number of distinct histories merged into
// any node with the given label — the pathway-recovery measure the noise
// ablation (A1) reports.
func (g *Graph) LargestMerge(label string) int {
	best := 0
	for _, n := range g.Nodes {
		if n.Label == label {
			if h := n.Histories(); h > best {
				best = h
			}
		}
	}
	return best
}
