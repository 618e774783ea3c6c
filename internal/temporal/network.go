package temporal

import (
	"fmt"

	"pastas/internal/abstraction"
)

// Network is a qualitative constraint network: variables are intervals,
// edges carry Rel constraints. Path consistency tightens every edge through
// every third variable; an empty edge proves inconsistency.
type Network struct {
	names []string
	c     [][]Rel
}

// NewNetwork creates a network with the given interval names and vacuous
// constraints.
func NewNetwork(names ...string) *Network {
	n := len(names)
	net := &Network{names: names, c: make([][]Rel, n)}
	for i := range net.c {
		net.c[i] = make([]Rel, n)
		for j := range net.c[i] {
			if i == j {
				net.c[i][j] = Equal
			} else {
				net.c[i][j] = Full
			}
		}
	}
	return net
}

// Size returns the number of intervals.
func (net *Network) Size() int { return len(net.names) }

// Constrain intersects the (i,j) edge with r (and (j,i) with its converse).
// It returns false if the edge becomes empty (direct inconsistency).
func (net *Network) Constrain(i, j int, r Rel) bool {
	net.c[i][j] &= r
	net.c[j][i] &= Converse(r)
	return net.c[i][j] != None
}

// Relation returns the current constraint from i to j.
func (net *Network) Relation(i, j int) Rel { return net.c[i][j] }

// Clone deep-copies the network.
func (net *Network) Clone() *Network {
	out := &Network{names: net.names, c: make([][]Rel, len(net.c))}
	for i := range net.c {
		out.c[i] = make([]Rel, len(net.c[i]))
		copy(out.c[i], net.c[i])
	}
	return out
}

// PathConsistency runs PC-1 to fixpoint. It returns false when the network
// is inconsistent (some edge became empty). A true result means
// path-consistent (for Allen's algebra this does not guarantee global
// consistency in general, but it is the standard propagation step and
// exact for the pointizable fragment the workbench generates).
func (net *Network) PathConsistency() bool {
	n := len(net.c)
	changed := true
	for changed {
		changed = false
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				for k := 0; k < n; k++ {
					if k == i || k == j {
						continue
					}
					tight := net.c[i][j] & Compose(net.c[i][k], net.c[k][j])
					if tight != net.c[i][j] {
						net.c[i][j] = tight
						net.c[j][i] = Converse(tight)
						changed = true
						if tight == None {
							return false
						}
					}
				}
			}
		}
	}
	return true
}

// FromEpisodes builds the fully-specified network of a history's episodes:
// every pairwise edge carries the exact basic relation observed. This is
// the "ground truth" network; reasoning experiments erase edges and measure
// what propagation recovers.
func FromEpisodes(eps []abstraction.Episode) *Network {
	names := make([]string, len(eps))
	for i, ep := range eps {
		label := ep.Dominant.Value
		if label == "" {
			label = "episode"
		}
		names[i] = fmt.Sprintf("%s@%s", label, ep.Period.Start)
	}
	net := NewNetwork(names...)
	for i := range eps {
		for j := range eps {
			if i == j {
				continue
			}
			net.Constrain(i, j, Between(eps[i].Period, eps[j].Period))
		}
	}
	return net
}

// Erase replaces the (i,j) edge (and converse) with Full — "forget" what we
// knew, for reconstruction experiments.
func (net *Network) Erase(i, j int) {
	if i == j {
		return
	}
	net.c[i][j] = Full
	net.c[j][i] = Full
}
