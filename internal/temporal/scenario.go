package temporal

// Scenario search — the paper's stated future work: "Currently, we are
// investigating the use of constraint logic programming to handle interval
// reasoning." A scenario is a consistent assignment of one basic relation
// to every edge; Solve finds one by backtracking with path-consistency
// propagation (the standard CLP labeling loop).

// Solve returns a consistent scenario of the network as a new network with
// every edge basic, or nil when the network is unsatisfiable. The input is
// not modified.
func (net *Network) Solve() *Network {
	work := net.Clone()
	if !work.PathConsistency() {
		return nil
	}
	if s := work.label(); s != nil {
		return s
	}
	return nil
}

// label recursively assigns basic relations to non-basic edges.
func (net *Network) label() *Network {
	i, j, found := net.firstAmbiguous()
	if !found {
		return net
	}
	rel := net.c[i][j]
	for _, b := range Basics() {
		if rel&b == 0 {
			continue
		}
		trial := net.Clone()
		trial.c[i][j] = b
		trial.c[j][i] = Converse(b)
		if !trial.PathConsistency() {
			continue
		}
		if s := trial.label(); s != nil {
			return s
		}
	}
	return nil
}

// firstAmbiguous returns the lexicographically first non-basic edge.
func (net *Network) firstAmbiguous() (int, int, bool) {
	n := len(net.c)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !net.c[i][j].IsBasic() {
				return i, j, true
			}
		}
	}
	return 0, 0, false
}

// Satisfiable reports whether at least one scenario exists. Path
// consistency alone is incomplete for general Allen networks; this is the
// complete check.
func (net *Network) Satisfiable() bool {
	return net.Solve() != nil
}
