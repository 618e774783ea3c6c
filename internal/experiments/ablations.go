package experiments

import (
	"fmt"
	"math/rand"

	"pastas/internal/abstraction"
	"pastas/internal/cluster"
	"pastas/internal/core"
	"pastas/internal/graph"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/seqalign"
	"pastas/internal/temporal"
)

// A1MergeNoiseAblation quantifies the NSEPter weakness the paper documents
// ("the merging algorithm was not very noise-resilient. It would miss an
// opportunity to merge nodes if two histories differed in one single
// position") against the alignment-based merging of project [7].
//
// A planted care pathway is replicated across histories; noise codes are
// inserted at rate ε; recovery is the mean fraction of histories a single
// node captures per pathway step.
func (s *Suite) A1MergeNoiseAblation() (Result, error) {
	backbone := []string{"A04", "T90", "K86", "F83", "K77"}
	noiseVocab := []string{"R74", "L03", "D01", "S18", "N01", "U71"}
	histories := 40
	if s.Cfg.Quick {
		histories = 20
	}
	epsilons := []float64{0, 0.05, 0.10, 0.20}

	rng := rand.New(rand.NewSource(s.Cfg.Seed + 11))
	gen := func(eps float64) [][]string {
		out := make([][]string, histories)
		for i := range out {
			var seq []string
			for _, code := range backbone {
				// Insertions before each backbone element.
				for rng.Float64() < eps {
					seq = append(seq, noiseVocab[rng.Intn(len(noiseVocab))])
				}
				seq = append(seq, code)
			}
			for rng.Float64() < eps {
				seq = append(seq, noiseVocab[rng.Intn(len(noiseVocab))])
			}
			out[i] = seq
		}
		return out
	}

	var details []string
	var serialAt0, serialAt20, msaAt20 float64
	for _, eps := range epsilons {
		seqs := gen(eps)
		gSerial, err := graph.SerialMerge(seqs, graph.SerialOptions{Pattern: "T90", Depth: len(backbone)})
		if err != nil {
			return Result{}, err
		}
		gMSA := graph.MSAMerge(seqs, seqalign.ChapterCost{System: "ICPC2"})
		serial := msaRecovery(gSerial, backbone, histories)
		msa := msaRecovery(gMSA, backbone, histories)
		details = append(details, fmt.Sprintf("ε=%.2f: serial recovery %.2f, MSA recovery %.2f (serial %d nodes, MSA %d nodes)",
			eps, serial, msa, len(gSerial.Nodes), len(gMSA.Nodes)))
		switch eps {
		case 0:
			serialAt0 = serial
		case 0.20:
			serialAt20, msaAt20 = serial, msa
		}
	}

	r := Result{
		ID:       "A1",
		Title:    "Merge noise resilience: serial vs alignment-based (ablation)",
		Paper:    "serial merging misses merges when histories differ in one position; project [7] employed alignment methods to reduce the amount of noise",
		Measured: fmt.Sprintf("planted 5-step pathway, %d histories: serial recovery %.2f→%.2f as ε 0→0.20; MSA holds %.2f", histories, serialAt0, serialAt20, msaAt20),
		Pass:     serialAt0 > 0.95 && serialAt20 < 0.8 && msaAt20 > serialAt20,
		Details:  details,
	}
	return r, nil
}

// A2IntervalReasoning exercises the CNTRO-style temporal substrate the
// paper says it re-implemented ("we have implemented much of the same
// functionality") and its constraint-reasoning future work: build exact
// Allen networks over derived care episodes, erase edges, and measure what
// path consistency recovers.
func (s *Suite) A2IntervalReasoning() (Result, error) {
	panel, err := s.panel(core.StudyCriteria(s.Window), 60, 7)
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(s.Cfg.Seed + 13))

	networks, erased, narrowed, exact := 0, 0, 0, 0
	inconsistent := 0
	for _, h := range panel.Histories() {
		eps := abstraction.Episodes(h, 30*model.Day)
		if len(eps) < 3 {
			continue
		}
		if len(eps) > 8 {
			eps = eps[:8]
		}
		net := temporal.FromEpisodes(eps)
		truth := net.Clone()
		networks++

		// Erase 30% of the edges.
		n := net.Size()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if rng.Float64() < 0.30 {
					net.Erase(i, j)
					erased++
					if !net.PathConsistency() {
						inconsistent++
						continue
					}
					got := net.Relation(i, j)
					if got != temporal.Full {
						narrowed++
					}
					if got == truth.Relation(i, j) {
						exact++
					}
				}
			}
		}
	}
	if erased == 0 {
		return Result{
			ID: "A2", Title: "Interval reasoning over care episodes",
			Paper:    "CNTRO-style temporal reasoning; constraint logic programming for interval reasoning (future work)",
			Measured: "no histories with ≥3 episodes in sample",
			Pass:     false,
		}, nil
	}

	r := Result{
		ID:    "A2",
		Title: "Interval reasoning over care episodes (Allen + path consistency)",
		Paper: "the prototype represents and reasons with patient events ... currently investigating constraint logic programming to handle interval reasoning",
		Measured: fmt.Sprintf("%d episode networks: %d edges erased, %.0f%% narrowed by propagation, %.0f%% recovered exactly, %d inconsistencies",
			networks, erased, 100*float64(narrowed)/float64(erased), 100*float64(exact)/float64(erased), inconsistent),
		Pass: inconsistent == 0 && narrowed > erased/2,
	}
	return r, nil
}

// X1ClusteredOrdering evaluates the clustering extension: ordering the
// timeline's vertical axis by trajectory similarity should place similar
// histories adjacently — measured as the mean alignment distance between
// vertically adjacent rows, ID order vs clustered order. (Extension; the
// paper sorts by ID or anchor, and motivates orderings that expose
// cohort-level patterns.)
func (s *Suite) X1ClusteredOrdering() (Result, error) {
	seqs, err := s.diabeticSequences(60)
	if err != nil {
		return Result{}, err
	}
	if len(seqs) < 8 {
		return Result{
			ID: "X1", Title: "Clustered vertical ordering (extension)",
			Paper: "—", Measured: "too few sequences at this scale", Pass: false,
		}, nil
	}
	cost := seqalign.ChapterCost{System: "ICPC2"}
	dist := cluster.DistanceMatrix(seqs, cost)

	adjacency := func(order []int) float64 {
		total := 0.0
		for i := 0; i+1 < len(order); i++ {
			total += dist[order[i]][order[i+1]]
		}
		return total / float64(len(order)-1)
	}

	idOrder := make([]int, len(seqs))
	for i := range idOrder {
		idOrder[i] = i
	}
	k := len(seqs) / 8
	if k < 2 {
		k = 2
	}
	res, err := cluster.Agglomerative(dist, k)
	if err != nil {
		return Result{}, err
	}
	idMean := adjacency(idOrder)
	clMean := adjacency(res.Order())
	sil := cluster.Silhouette(dist, res)

	r := Result{
		ID:    "X1",
		Title: "Clustered vertical ordering (extension)",
		Paper: "vertical axis is patient IDs; orderings that stack similar histories make cohort patterns visible (motivation, §IV-B)",
		Measured: fmt.Sprintf("%d diabetic trajectories, k=%d: mean adjacent-row distance %.3f (ID order) → %.3f (clustered, −%.0f%%), silhouette %.2f",
			len(seqs), k, idMean, clMean, 100*(1-clMean/idMean), sil),
		Pass: clMean < idMean,
	}
	return r, nil
}

// A3AssociationMining reproduces project [7]'s "mined for relations between
// the diagnosis codes themselves" over the synthetic registry.
func (s *Suite) A3AssociationMining() (Result, error) {
	seqs, err := s.diabeticSequences(2000)
	if err != nil {
		return Result{}, err
	}
	co := mining.CoOccurrence(seqs, mining.Options{MinSupport: 0.05})
	seqRules := mining.Sequential(seqs, mining.Options{MinSupport: 0.05})

	// The diabetes-hypertension comorbidity the generator plants must
	// surface with positive lift.
	var t90k86 *mining.Rule
	for i := range co {
		r := &co[i]
		if (r.A == "K86" && r.B == "T90") || (r.A == "T90" && r.B == "K86") {
			t90k86 = r
			break
		}
	}
	var details []string
	for _, r := range mining.Top(co, 5) {
		details = append(details, "co-occurrence: "+r.String())
	}
	for _, r := range mining.Top(seqRules, 5) {
		details = append(details, "sequential: "+r.String())
	}

	measured := fmt.Sprintf("%d histories: %d co-occurrence rules, %d sequential rules", len(seqs), len(co), len(seqRules))
	pass := len(co) > 0 && len(seqRules) > 0
	if t90k86 != nil {
		measured += fmt.Sprintf("; T90∧K86 lift %.2f", t90k86.Lift)
		pass = pass && t90k86.Lift > 0.9
	}
	r := Result{
		ID:       "A3",
		Title:    "Relations between diagnosis codes (mining)",
		Paper:    "mined for relations between the diagnosis codes themselves [project 7]",
		Measured: measured,
		Pass:     pass,
		Details:  details,
	}
	return r, nil
}
