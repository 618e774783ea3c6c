package engine

import (
	"fmt"
	"strings"

	"pastas/internal/query"
)

// EXPLAIN-style plan annotation: the optimized plan tree with the cost
// model's estimated rows and cost attached to every node, in execution
// order — the planner's audit trail for the paper's 0.1 s budget.

// ExplainNode is one annotated plan node.
type ExplainNode struct {
	// Label is the node's rendering: leaf String() for leaves, the bare
	// operator for And/Or/Not.
	Label string
	// Est is the cost model's estimate; zero when no statistics exist.
	Est Estimate
	// Children are in execution order.
	Children []ExplainNode
}

// Explained is a cost-annotated optimized plan.
type Explained struct {
	// Plan is the optimized plan the engine would execute.
	Plan Plan
	// Root is the annotated tree.
	Root ExplainNode
	// Patients is the population the estimates are over.
	Patients int
	// Backends is the shard topology the plan will execute over, in
	// offset order — one entry per backend, naming its transport.
	Backends []ShardMeta
	// Policy is the engine's failure semantics for this execution.
	Policy Policy
	// Unhealthy names the shards whose backends currently have no
	// healthy replica — the shards a degraded execution would report
	// missing, and a strict one would fail on.
	Unhealthy []int
	// Seed, when non-nil, reports that a materialized cohort would seed
	// this plan's execution through Engine.Refine — the mask-provenance
	// annotation that makes the O(delta) refinement observable.
	Seed *SeedInfo
}

// SeedInfo names the materialized cohort a refinement of this plan would
// be seeded by, and how.
type SeedInfo struct {
	// Cohort is the seeding cohort's name; Count its cardinality — the
	// candidate set the delta would be bounded to.
	Cohort string `json:"cohort"`
	Count  int    `json:"count"`
	// Mode is RefineExact, RefineNarrow or RefineWiden.
	Mode string `json:"mode"`
	// Delta is the canonical key of the plan fragment that would actually
	// run (empty for an exact match).
	Delta string `json:"delta,omitempty"`
	// Pushed reports whether the seed mask would be shipped to remote
	// shards (a coordinator) or applied in-process (a local engine).
	Pushed bool `json:"pushed"`
}

// Explain compiles and cost-optimizes an expression and annotates every
// node with its estimated rows and cost, without executing it.
func (e *Engine) Explain(q query.Expr) (*Explained, error) {
	p, err := Compile(q)
	if err != nil {
		return nil, err
	}
	t := e.topoNow()
	p = e.plan(t, p)
	x := &Explained{Plan: p, Root: annotate(p, newCostModel(t.stats)), Patients: t.n, Backends: e.BackendInfo(), Policy: e.policy}
	for _, h := range e.Health() {
		if !h.Healthy {
			x.Unhealthy = append(x.Unhealthy, h.Shard)
		}
	}
	if seed, remaining, mode := e.refineSeed(t, p); seed != nil {
		x.Seed = &SeedInfo{Cohort: seed.name, Count: seed.count, Mode: mode, Pushed: t.view == nil}
		switch mode {
		case RefineNarrow:
			x.Seed.Delta = andOf(remaining).Key()
		case RefineWiden:
			x.Seed.Delta = orOf(remaining).Key()
		case RefineExact:
			x.Seed.Pushed = false // nothing executes, nothing is shipped
		}
	}
	return x, nil
}

// backendSummary compresses the topology into "4×local" or
// "2×remote(host:7070), 2×remote(host:7071)" style, preserving first-
// occurrence order.
func backendSummary(metas []ShardMeta) string {
	var order []string
	counts := make(map[string]int)
	for _, m := range metas {
		if counts[m.Backend] == 0 {
			order = append(order, m.Backend)
		}
		counts[m.Backend]++
	}
	parts := make([]string, len(order))
	for i, name := range order {
		parts[i] = fmt.Sprintf("%d×%s", counts[name], name)
	}
	return strings.Join(parts, ", ")
}

func annotate(p Plan, m *costModel) ExplainNode {
	n := ExplainNode{Label: nodeLabel(p)}
	if m != nil {
		n.Est = m.estimate(p)
	}
	switch t := p.(type) {
	case And:
		for _, c := range t.Children {
			n.Children = append(n.Children, annotate(c, m))
		}
	case Or:
		for _, c := range t.Children {
			n.Children = append(n.Children, annotate(c, m))
		}
	case Not:
		n.Children = append(n.Children, annotate(t.Child, m))
	}
	return n
}

func nodeLabel(p Plan) string {
	switch p.(type) {
	case And:
		return "and"
	case Or:
		return "or"
	case Not:
		return "not"
	default:
		return p.String()
	}
}

// String renders the annotated plan as an indented tree, children in
// execution order:
//
//	and  est_rows≈92 est_cost≈2.4e+04
//	  index:ICPC2~"T90"  est_rows≈1250 est_cost≈4.9e+02
//	  scan{has>=2(code~"K8.")}  est_rows≈2900 est_cost≈2.3e+04
func (x *Explained) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan over %d patients", x.Patients)
	if len(x.Backends) > 0 {
		fmt.Fprintf(&b, " (backends: %s)", backendSummary(x.Backends))
	}
	if x.Policy != PolicyStrict {
		fmt.Fprintf(&b, " [policy: %s]", x.Policy)
	}
	if len(x.Unhealthy) > 0 {
		fmt.Fprintf(&b, " [unhealthy shards: %v]", x.Unhealthy)
	}
	b.WriteString(":\n")
	if s := x.Seed; s != nil {
		where := "masked locally"
		if s.Pushed {
			where = "mask pushed down to remote shards"
		}
		switch s.Mode {
		case RefineExact:
			fmt.Fprintf(&b, "seed: cohort %q (%d patients) answers exactly — refine executes nothing\n", s.Cohort, s.Count)
		default:
			fmt.Fprintf(&b, "seed: cohort %q (%d patients, %s) bounds the scan, delta %s, %s\n",
				s.Cohort, s.Count, s.Mode, s.Delta, where)
		}
	}
	writeNode(&b, &x.Root, 0)
	return b.String()
}

func writeNode(b *strings.Builder, n *ExplainNode, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	b.WriteString(n.Label)
	fmt.Fprintf(b, "  est_rows≈%.0f est_cost≈%.3g", n.Est.Rows, n.Est.Cost)
	b.WriteByte('\n')
	for i := range n.Children {
		writeNode(b, &n.Children[i], depth+1)
	}
}
