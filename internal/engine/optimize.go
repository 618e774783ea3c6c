package engine

import (
	"sort"

	"pastas/internal/store"
)

// Optimize rewrites a plan into its executable form. One bottom-up pass
// applies, at every node:
//
//   - flatten: And{And{a,b},c} → And{a,b,c}, same for Or
//   - constant folding: All/None absorb or cancel inside And/Or,
//     Not{All}=None, Not{None}=All, Not{Not{x}}=x
//   - dedupe: structurally identical siblings (same canonical key)
//     collapse to one
//   - hoist: scan-free children (index leaves, boolean combinations of
//     them) move ahead of scan-bearing ones, stably, so the executor can
//     mask expensive scans by the already-narrowed candidate set
//   - singleton collapse: And/Or of one child becomes the child
//
// The input plan is not mutated. Execution order within a tier is the
// compile order (the static hoist); OptimizeWithStats replaces that with
// cost-based ordering.
func Optimize(p Plan) Plan { return optimizeNode(p, nil) }

// OptimizeWithStats is Optimize with the static hoist replaced by
// cost-based child ordering, estimated from the store's exact index
// cardinalities alone (see the cost model in cost.go): And scans run in
// rank order, Or children largest first, scan-free children ahead of
// scans in both. The same expression and statistics always give the same
// plan. Falls back to the static ordering when st is nil or the
// population is empty. Reordering never changes plan cache keys: And/Or
// keys are canonical (order-insensitive) by construction.
func OptimizeWithStats(p Plan, st *store.Stats) Plan {
	return optimizeNode(p, newCostModel(st))
}

func optimizeNode(p Plan, m *costModel) Plan {
	switch n := p.(type) {
	case And:
		return optimizeNary(n.Children, true, m)
	case Or:
		return optimizeNary(n.Children, false, m)
	case Not:
		child := optimizeNode(n.Child, m)
		switch c := child.(type) {
		case All:
			return None{}
		case None:
			return All{}
		case Not:
			return c.Child
		}
		return Not{Child: child}
	default:
		return p
	}
}

// optimizeNary rewrites an And (conj=true) or Or (conj=false) node.
func optimizeNary(children []Plan, conj bool, m *costModel) Plan {
	var flat []Plan
	for _, c := range children {
		c = optimizeNode(c, m)
		switch cc := c.(type) {
		case And:
			if conj {
				flat = append(flat, cc.Children...)
				continue
			}
		case Or:
			if !conj {
				flat = append(flat, cc.Children...)
				continue
			}
		case All:
			if conj {
				continue // neutral element
			}
			return All{} // absorbing element
		case None:
			if conj {
				return None{} // absorbing element
			}
			continue // neutral element
		}
		flat = append(flat, c)
	}

	// Dedupe structurally identical siblings (idempotence of ∧ / ∨).
	seen := make(map[string]bool, len(flat))
	deduped := flat[:0]
	for _, c := range flat {
		k := c.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		deduped = append(deduped, c)
	}

	switch len(deduped) {
	case 0:
		if conj {
			return All{}
		}
		return None{}
	case 1:
		return deduped[0]
	}

	if m != nil {
		// Cost-based: scans in rank order under And, largest-first
		// under Or, index-answerable children still ahead of scans in
		// both.
		m.order(deduped, conj)
	} else {
		// Static hoist: index-answerable children ahead of scan-bearing
		// ones, compile order within each tier.
		sort.SliceStable(deduped, func(i, j int) bool {
			return !hasScan(deduped[i]) && hasScan(deduped[j])
		})
	}

	if conj {
		return And{Children: deduped}
	}
	return Or{Children: deduped}
}
