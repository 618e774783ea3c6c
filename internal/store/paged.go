package store

import "slices"

// A page of a paged vector holds pageLen = 4,096 elements, a multiple of
// 64, so the rows of a bitset word at an aligned ordinal lie in one page.
const pageBits, pageLen = 12, 1 << 12

// paged is a persistent vector of fixed pages reached through a page
// table: the per-row arrays of a revision (histories, patient IDs) and of
// its frame (run locators, births, sexes). A vector forked for the next
// revision shares every page and copies one the first time it writes it,
// so no page a published revision can read is ever written, and an
// append costs the pages it touches, not the population.
type paged[T any] struct {
	pages []*[pageLen]T
	own   []bool // own[p]: this vector made pages[p], so it may write it
	n     int
}

// at reads element i.
func (v *paged[T]) at(i int) T { return v.pages[i>>pageBits][i&(pageLen-1)] }

// from returns the elements from i to the end of i's page, past v.n too
// when i is in the last page (those read as the zero T).
func (v *paged[T]) from(i int) []T { return v.pages[i>>pageBits][i&(pageLen-1):] }

// fork returns a vector sharing every page of v, for the next revision to
// write.
func (v *paged[T]) fork() paged[T] {
	return paged[T]{pages: slices.Clone(v.pages), own: make([]bool, len(v.pages)), n: v.n}
}

// set writes x at i ≤ v.n (i == v.n pushes), copying i's page first
// unless v made it.
func (v *paged[T]) set(i int, x T) {
	p := i >> pageBits
	if p == len(v.pages) {
		v.pages, v.own = append(v.pages, new([pageLen]T)), append(v.own, true)
	} else if !v.own[p] {
		cp := *v.pages[p]
		v.pages[p], v.own[p] = &cp, true
	}
	v.pages[p][i&(pageLen-1)] = x
	v.n = max(v.n, i+1)
}

// push appends x.
func (v *paged[T]) push(x T) { v.set(v.n, x) }

// slice copies elements [lo, hi) out.
func (v *paged[T]) slice(lo, hi int) []T {
	out := make([]T, 0, hi-lo)
	for len(out) < hi-lo {
		run := v.from(lo + len(out))
		out = append(out, run[:min(len(run), hi-lo-len(out))]...)
	}
	return out
}
