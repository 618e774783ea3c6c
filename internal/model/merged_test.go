package model

import (
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestMergedMatchesSort: on drawn histories whose sort keys collide often
// (three starts, two ends, two types and three IDs, every entry told apart
// by its Aux), Merged gives exactly the order Sort gives the old entries
// followed by the new ones — an old entry before an equal-keyed new one,
// equal new ones in batch order — sorted old history or not, and leaves
// the old history as it was.
func TestMergedMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	base := Date(2011, time.January, 1)
	tag := 0
	draw := func(n int) []Entry {
		es := make([]Entry, n)
		for i := range es {
			tag++
			start := base.AddDays(rng.Intn(3))
			es[i] = Entry{ID: uint64(rng.Intn(3)), Kind: Interval, Start: start, End: start.AddDays(1 + rng.Intn(2)),
				Type: Type(rng.Intn(2)), Aux: float64(tag)}
		}
		return es
	}
	for trial := range 5000 {
		old := RestoreHistory(newTestPatient(1), draw(rng.Intn(9)))
		if trial%2 == 0 {
			old.Sort()
		}
		add := draw(rng.Intn(6))
		want := RestoreHistory(old.Patient, append(slices.Clone(old.Entries), add...))
		want.Sort()
		before := slices.Clone(old.Entries)
		got := old.Merged(slices.Clone(add))
		if !got.Sorted() || got.Patient != old.Patient || !slices.Equal(got.Entries, want.Entries) {
			t.Fatalf("trial %d: Merged of %d old and %d new entries differs from Sort of their concatenation", trial, len(before), len(add))
		}
		if !slices.Equal(old.Entries, before) {
			t.Fatalf("trial %d: Merged changed the old history", trial)
		}
	}
}
