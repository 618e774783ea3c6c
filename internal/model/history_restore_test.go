package model

import (
	"reflect"
	"testing"
)

func unsortedEntries() []Entry {
	return []Entry{
		{ID: 2, Kind: Point, Start: Date(2011, 5, 1), End: Date(2011, 5, 1), Type: TypeContact, Source: SourceGP},
		{ID: 1, Kind: Point, Start: Date(2011, 1, 1), End: Date(2011, 1, 1), Type: TypeContact, Source: SourceGP},
		{ID: 3, Kind: Point, Start: Date(2011, 9, 1), End: Date(2011, 9, 1), Type: TypeContact, Source: SourceGP},
	}
}

func TestSortedEntriesDoesNotMutate(t *testing.T) {
	h := NewHistory(Patient{ID: 1, Birth: Date(1950, 1, 1)})
	for _, e := range unsortedEntries() {
		h.Add(e)
	}
	if h.Sorted() {
		t.Fatal("fixture must start unsorted")
	}
	got := h.SortedEntries()
	if len(got) != 3 || got[0].ID != 1 || got[1].ID != 2 || got[2].ID != 3 {
		t.Errorf("SortedEntries order = %v", got)
	}
	if h.Sorted() {
		t.Error("SortedEntries flipped the sorted flag")
	}
	if h.Entries[0].ID != 2 {
		t.Error("SortedEntries reordered the live slice")
	}
	// On an already-sorted history it returns the live slice (no copy).
	h.Sort()
	if live := h.SortedEntries(); &live[0] != &h.Entries[0] {
		t.Error("sorted history should return the live slice")
	}
}

func TestRestoreHistory(t *testing.T) {
	p := Patient{ID: 42, Birth: Date(1960, 2, 2)}

	// Sorted input: flag set, entries adopted in place.
	sorted := []Entry{
		{ID: 1, Kind: Point, Start: Date(2011, 1, 1), End: Date(2011, 1, 1)},
		{ID: 2, Kind: Point, Start: Date(2011, 5, 1), End: Date(2011, 5, 1)},
	}
	h := RestoreHistory(p, sorted)
	if !h.Sorted() {
		t.Error("sorted entries not recognized")
	}
	if &h.Entries[0] != &sorted[0] {
		t.Error("RestoreHistory copied instead of adopting")
	}

	// Unsorted input: the flag must stay false so Sort still works.
	h2 := RestoreHistory(p, unsortedEntries())
	if h2.Sorted() {
		t.Error("unsorted entries claimed sorted")
	}
	h2.Sort()
	want := []uint64{1, 2, 3}
	var got []uint64
	for i := range h2.Entries {
		got = append(got, h2.Entries[i].ID)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("after Sort: %v", got)
	}
}
