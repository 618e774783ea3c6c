package store

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

// cohortRecords builds a few cohort records over an n-patient
// population. Expr bytes are opaque to this package, so any non-empty
// blob stands in for an engine-encoded expression.
func cohortRecords(n int) []CohortRecord {
	every := NewBitset(n)
	for i := 0; i < n; i++ {
		every.Set(i)
	}
	thirds := NewBitset(n)
	for i := 0; i < n; i += 3 {
		thirds.Set(i)
	}
	return []CohortRecord{
		{Name: "all", Expr: []byte("expr:true"), Bits: every},
		{Name: "thirds", Expr: []byte{0x00, 0x01, 0xff}, Bits: thirds},
		{Name: "none", Expr: []byte("expr:none"), Bits: NewBitset(n)},
	}
}

// TestCohortSaveDropsStaleBitsets: a record sized for a different
// population than the pinned revision (an append raced the export) is
// silently dropped — the epoch-invalidation semantics — not an error
// and never a corrupted segment.
func TestCohortSaveDropsStaleBitsets(t *testing.T) {
	cohorts := cohortRecords(50)
	stale := CohortRecord{Name: "stale", Expr: []byte("x"), Bits: NewBitset(49)}
	snap, info := saveSnap(t, New(snapCollection(50)), 4, append(cohorts, stale))
	if info.Cohorts != len(cohorts) {
		t.Fatalf("saved %d cohorts, want the %d current ones (stale dropped)", info.Cohorts, len(cohorts))
	}
	_, got, _, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range got {
		if c.Name == "stale" {
			t.Fatal("stale cohort crossed the snapshot boundary")
		}
	}
}

// TestCohortSegmentHostile: flipped bytes anywhere in the cohort
// segment fail the crc; truncations fail the read; hostile header
// counts fail validation. Loud errors, never panics, never silently
// short cohort lists.
func TestCohortSegmentHostile(t *testing.T) {
	snap, info := saveSnap(t, New(snapCollection(31)), 3, cohortRecords(31))
	segStart := len(snap) - int(info.CohortBytes)

	// Flip one byte at several positions inside the segment.
	for _, off := range []int{0, int(info.CohortBytes) / 2, int(info.CohortBytes) - 1} {
		mut := append([]byte(nil), snap...)
		mut[segStart+off] ^= 0x40
		_, _, _, err := Load(bytes.NewReader(mut))
		if err == nil {
			t.Fatalf("flipped byte at segment offset %d loaded cleanly", off)
		}
		if !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("flipped byte at %d: error %q does not name the checksum", off, err)
		}
	}

	// Truncations anywhere in the cohort segment are read errors.
	for _, keep := range []int{0, 1, int(info.CohortBytes) / 2, int(info.CohortBytes) - 1} {
		mut := snap[:segStart+keep]
		if _, _, _, err := Load(bytes.NewReader(mut)); err == nil {
			t.Fatalf("truncation to %d cohort bytes loaded cleanly", keep)
		}
	}

	// Hostile cohort extension in the header: a count with no bytes, a
	// count beyond the cap, and a checksum over an empty segment.
	mutateHeader := func(f func(ext []byte)) []byte {
		mut := append([]byte(nil), snap...)
		f(mut[cohortExtOff:shardTableOff])
		return mut
	}
	zeroBytes := mutateHeader(func(ext []byte) {
		binary.BigEndian.PutUint64(ext[4:12], 0) // count kept, bytes zeroed
	})
	if _, _, _, err := Load(bytes.NewReader(zeroBytes)); err == nil {
		t.Error("cohort count with zero segment bytes loaded cleanly")
	}
	hugeCount := mutateHeader(func(ext []byte) {
		binary.BigEndian.PutUint32(ext[0:4], 1<<31-1)
	})
	if _, _, _, err := Load(bytes.NewReader(hugeCount)); err == nil {
		t.Error("cohort count beyond the cap loaded cleanly")
	}
	cohortless, _ := saveSnap(t, New(snapCollection(31)), 3, nil)
	binary.BigEndian.PutUint32(cohortless[cohortExtOff+12:], 0xdeadbeef)
	if _, _, _, err := Load(bytes.NewReader(cohortless)); err == nil {
		t.Error("non-zero checksum over an empty cohort segment loaded cleanly")
	}
}

// TestCohortSegmentCodecValidation exercises decodeCohortSegment
// directly with malformed records.
func TestCohortSegmentCodecValidation(t *testing.T) {
	bits := NewBitset(9)
	bits.Set(2)
	good, err := encodeCohortSegment([]CohortRecord{{Name: "a", Expr: []byte("e"), Bits: bits}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCohortSegment(good, 1, 9); err != nil {
		t.Fatalf("well-formed segment rejected: %v", err)
	}
	if _, err := decodeCohortSegment(good, 2, 9); err == nil {
		t.Error("count beyond the records decoded cleanly")
	}
	if _, err := decodeCohortSegment(good, 1, 10); err == nil {
		t.Error("population mismatch decoded cleanly")
	}
	if _, err := decodeCohortSegment(append(good, 0xff), 1, 9); err == nil {
		t.Error("trailing bytes decoded cleanly")
	}
	dup, err := encodeCohortSegment([]CohortRecord{
		{Name: "a", Expr: []byte("e"), Bits: bits},
		{Name: "a", Expr: []byte("e"), Bits: bits},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCohortSegment(dup, 2, 9); err == nil {
		t.Error("duplicate cohort names decoded cleanly")
	}
	if _, err := encodeCohortSegment([]CohortRecord{{Name: "", Expr: []byte("e"), Bits: bits}}); err == nil {
		t.Error("empty name encoded cleanly")
	}
	if _, err := encodeCohortSegment([]CohortRecord{{Name: strings.Repeat("x", 2000), Expr: []byte("e"), Bits: bits}}); err == nil {
		t.Error("oversized name encoded cleanly")
	}
	if _, err := encodeCohortSegment([]CohortRecord{{Name: "nil", Expr: []byte("e"), Bits: nil}}); err == nil {
		t.Error("nil bitset encoded cleanly")
	}
}

// FuzzCohortSegment throws arbitrary bytes at both the segment codec
// and the whole-snapshot loader seeded with a real snapshot: any input
// may error but must never panic.
func FuzzCohortSegment(f *testing.F) {
	cohorts := cohortRecords(13)
	snap, _ := saveSnap(f, New(snapCollection(13)), 3, cohorts)
	f.Add(snap, 3)
	f.Add(snap[:len(snap)-5], 3)
	seg, err := encodeCohortSegment(cohorts)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, len(cohorts))
	f.Add([]byte{}, 0)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff}, 1)
	f.Fuzz(func(t *testing.T, data []byte, count int) {
		if count < 0 || count > 1<<12 {
			count = 1
		}
		recs, err := decodeCohortSegment(data, count, 13)
		if err == nil {
			for _, r := range recs {
				if r.Bits == nil || r.Bits.Len() != 13 {
					t.Error("decoded cohort with wrong population")
				}
			}
		}
		col, _, _, err := Load(bytes.NewReader(data))
		if err == nil && col == nil {
			t.Error("nil collection without error")
		}
	})
}
