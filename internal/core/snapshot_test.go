package core

import (
	"bytes"
	"encoding/binary"
	"strings"
	"sync"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
)

// TestSnapshotShardedEngineParity is the round-trip gate CI runs under
// -race: save the workbench sharded at {1, 4, 16}, reopen each snapshot,
// verify the reloaded collection is per-history identical to the
// original, and confirm the reloaded engine answers a mixed index+scan
// cohort query with exactly the same bitset.
func TestSnapshotShardedEngineParity(t *testing.T) {
	wb := testWorkbench(t, 400)
	workload := query.And{
		query.Or{
			query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", "T90")}},
			query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("ICD10", `E11(\..*)?`)}},
		},
		query.Has{Pred: query.MustCode("", `K8.|T9.`), MinCount: 1},
	}
	want, err := wb.Query(workload)
	if err != nil {
		t.Fatal(err)
	}

	for _, shards := range []int{1, 4, 16} {
		var buf bytes.Buffer
		info, err := wb.Save(&buf, SnapshotOptions{Shards: shards})
		if err != nil {
			t.Fatalf("shards=%d: save: %v", shards, err)
		}
		if info.Shards != shards {
			t.Errorf("shards=%d: snapshot has %d shards", shards, info.Shards)
		}
		back, err := Open(bytes.NewReader(buf.Bytes()), wb.Window)
		if err != nil {
			t.Fatalf("shards=%d: open: %v", shards, err)
		}
		if back.Snapshot == nil || back.Snapshot.Shards != shards {
			t.Errorf("shards=%d: provenance = %+v", shards, back.Snapshot)
		}

		// Per-history parity with the original collection.
		orig, got := wb.Store.Collection(), back.Store.Collection()
		if got.Len() != orig.Len() {
			t.Fatalf("shards=%d: %d patients, want %d", shards, got.Len(), orig.Len())
		}
		for i := 0; i < orig.Len(); i++ {
			oh, gh := orig.At(i), got.At(i)
			if oh.Patient != gh.Patient {
				t.Fatalf("shards=%d: history %d patient drifted", shards, i)
			}
			oe, ge := oh.SortedEntries(), gh.SortedEntries()
			if len(oe) != len(ge) {
				t.Fatalf("shards=%d: history %d has %d entries, want %d", shards, i, len(ge), len(oe))
			}
			for j := range oe {
				if oe[j] != ge[j] {
					t.Fatalf("shards=%d: history %d entry %d drifted:\n got %+v\nwant %+v",
						shards, i, j, ge[j], oe[j])
				}
			}
		}

		// Engine parity on the reloaded store.
		bits, err := back.Query(workload)
		if err != nil {
			t.Fatalf("shards=%d: query: %v", shards, err)
		}
		if !bits.Equal(want) {
			t.Errorf("shards=%d: cohort drifted: %d patients, want %d", shards, bits.Count(), want.Count())
		}
	}
}

// TestOpenRefusesOtherVersions: Open reads one format. A header stamped
// with an older version, and a stream that is no snapshot at all, are
// errors — the former naming the version found — never a partial
// workbench.
func TestOpenRefusesOtherVersions(t *testing.T) {
	wb := testWorkbench(t, 60)
	var buf bytes.Buffer
	if _, err := wb.Save(&buf, SnapshotOptions{Shards: 2}); err != nil {
		t.Fatal(err)
	}
	old := buf.Bytes()
	binary.BigEndian.PutUint32(old[8:], 4) // the version field follows the 8-byte magic
	back, err := Open(bytes.NewReader(old), wb.Window)
	if err == nil || back != nil || !strings.Contains(err.Error(), "unsupported version 4") {
		t.Errorf("v4 header: workbench %v, err %v", back, err)
	}
	if back, err := Open(strings.NewReader("garbage"), wb.Window); err == nil || back != nil {
		t.Errorf("garbage stream: workbench %v, err %v", back, err)
	}
}

// TestSaveDuringQueries: saving must be read-only on the collection, so
// snapshotting while engine queries are in flight is race-free (CI runs
// this under -race, which is the actual assertion here).
func TestSaveDuringQueries(t *testing.T) {
	wb := testWorkbench(t, 200)
	expr := query.Has{Pred: query.MustCode("", `K8.`), MinCount: 1}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			wb.Engine.ResetCache() // force re-evaluation (scans walk entries)
			if _, err := wb.Query(expr); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		if _, err := wb.Save(&buf, SnapshotOptions{Shards: 4}); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}
