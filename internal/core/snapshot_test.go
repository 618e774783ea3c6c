package core

import (
	"bytes"
	"encoding/binary"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
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

// TestSaveDefaultsToGOMAXPROCS: Save with Shards 0 over a local engine,
// which is one backend, writes min(GOMAXPROCS, patients) segments, so
// Open still decodes in parallel.
func TestSaveDefaultsToGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, n := range []int{2, 400} {
		wb := testWorkbench(t, n)
		for _, procs := range []int{1, 3, 4} {
			runtime.GOMAXPROCS(procs)
			info, err := wb.Save(io.Discard, SnapshotOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if want := min(procs, n); info.Shards != want {
				t.Errorf("%d patients, GOMAXPROCS %d: %d segments, want %d", n, procs, info.Shards, want)
			}
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

// TestSnapshotAllocationBudget: the Save → Open round trip allocates what
// it keeps. Save sizes each history segment from its entry count, so it
// allocates at most twice the snapshot it writes; Open reads a sized input
// into exactly sized segments and decodes one string per distinct text,
// so it makes well under one allocation per entry.
func TestSnapshotAllocationBudget(t *testing.T) {
	if testing.Short() {
		// CI's race pass runs -short; the budget is measured without it.
		t.Skip("allocation budget is measured without -short")
	}
	wb := testWorkbench(t, 2000)
	measure := func(fn func() error) (bytes, mallocs uint64) {
		t.Helper()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		err := fn()
		runtime.ReadMemStats(&m1)
		if err != nil {
			t.Fatal(err)
		}
		return m1.TotalAlloc - m0.TotalAlloc, m1.Mallocs - m0.Mallocs
	}
	// Save once to learn the size, then into a destination grown to it,
	// so only Save's own allocations count.
	var probe bytes.Buffer
	if _, err := wb.Save(&probe, SnapshotOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	buf := bytes.NewBuffer(make([]byte, 0, probe.Len()))
	var info *store.SnapshotInfo
	saved, _ := measure(func() (err error) {
		info, err = wb.Save(buf, SnapshotOptions{Shards: 4})
		return err
	})
	_, opened := measure(func() error {
		_, err := Open(bytes.NewReader(buf.Bytes()), wb.Window)
		return err
	})
	saveRatio, perEntry := float64(saved)/float64(info.Bytes), float64(opened)/float64(info.Entries)
	t.Logf("%d entries, %d-byte snapshot: Save allocated %.2f× its bytes, Open %.2f allocations per entry", info.Entries, info.Bytes, saveRatio, perEntry)
	if saveRatio > 2 {
		t.Errorf("Save allocated %d bytes for a %d-byte snapshot (%.2f×); budget 2×", saved, info.Bytes, saveRatio)
	}
	if perEntry > 0.3 {
		t.Errorf("Open made %.2f allocations per entry; budget 0.3", perEntry)
	}
}
