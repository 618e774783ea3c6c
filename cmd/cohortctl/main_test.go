package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"pastas/internal/core"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// TestSaveSnapshotKeepsOriginalOnFailure: `cohort save|refine` rewrite
// their input snapshot in place, so a save that fails must leave the file
// at the target path byte-identical and no temp file behind — whether the
// workbench's Save errors or the temp file cannot be created.
func TestSaveSnapshotKeepsOriginalOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wb.snap")
	wb, err := core.Synthesize(synth.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	info, err := saveSnapshot(wb, path, 2)
	if err != nil {
		t.Fatal(err)
	}
	original, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if inspected, err := store.Inspect(bytes.NewReader(original)); err != nil || inspected.Bytes != info.Bytes {
		t.Fatalf("first save is not a complete snapshot: %+v, %v", inspected, err)
	}
	intact := func(when string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil || !bytes.Equal(got, original) {
			t.Fatalf("%s: target no longer holds the original snapshot (err %v)", when, err)
		}
	}
	alone := func(when string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "wb.snap" {
			t.Fatalf("%s: directory holds %v, want only wb.snap", when, entries)
		}
	}

	// A workbench with no local collection (as when connected to remote
	// shards): Save errors.
	if _, err := saveSnapshot(&core.Workbench{}, path, 0); err == nil {
		t.Fatal("save of a store-less workbench succeeded")
	}
	intact("after a failed Save")
	alone("after a failed Save")

	// The temp name is taken (a stale file this process does not own): the
	// save is refused, and the file is not removed on the way out.
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	if err := os.WriteFile(tmp, []byte("stale"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := saveSnapshot(wb, path, 2); err == nil {
		t.Fatal("save over an occupied temp name succeeded")
	}
	intact("after an uncreatable temp")
	if err := os.Remove(tmp); err != nil {
		t.Fatalf("stale temp was removed by a save that did not create it: %v", err)
	}

	// A successful save replaces the target and leaves nothing else behind.
	if _, err := saveSnapshot(wb, path, 4); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); bytes.Equal(got, original) {
		t.Error("successful save did not replace the target")
	}
	alone("after a successful save")
}
