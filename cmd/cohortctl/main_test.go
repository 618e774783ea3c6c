package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

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

// TestServeDrainsBeforeReturning: `serve` over a saved snapshot answers the
// webapp's routes, and once its context ends it returns nil only after the
// request in flight has been answered — leaving no goroutine of its own.
func TestServeDrainsBeforeReturning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wb.snap")
	saved, err := core.Synthesize(synth.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := saveSnapshot(saved, path, 2); err != nil {
		t.Fatal(err)
	}
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	load := sourceFlags(fs, true)
	if err := fs.Parse([]string{"-snapshot", path}); err != nil {
		t.Fatal(err)
	}
	wb, _, err := load()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveHTTP(ctx, lis, wb, "pw") }()

	client := &http.Client{Transport: &http.Transport{}}
	for _, route := range []string{"/healthz", "/api/timeline?patient=1&pw=pw"} {
		resp, err := client.Get("http://" + lis.Addr().String() + route)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !json.Valid(body) {
			t.Fatalf("GET %s: status %d, body %.80q", route, resp.StatusCode, body)
		}
	}
	client.CloseIdleConnections()

	// A query whose body has not arrived: "100 Continue" proves the handler
	// is running and blocked on the body when the context ends.
	conn, err := net.Dial("tcp", lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	spec := `{"op":"has","type":"diagnosis"}`
	fmt.Fprintf(conn, "POST /api/cohorts/query?pw=pw HTTP/1.1\r\nHost: wb\r\nContent-Length: %d\r\nExpect: 100-continue\r\nConnection: close\r\n\r\n", len(spec))
	br := bufio.NewReader(conn)
	if resp, err := http.ReadResponse(br, nil); err != nil || resp.StatusCode != http.StatusContinue {
		t.Fatalf("waiting for 100 Continue: %v, %v", resp, err)
	}
	cancel()
	select {
	case err := <-done:
		t.Fatalf("serve returned (%v) with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	io.WriteString(conn, spec)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		t.Fatalf("in-flight request was severed: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !bytes.Contains(body, []byte(`"count"`)) {
		t.Fatalf("in-flight request: status %d, body %.80q", resp.StatusCode, body)
	}
	if err := <-done; err != nil {
		t.Fatalf("serve = %v, want nil after a drained shutdown", err)
	}
	if _, err := net.Dial("tcp", lis.Addr().String()); err == nil {
		t.Error("listener still accepts after serve returned")
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines, %d before serve:\n%s", runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
