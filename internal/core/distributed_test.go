package core

// Workbench-over-a-backend-set: core.Connect against loopback shard
// servers answers cohort queries bit-identically to the local workbench
// the snapshot was saved from, and refuses the operations that need
// local histories.

import (
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"pastas/internal/engine"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// startCluster saves wb as a snapshot with `shards` shards and serves it
// from two loopback shard servers; returns their addresses.
func startCluster(t testing.TB, wb *Workbench, shards int) []string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cluster.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := wb.Save(f, SnapshotOptions{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	var firstHalf, secondHalf []int
	for id := 0; id < info.Shards; id++ {
		if id < info.Shards/2 {
			firstHalf = append(firstHalf, id)
		} else {
			secondHalf = append(secondHalf, id)
		}
	}
	var addrs []string
	for _, ids := range [][]int{firstHalf, secondHalf} {
		if len(ids) == 0 {
			continue
		}
		srv, err := engine.NewShardServer(path, ids, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		go srv.Serve(lis)
		addrs = append(addrs, lis.Addr().String())
	}
	return addrs
}

func TestConnectParityAndGuards(t *testing.T) {
	local, err := Synthesize(synth.DefaultConfig(400))
	if err != nil {
		t.Fatal(err)
	}
	addrs := startCluster(t, local, 4)
	remote, err := Connect(addrs, engine.RemoteOptions{Timeout: 30 * time.Second},
		engine.Options{Workers: 4, CacheSize: 16}, local.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	if remote.Patients() != local.Patients() || remote.Entries() != local.Entries() {
		t.Fatalf("remote sees %d/%d, local %d/%d",
			remote.Patients(), remote.Entries(), local.Patients(), local.Entries())
	}
	exprs := []query.Expr{
		query.TrueExpr{},
		query.Has{Pred: query.MustCode("", `T90|E11(\..*)?`)},
		query.And{
			query.Has{Pred: query.SourceIs(2)},
			query.Not{E: query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2}},
		},
	}
	for _, e := range exprs {
		want, err := local.Query(e)
		if err != nil {
			t.Fatal(err)
		}
		got, err := remote.Query(e)
		if err != nil {
			t.Fatalf("remote Query(%s): %v", e, err)
		}
		if !got.Equal(want) {
			t.Fatalf("remote diverges for %s: %d vs %d", e, got.Count(), want.Count())
		}
		// The sub-collection a cohort selects — Query + Histories, the path
		// every cohort consumer takes — is the local one, history for history.
		wantCol, err := local.Histories(want)
		if err != nil {
			t.Fatal(err)
		}
		gotCol, err := remote.Histories(got)
		if err != nil {
			t.Fatalf("remote Histories(%s): %v", e, err)
		}
		if gotCol.Len() != wantCol.Len() || gotCol.Len() != want.Count() {
			t.Fatalf("%s: remote sub-collection has %d histories, local %d, cohort %d", e, gotCol.Len(), wantCol.Len(), want.Count())
		}
		for i, h := range wantCol.Histories() {
			g := gotCol.At(i)
			if g.Patient != h.Patient || !slices.Equal(g.SortedEntries(), h.SortedEntries()) {
				t.Fatalf("%s: history %d diverges: remote %s, local %s", e, i, g.Patient.ID, h.Patient.ID)
			}
		}
	}

	// Snapshot persistence still needs the local collection: every guard
	// is an error, never a panic.
	if remote.Store != nil {
		t.Error("connected workbench has a Store")
	}
	if _, err := remote.Save(os.Stderr, SnapshotOptions{}); err == nil {
		t.Error("save over remote shards succeeded")
	}

	// Sessions now work over remote shards: Extract pages the matching
	// histories in from their shard servers (see TestConnectedSession for
	// the render-parity property).
	sess, err := NewSession(remote)
	if err != nil {
		t.Fatalf("session over remote shards refused: %v", err)
	}
	if sess.View().Len() != 0 {
		t.Errorf("connected session starts with %d histories, want empty base", sess.View().Len())
	}
}

// TestConnectedSession: the interactive session works over remote shard
// servers — Extract pages the cohort in through the fetch RPC, and every
// downstream display operation (timeline render, details, alignment,
// refinement) produces byte-identical output to a local session over the
// same data. History accessors and server-side indicator aggregation
// match too.
func TestConnectedSession(t *testing.T) {
	local, err := Synthesize(synth.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	addrs := startCluster(t, local, 4)
	remote, err := Connect(addrs, engine.RemoteOptions{Timeout: 30 * time.Second},
		engine.Options{Workers: 4, CacheSize: 16}, local.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	expr := query.Has{Pred: query.MustCode("", `T90|E11(\..*)?`)}

	// Workbench accessors: one patient, a cohort, the indicator panel.
	wantID := local.Store.Collection().IDs()[0]
	hLocal, err := local.History(wantID)
	if err != nil {
		t.Fatal(err)
	}
	hRemote, err := remote.History(wantID)
	if err != nil {
		t.Fatalf("remote History: %v", err)
	}
	if hRemote.Patient != hLocal.Patient || hRemote.Len() != hLocal.Len() {
		t.Fatalf("remote history diverges: %+v vs %+v", hRemote.Patient, hLocal.Patient)
	}
	bitsL, err := local.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	bitsR, err := remote.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	indL, err := local.Indicators(bitsL)
	if err != nil {
		t.Fatal(err)
	}
	indR, err := remote.Indicators(bitsR)
	if err != nil {
		t.Fatalf("remote Indicators: %v", err)
	}
	if indL != indR {
		t.Fatalf("indicators diverge:\nlocal  %+v\nremote %+v", indL, indR)
	}

	// Sessions: extract, render, refine — same pixels either side.
	opt := render.TimelineOptions{Width: 800, Height: 400, MaxRows: 40}
	sessL, err := NewSession(local)
	if err != nil {
		t.Fatal(err)
	}
	sessR, err := NewSession(remote)
	if err != nil {
		t.Fatal(err)
	}
	for _, sess := range []*Session{sessL, sessR} {
		if err := sess.Extract(expr); err != nil {
			t.Fatalf("extract: %v", err)
		}
	}
	if sessL.View().Len() == 0 {
		t.Fatal("extract matched nothing; fixture too small")
	}
	if sessR.View().Len() != sessL.View().Len() {
		t.Fatalf("remote view has %d histories, local %d", sessR.View().Len(), sessL.View().Len())
	}
	if svgL, svgR := sessL.RenderTimeline(opt), sessR.RenderTimeline(opt); svgL != svgR {
		t.Error("timeline render diverges between local and connected session")
	}
	// A refinement on the fetched view stays local to the session.
	refine := query.Has{Pred: query.SourceIs(1)}
	for _, sess := range []*Session{sessL, sessR} {
		if err := sess.Extract(refine); err != nil {
			t.Fatalf("refine: %v", err)
		}
	}
	if sessR.View().Len() != sessL.View().Len() {
		t.Fatalf("refined remote view has %d histories, local %d", sessR.View().Len(), sessL.View().Len())
	}
	if svgL, svgR := sessL.RenderTimeline(opt), sessR.RenderTimeline(opt); svgL != svgR {
		t.Error("refined timeline render diverges")
	}
	// Details-on-demand against the fetched view.
	id := sessL.View().IDs()[0]
	at := sessL.View().Get(id).Span().Start
	if dL, dR := sessL.Details(id, at), sessR.Details(id, at); len(dL) != len(dR) {
		t.Errorf("details diverge: %d vs %d lines", len(dL), len(dR))
	}
	// Reset returns the connected session to its empty base.
	sessR.Reset()
	if sessR.View().Len() != 0 {
		t.Errorf("reset connected session views %d histories, want 0", sessR.View().Len())
	}
}

// TestConnectToleratesDeadReplicaMember: replication exists so a down
// server is survivable — a replica group with one unreachable member
// must still connect (the survivor carries the load, the dead member
// joins as a deferred backend), and when something comes back on the
// dead member's address serving a DIFFERENT snapshot, the dial-time
// identity re-validation keeps it out of the rotation. Queries stay
// bit-identical to the local workbench throughout.
func TestConnectToleratesDeadReplicaMember(t *testing.T) {
	local, err := Synthesize(synth.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	saveSnap := func(wb *Workbench, name string) string {
		t.Helper()
		path := filepath.Join(t.TempDir(), name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := wb.Save(f, SnapshotOptions{Shards: 4}); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		return path
	}
	serve := func(path, addr string) string {
		t.Helper()
		srv, err := engine.NewShardServer(path, []int{0, 1, 2, 3}, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		go srv.Serve(lis)
		return lis.Addr().String()
	}
	liveAddr := serve(saveSnap(local, "live.snap"), "127.0.0.1:0")
	// Reserve an address, then free it: the group's second member is
	// down at connect time.
	deadLis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadLis.Addr().String()
	deadLis.Close()

	remote, err := Connect([]string{liveAddr + "|" + deadAddr},
		engine.RemoteOptions{Timeout: 5 * time.Second},
		engine.Options{Workers: 4, CacheSize: 0}, local.Window)
	if err != nil {
		t.Fatalf("connect with one dead replica member refused: %v", err)
	}
	defer remote.Close()

	expr := query.Has{Pred: query.MustCode("", `T90|E11(\..*)?`)}
	want, err := local.Query(expr)
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got, err := remote.Query(expr)
		if err != nil {
			t.Fatalf("%s: remote Query: %v", when, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: remote diverges: %d vs %d", when, got.Count(), want.Count())
		}
	}
	check("dead member down")
	for _, h := range remote.Engine.Health() {
		if len(h.Replicas) != 2 {
			t.Fatalf("shard %d has %d replicas in rotation, want 2 (deferred member missing)", h.Shard, len(h.Replicas))
		}
	}

	// Resurrect the dead address with a server loading a different
	// snapshot: the identity check on its first dial must refuse it and
	// mark it down — never blend the wrong population into a cohort.
	other, err := Synthesize(synth.DefaultConfig(500))
	if err != nil {
		t.Fatal(err)
	}
	serve(saveSnap(other, "impostor.snap"), deadAddr)
	impostorDown := func() bool {
		for _, h := range remote.Engine.Health() {
			for _, r := range h.Replicas {
				if strings.Contains(r.Backend, deadAddr) && !r.Healthy && r.Failures > 0 {
					return true
				}
			}
		}
		return false
	}
	for deadline := time.Now().Add(10 * time.Second); !impostorDown(); {
		if time.Now().After(deadline) {
			t.Fatal("impostor member never tried and marked down")
		}
		check("impostor serving wrong snapshot")
		time.Sleep(5 * time.Millisecond)
	}
	check("impostor marked down")
}

func TestConnectRejectsPartialTopology(t *testing.T) {
	local, err := Synthesize(synth.DefaultConfig(200))
	if err != nil {
		t.Fatal(err)
	}
	addrs := startCluster(t, local, 4)
	// Connecting to only one of the two servers leaves a gap in the
	// ordinal space; that is a topology error, not a silent half-answer.
	_, err = Connect(addrs[:1], engine.RemoteOptions{Timeout: 10 * time.Second},
		engine.Options{}, local.Window)
	if err == nil {
		t.Fatal("partial topology accepted")
	}
	if !strings.Contains(err.Error(), "cover") && !strings.Contains(err.Error(), "tile") {
		t.Errorf("error does not explain the missing coverage: %v", err)
	}
}

// TestViewEqualsWholeCohort: Workbench.View answers the first rows
// histories and the span of the whole cohort — model.Collection.Span over
// every member, which skips a history without entries and follows a widest
// history lying beyond the rows — locally and over shard servers alike,
// for cohorts of nobody, one entry-less patient, and everyone.
func TestViewEqualsWholeCohort(t *testing.T) {
	base, err := Synthesize(synth.DefaultConfig(300))
	if err != nil {
		t.Fatal(err)
	}
	hs := append([]*model.History(nil), base.Store.Collection().Histories()...)
	empty := model.NewHistory(model.Patient{ID: 1 << 40, Birth: model.Date(1950, 1, 1)})
	wide := model.NewHistory(model.Patient{ID: 1<<40 + 1, Birth: model.Date(1900, 1, 1)})
	for i, at := range []model.Time{model.Date(1931, 5, 1), model.Date(2044, 2, 1)} {
		wide.Add(model.Entry{ID: 1<<50 + uint64(i), Kind: model.Point, Start: at, End: at, Type: model.TypeContact, Source: model.SourceGP})
	}
	hs = append([]*model.History{empty}, append(hs, wide)...)
	local := FromCollection(model.MustCollection(hs...), base.Window)
	remote, err := Connect(startCluster(t, local, 4), engine.RemoteOptions{Timeout: 30 * time.Second}, engine.Options{Workers: 2}, local.Window)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	everyone, err := local.Query(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	onlyEmpty := everyone.FirstN(1)
	head := everyone.FirstN(40)
	for cohort, bits := range map[string]*store.Bitset{
		"nobody": everyone.Clone().AndNot(everyone), "the entry-less patient": onlyEmpty,
		"the first forty": head, "everyone": everyone,
	} {
		col, err := local.Histories(bits)
		if err != nil {
			t.Fatal(err)
		}
		for _, rows := range []int{1, 5, 1000} {
			for name, wb := range map[string]*Workbench{"local": local, "connected": remote} {
				got, domain, err := wb.View(bits, rows)
				if err != nil {
					t.Fatalf("%s View(%s, %d): %v", name, cohort, rows, err)
				}
				if domain != col.Span() {
					t.Errorf("%s View(%s, %d) spans %v, the cohort's collection %v", name, cohort, rows, domain, col.Span())
				}
				want := col.Histories()[:min(rows, col.Len())]
				if len(got) != len(want) {
					t.Fatalf("%s View(%s, %d) = %d histories, want %d", name, cohort, rows, len(got), len(want))
				}
				for i := range got {
					if got[i].Patient != want[i].Patient || got[i].Len() != want[i].Len() {
						t.Errorf("%s View(%s, %d) row %d is %v, want %v", name, cohort, rows, i, got[i].Patient, want[i].Patient)
					}
				}
			}
		}
	}
}
