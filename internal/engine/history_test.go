package engine

// The history-level distributed contract: fetched histories and
// server-side indicator aggregates from a coordinator over remote shard
// servers are identical — history for history, bit for bit in the
// finalized rates — to a local store answering the same requests, at
// shard counts {1, 4, 16}; hostile fetch payloads decode to errors; a
// dead shard server turns every history operation into a loud failure.

import (
	"context"
	"errors"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/stats"
	"pastas/internal/store"
)

// sameHistory compares patient record and entry content.
func sameHistory(t *testing.T, got, want *model.History) {
	t.Helper()
	if got.Patient != want.Patient {
		t.Fatalf("patient %+v, want %+v", got.Patient, want.Patient)
	}
	a, b := got.SortedEntries(), want.SortedEntries()
	if len(a) != len(b) {
		t.Fatalf("patient %s: %d entries, want %d", want.Patient.ID, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("patient %s entry %d: %+v, want %+v", want.Patient.ID, i, a[i], b[i])
		}
	}
}

// TestRemoteHistoryParity: Histories, HistoryByID and Indicators answer
// over loopback shard servers exactly as a local store does, across
// shard counts {1, 4, 16}. Runs under -race in CI.
func TestRemoteHistoryParity(t *testing.T) {
	col, st, _ := parityEngines(t)
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	local := New(st, Options{Workers: 4, CacheSize: 32})

	cohortExpr := query.Has{Pred: query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}}

	for _, shards := range []int{1, 4, 16} {
		fix := startShardServers(t, col, shards, 2, RemoteOptions{Timeout: 30 * time.Second})

		bits, err := fix.eng.Execute(cohortExpr)
		if err != nil {
			t.Fatal(err)
		}
		wantBits, err := local.Execute(cohortExpr)
		if err != nil {
			t.Fatal(err)
		}
		if !bits.Equal(wantBits) {
			t.Fatalf("shards=%d: cohort diverged before the history test began", shards)
		}

		// Cohort fetch: every selected history ships intact, in ordinal
		// order.
		gotHs, err := fix.eng.Histories(bits)
		if err != nil {
			t.Fatalf("shards=%d: remote Histories: %v", shards, err)
		}
		wantHs, err := local.Histories(wantBits)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotHs) != len(wantHs) {
			t.Fatalf("shards=%d: fetched %d histories, want %d", shards, len(gotHs), len(wantHs))
		}
		for i := range wantHs {
			sameHistory(t, gotHs[i], wantHs[i])
		}

		// Point lookup: first, last, and a middle patient resolve across
		// the wire; a patient that does not exist is ErrNoPatient.
		for _, ord := range []int{0, col.Len() / 2, col.Len() - 1} {
			want := col.At(ord)
			got, err := fix.eng.HistoryByID(want.Patient.ID)
			if err != nil {
				t.Fatalf("shards=%d: HistoryByID(%s): %v", shards, want.Patient.ID, err)
			}
			sameHistory(t, got, want)
		}
		if _, err := fix.eng.HistoryByID(model.PatientID(1 << 40)); !errors.Is(err, ErrNoPatient) {
			t.Fatalf("shards=%d: missing patient gave %v, want ErrNoPatient", shards, err)
		}

		// Server-side aggregation: the merged partials finalize to
		// bit-identical rates, for the cohort and for everyone.
		for _, b := range []*store.Bitset{bits, store.NewBitset(col.Len()).Not(), store.NewBitset(col.Len())} {
			gotInd, err := fix.eng.Indicators(b, window)
			if err != nil {
				t.Fatalf("shards=%d: remote Indicators: %v", shards, err)
			}
			wantInd, err := local.Indicators(b, window)
			if err != nil {
				t.Fatal(err)
			}
			if gotInd != wantInd {
				t.Fatalf("shards=%d: indicators diverge:\nremote %+v\nlocal  %+v", shards, gotInd, wantInd)
			}
			// And both equal the sequential single-pass reference.
			ref := stats.ComputeIndicators(st.Subset(b), window)
			if gotInd != ref {
				t.Fatalf("shards=%d: indicators diverge from sequential reference:\nremote %+v\nref    %+v", shards, gotInd, ref)
			}
		}
	}
}

// TestFetchOrdinalValidation: both transports hold the FetchHistories
// argument contract — out-of-range and non-increasing ordinals are
// rejected before any work.
func TestFetchOrdinalValidation(t *testing.T) {
	col, st, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 10 * time.Second})
	for _, b := range append([]ShardBackend{}, fix.eng.topoNow().backends...) {
		m := b.Meta()
		if _, err := b.FetchHistories(context.Background(), []int{m.Patients}); err == nil {
			t.Errorf("shard %d: out-of-range ordinal accepted", m.Shard)
		}
		if _, err := b.FetchHistories(context.Background(), []int{1, 1}); err == nil {
			t.Errorf("shard %d: duplicate ordinal accepted", m.Shard)
		}
		if _, err := b.FetchHistories(context.Background(), []int{2, 1}); err == nil {
			t.Errorf("shard %d: decreasing ordinals accepted", m.Shard)
		}
		if _, err := b.FetchHistories(context.Background(), nil); err != nil {
			t.Errorf("shard %d: empty fetch refused: %v", m.Shard, err)
		}
	}
	lb := NewLocalBackend(st.Pin().Sub(0, st.Len()), 0)
	if _, err := lb.FetchHistories(context.Background(), []int{st.Len()}); err == nil {
		t.Error("local backend: out-of-range ordinal accepted")
	}
}

// TestRemoteHistoryFailureInjection: with one shard server dead, cohort
// fetches, point lookups and indicator aggregation all fail loudly —
// never a partial answer, and never a false "no such patient".
func TestRemoteHistoryFailureInjection(t *testing.T) {
	col, _, _ := parityEngines(t)
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 2 * time.Second, Retries: 1})

	all := store.NewBitset(col.Len()).Not()
	if _, err := fix.eng.Histories(all); err != nil {
		t.Fatalf("healthy cluster refused a fetch: %v", err)
	}

	fix.listeners[1].kill()

	if _, err := fix.eng.Histories(all); err == nil {
		t.Error("cohort fetch over a dead shard server succeeded")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Errorf("fetch error does not name the shard: %v", err)
	}
	// The patient exists — on a dead shard. And even for patients on the
	// live server, a failed probe elsewhere must surface, not vanish.
	if _, err := fix.eng.HistoryByID(col.At(col.Len() - 1).Patient.ID); err == nil {
		t.Error("lookup on a dead shard server succeeded")
	} else if errors.Is(err, ErrNoPatient) {
		t.Errorf("dead shard server reported as missing patient: %v", err)
	}
	if _, err := fix.eng.HistoryByID(col.At(0).Patient.ID); err == nil {
		t.Error("lookup with a dead probe target succeeded")
	} else if errors.Is(err, ErrNoPatient) {
		t.Errorf("dead probe reported as missing patient: %v", err)
	}
	if _, err := fix.eng.Indicators(all, window); err == nil {
		t.Error("indicator aggregation over a dead shard server succeeded")
	}
}

// TestShardServerGracefulShutdown: Shutdown closes the listener, refuses
// new calls, and Serve reports the clean close.
func TestShardServerGracefulShutdown(t *testing.T) {
	col, _, _ := parityEngines(t)
	path := filepath.Join(t.TempDir(), "shutdown.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Save(f, store.New(col), 2, nil); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	srv, err := NewShardServer(path, nil, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(lis) }()

	bs, _, err := DialShards(lis.Addr().String(), RemoteOptions{Timeout: 5 * time.Second, Retries: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs[0].Stats(context.Background()); err != nil {
		t.Fatalf("pre-shutdown call failed: %v", err)
	}
	if err := srv.Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	select {
	case err := <-served:
		if !errors.Is(err, ErrServerClosed) {
			t.Fatalf("Serve returned %v, want ErrServerClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve did not return after Shutdown")
	}
	// Calls on the surviving connection are refused, not hung.
	if _, err := bs[0].Stats(context.Background()); err == nil {
		t.Error("post-shutdown call succeeded")
	}
}
