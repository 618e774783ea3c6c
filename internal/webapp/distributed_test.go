package webapp

// The webapp over a connected (storeless) workbench: cohort queries,
// stats, and — since the fetch/render RPCs — the whole history-level
// endpoint family work across shard servers, byte-identical to a
// single-process deployment; a dead shard server is a loud 5xx, never a
// partial timeline.

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/query"
	"pastas/internal/synth"
)

// killableListener records accepted connections so a test can take a
// shard server down the way a crashed process would: listener and every
// live connection torn down at once.
type killableListener struct {
	net.Listener
	mu    sync.Mutex
	conns []net.Conn
}

func (l *killableListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

func (l *killableListener) kill() {
	l.Listener.Close()
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		c.Close()
	}
}

func distributedServer(t *testing.T, patients int) (*Server, *core.Workbench, *core.Workbench, []*killableListener) {
	t.Helper()
	local, err := core.Synthesize(synth.DefaultConfig(patients))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wb.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Save(f, core.SnapshotOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Two servers of two shards each, so one can die while the other
	// keeps answering.
	var addrs []string
	var listeners []*killableListener
	for _, ids := range [][]int{{0, 1}, {2, 3}} {
		srv, err := engine.NewShardServer(path, ids, engine.Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		kl := &killableListener{Listener: lis}
		listeners = append(listeners, kl)
		t.Cleanup(kl.kill)
		go srv.Serve(kl)
		addrs = append(addrs, lis.Addr().String())
	}
	remote, err := core.Connect(addrs,
		engine.RemoteOptions{Timeout: 30 * time.Second}, engine.Options{Workers: 2}, local.Window)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { remote.Close() })
	return NewServer(remote, Config{}), local, remote, listeners
}

func TestDistributedStatsAndCohort(t *testing.T) {
	s, local, remote, _ := distributedServer(t, 120)

	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var health map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &health); err != nil {
		t.Fatal(err)
	}
	if int(health["patients"].(float64)) != local.Patients() {
		t.Errorf("healthz patients = %v, want %d", health["patients"], local.Patients())
	}

	// Warm one query so the per-backend block has traffic to report.
	if _, err := remote.Query(query.Has{Pred: query.MustCode("", "T90")}); err != nil {
		t.Fatal(err)
	}
	rec = get(t, s, "/api/stats")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body)
	}
	var stats struct {
		Patients int `json:"patients"`
		Shards   []struct {
			Backend    string  `json:"backend"`
			Queries    uint64  `json:"queries"`
			TotalMS    float64 `json:"total_ms"`
			Group      int     `json:"group"`
			RoundTrips uint64  `json:"round_trips"`
		} `json:"shards"`
		Backends map[string]int `json:"backends"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Patients != local.Patients() {
		t.Errorf("stats patients = %d, want %d", stats.Patients, local.Patients())
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("stats shards = %d, want 4", len(stats.Shards))
	}
	for _, sh := range stats.Shards {
		if !strings.HasPrefix(sh.Backend, "remote(") {
			t.Errorf("shard backend = %q, want remote(...)", sh.Backend)
		}
		if sh.Queries == 0 || sh.TotalMS <= 0 {
			t.Errorf("shard reported no traffic: %+v", sh)
		}
	}
	if len(stats.Backends) == 0 {
		t.Error("per-backend block missing")
	}
	// The batching is visible: two shards per server share a group, and
	// the one query above cost each group one round trip, not two.
	for i, sh := range stats.Shards {
		if sh.Group != i/2 || sh.RoundTrips != 1 || sh.Queries != 1 {
			t.Errorf("shard %d: group %d, %d evaluations in %d round trips; want group %d, 1 in 1",
				i, sh.Group, sh.Queries, sh.RoundTrips, i/2)
		}
	}

	// Cohort queries answer across the wire, identical to local.
	spec := `{"op":"has","pattern":"T90|E11(\\..*)?"}`
	req := httptest.NewRequest(http.MethodPost, "/api/cohorts/query", strings.NewReader(spec))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cohort = %d: %s", rec.Code, rec.Body)
	}
	var cohortResp struct {
		Count  int      `json:"count"`
		Sample []uint64 `json:"sample"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cohortResp); err != nil {
		t.Fatal(err)
	}
	localSrv := NewServer(local, Config{})
	rec = httptest.NewRecorder()
	localSrv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/cohorts/query", strings.NewReader(spec)))
	var localResp struct {
		Count  int      `json:"count"`
		Sample []uint64 `json:"sample"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &localResp); err != nil {
		t.Fatal(err)
	}
	if cohortResp.Count != localResp.Count || len(cohortResp.Sample) != len(localResp.Sample) {
		t.Fatalf("remote cohort %d (%d sampled), local %d (%d sampled)",
			cohortResp.Count, len(cohortResp.Sample), localResp.Count, len(localResp.Sample))
	}
	for i := range cohortResp.Sample {
		if cohortResp.Sample[i] != localResp.Sample[i] {
			t.Fatalf("sample %d: remote %d, local %d", i, cohortResp.Sample[i], localResp.Sample[i])
		}
	}

}

// TestDistributedHistoryEndpoints: every previously-503 route answers a
// connected workbench with 200 and a body byte-identical to the same
// request against a single-process server over the same data — the
// fetch/render RPCs make the two deployments indistinguishable from the
// outside.
func TestDistributedHistoryEndpoints(t *testing.T) {
	s, local, _, _ := distributedServer(t, 120)
	localSrv := NewServer(local, Config{})

	id := local.Store.Collection().IDs()[0]
	paths := []string{
		"/api/patients",
		"/api/patients?limit=7",
		fmt.Sprintf("/api/timeline?patient=%d", uint64(id)),
		fmt.Sprintf("/api/details?patient=%d&t=2011-01-01", uint64(id)),
		fmt.Sprintf("/timeline?patient=%d", uint64(id)),
		"/",
		"/cohort-view?pattern=T90",
		"/cohort-view?rows=5&pattern=.*",    // more patients than rows: five histories and a span tally cross
		"/cohort-view?rows=500&pattern=T90", // fewer than rows
		"/cohort-view?pattern=ZZZ99",        // nobody
	}
	for _, path := range paths {
		remoteRec := get(t, s, path)
		localRec := get(t, localSrv, path)
		if remoteRec.Code != http.StatusOK {
			t.Errorf("%s over shards = %d: %s", path, remoteRec.Code, remoteRec.Body)
			continue
		}
		if localRec.Code != http.StatusOK {
			t.Fatalf("%s locally = %d", path, localRec.Code)
		}
		if remoteRec.Body.String() != localRec.Body.String() {
			t.Errorf("%s: remote body diverges from local\nremote: %.200s\nlocal:  %.200s",
				path, remoteRec.Body, localRec.Body)
		}
	}

	// Indicators aggregate server-side; the JSON must still be
	// byte-identical (the tallies are integral, so merge order cannot
	// perturb a single bit of the finalized rates).
	spec := `{"op":"has","pattern":"T90|E11(\\..*)?"}`
	for _, body := range []string{"", spec} {
		remoteRec := httptest.NewRecorder()
		s.ServeHTTP(remoteRec, httptest.NewRequest(http.MethodPost, "/api/indicators", strings.NewReader(body)))
		localRec := httptest.NewRecorder()
		localSrv.ServeHTTP(localRec, httptest.NewRequest(http.MethodPost, "/api/indicators", strings.NewReader(body)))
		if remoteRec.Code != http.StatusOK || localRec.Code != http.StatusOK {
			t.Fatalf("indicators = %d remote / %d local: %s", remoteRec.Code, localRec.Code, remoteRec.Body)
		}
		if remoteRec.Body.String() != localRec.Body.String() {
			t.Errorf("indicators body diverges\nremote: %.300s\nlocal:  %.300s", remoteRec.Body, localRec.Body)
		}
	}

	// Unknown patients are a 404 from both deployments.
	if rec := get(t, s, "/api/timeline?patient=99999999"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown patient over shards = %d, want 404", rec.Code)
	}
}

// TestDistributedHistoryFailureInjection: with one of the two shard
// servers dead, history endpoints fail loudly — never a partial timeline,
// a half-cohort render, or a false 404.
func TestDistributedHistoryFailureInjection(t *testing.T) {
	s, local, remote, listeners := distributedServer(t, 120)

	// A patient owned by the second server (shards 2,3 cover the upper
	// half of the ordinal space).
	n := local.Patients()
	upperID := local.Store.Collection().IDs()[n-1]

	listeners[1].kill()
	remote.Engine.ResetCache()

	for _, path := range []string{
		fmt.Sprintf("/api/timeline?patient=%d", uint64(upperID)),
		"/cohort-view?pattern=T90",
	} {
		rec := get(t, s, path)
		if rec.Code < 500 {
			t.Errorf("%s with a dead shard server = %d, want 5xx: %.200s", path, rec.Code, rec.Body)
		}
		if rec.Code == http.StatusNotFound {
			t.Errorf("%s: dead shard server reported as missing patient", path)
		}
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/indicators", strings.NewReader("")))
	if rec.Code < 500 {
		t.Errorf("indicators with a dead shard server = %d, want 5xx: %.200s", rec.Code, rec.Body)
	}
}

// TestDistributedOutageNamesShards: under the strict policy, over plain
// (un-replicated) remote backends, every cohort fan-out attributes its
// failure — the 502 envelope of the indicators, profile, compare and
// analytics routes alike names exactly the dead server's shards.
func TestDistributedOutageNamesShards(t *testing.T) {
	s, _, _, listeners := distributedServer(t, 120)
	for _, name := range []string{"a", "b"} {
		rec := postJSON(t, s, "/api/cohorts", `{"name":"`+name+`","spec":{"op":"has","type":"diagnosis"}}`)
		if rec.Code != http.StatusOK {
			t.Fatalf("save cohort %s = %d: %s", name, rec.Code, rec.Body)
		}
	}
	listeners[1].kill() // shards 2 and 3

	for name, rec := range map[string]*httptest.ResponseRecorder{
		"POST /api/indicators":       postJSON(t, s, "/api/indicators", ""),
		"GET /api/cohorts/{name}":    get(t, s, "/api/cohorts/a"),
		"GET /api/cohorts/compare":   get(t, s, "/api/cohorts/compare?a=a&b=b"),
		"POST /api/analytics/{kind}": postJSON(t, s, "/api/analytics/episodes", `{"cohort":"a"}`),
	} {
		if rec.Code != http.StatusBadGateway {
			t.Errorf("%s with a dead shard server = %d, want 502: %.200s", name, rec.Code, rec.Body)
			continue
		}
		var e struct {
			Error apiErrorBody `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: not the error envelope: %s", name, rec.Body)
			continue
		}
		if e.Error.Code != "unavailable" || !slices.Equal(e.Error.ShardsMissing, []int{2, 3}) {
			t.Errorf("%s: envelope %+v, want unavailable with shards_missing [2 3]", name, e.Error)
		}
	}
}
