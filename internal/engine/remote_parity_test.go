package engine

// The distributed semantics contract: for every parity query, a
// coordinator over remote shard servers (loopback TCP), a coordinator
// over in-process local backends, and the legacy reference interpreter
// return bit-identical cohorts — across shard counts {1, 4, 16} — and a
// dead shard server yields a clear error, never a partial cohort.

import (
	"context"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// trackingListener records accepted connections so a test can kill a
// shard server the way a crashed process would — listener and every live
// connection torn down at once — or fail it and recover it: the member
// fault seam the replicated-group tests flip.
type trackingListener struct {
	net.Listener
	mu     sync.Mutex
	conns  []net.Conn
	failed bool
}

// Accept records the connection — or, while the listener is failed,
// closes it at once and waits for the next.
func (l *trackingListener) Accept() (net.Conn, error) {
	for {
		c, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		l.mu.Lock()
		failed := l.failed
		if !failed {
			l.conns = append(l.conns, c)
		}
		l.mu.Unlock()
		if !failed {
			return c, nil
		}
		c.Close()
	}
}

// setFailed(true) severs every open connection and refuses new ones
// until setFailed(false): to a client the server is down, though it
// still listens.
func (l *trackingListener) setFailed(failed bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.failed = failed
	if failed {
		for _, c := range l.conns {
			c.Close()
		}
		l.conns = nil
	}
}

func (l *trackingListener) kill() {
	l.Listener.Close()
	l.setFailed(true)
}

// remoteFixture is a coordinator over shard servers for the parity
// population, plus the handles to sabotage them.
type remoteFixture struct {
	eng       *Engine
	listeners []*trackingListener
}

// servedShards is the parity collection saved as a snapshot and served by
// loopback shard servers, one per shard-id set, with the backends dialed
// from each (backends[s] are server s's, all on one connection).
type servedShards struct {
	servers   []*ShardServer
	listeners []*trackingListener
	backends  [][]ShardBackend
}

// saveSnapshot saves col as a snapshot of exactly the given shard count
// and returns its path.
func saveSnapshot(t testing.TB, col *model.Collection, shards int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "parity.snap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := store.Save(f, store.New(col), shards, nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != shards {
		t.Fatalf("snapshot has %d shards, fixture assigned %d", info.Shards, shards)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func serveShards(t testing.TB, col *model.Collection, shards int, assigned [][]int, opts RemoteOptions) *servedShards {
	t.Helper()
	path := saveSnapshot(t, col, shards)
	sv := &servedShards{}
	t.Cleanup(func() {
		for _, bs := range sv.backends {
			bs[0].Close()
		}
		for _, l := range sv.listeners {
			l.kill()
		}
	})
	for _, ids := range assigned {
		srv, err := NewShardServer(path, ids, Options{Shards: 2, Workers: 2, CacheSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		tl := &trackingListener{Listener: lis}
		sv.servers = append(sv.servers, srv)
		sv.listeners = append(sv.listeners, tl)
		go srv.Serve(tl)
		bs, total, err := DialShards(lis.Addr().String(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if total != col.Len() {
			t.Fatalf("server reports %d total patients, snapshot has %d", total, col.Len())
		}
		sv.backends = append(sv.backends, bs)
	}
	return sv
}

// startShardServers saves the parity collection as a snapshot with the
// given shard count and serves it from `servers` loopback shard servers,
// shards dealt round-robin. Returns a coordinating engine over all of
// them.
func startShardServers(t testing.TB, col *model.Collection, shards, servers int, opts RemoteOptions) *remoteFixture {
	t.Helper()
	servers = min(servers, shards)
	assigned := make([][]int, servers)
	for id := 0; id < shards; id++ {
		assigned[id%servers] = append(assigned[id%servers], id)
	}
	sv := serveShards(t, col, shards, assigned, opts)
	var backends []ShardBackend
	for _, bs := range sv.backends {
		backends = append(backends, bs...)
	}
	eng, err := NewFromBackends(backends, Options{Workers: 4, CacheSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	return &remoteFixture{eng: eng, listeners: sv.listeners}
}

// TestRemoteParity is the acceptance property: local fan-out, remote
// shard servers and query.EvalIndexed are bit-identical at shard counts
// {1, 4, 16}. Runs under -race in CI.
func TestRemoteParity(t *testing.T) {
	col, st, _ := parityEngines(t)
	for _, shards := range []int{1, 4, 16} {
		servers := 2
		fix := startShardServers(t, col, shards, servers, RemoteOptions{Timeout: 30 * time.Second})
		if got := fix.eng.Patients(); got != col.Len() {
			t.Fatalf("shards=%d: coordinator sees %d patients, want %d", shards, got, col.Len())
		}
		// Distributed engine over in-process local backends: the third
		// implementation of the same contract.
		var locals []ShardBackend
		for i, m := range New(st, Options{Shards: shards, Workers: 2}).BackendInfo() {
			locals = append(locals, NewLocalBackend(st.Slice(m.Offset, m.Offset+m.Patients), i))
		}
		localDist, err := NewFromBackends(locals, Options{Workers: 4, CacheSize: 32})
		if err != nil {
			t.Fatal(err)
		}

		r := rand.New(rand.NewSource(int64(1000 + shards)))
		exprs := []query.Expr{
			query.TrueExpr{},
			query.Not{E: query.TrueExpr{}},
			query.Has{Pred: query.MustCode("", "ZZZ99")},
			query.And{
				query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}},
				query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
			},
			query.Not{E: query.And{
				query.Has{Pred: query.SourceIs(model.SourceGP)},
				query.Not{E: query.Has{Pred: query.MustCode("", `A.*`), MinCount: 2}},
			}},
			query.During{Interval: query.TypeIs(model.TypeStay), Event: query.TypeIs(model.TypeDiagnosis)},
		}
		for i := 0; i < 25; i++ {
			exprs = append(exprs, randExpr(r, 1+r.Intn(3)))
		}
		for _, e := range exprs {
			want, err := query.EvalIndexed(st, e)
			if err != nil {
				t.Fatalf("EvalIndexed(%s): %v", e, err)
			}
			gotRemote, err := fix.eng.Execute(e)
			if err != nil {
				t.Fatalf("shards=%d: remote Execute(%s): %v", shards, e, err)
			}
			if !gotRemote.Equal(want) {
				t.Fatalf("shards=%d: remote diverges for %s: %d vs %d",
					shards, e, gotRemote.Count(), want.Count())
			}
			gotLocal, err := localDist.Execute(e)
			if err != nil {
				t.Fatalf("shards=%d: local-backend Execute(%s): %v", shards, e, err)
			}
			if !gotLocal.Equal(want) {
				t.Fatalf("shards=%d: local backends diverge for %s: %d vs %d",
					shards, e, gotLocal.Count(), want.Count())
			}
		}
		// IDs resolve across the wire in collection order.
		e := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
		wantIDs, err := New(st, Options{Shards: shards}).Select(e)
		if err != nil {
			t.Fatal(err)
		}
		gotIDs, err := fix.eng.Select(e)
		if err != nil {
			t.Fatal(err)
		}
		if len(gotIDs) != len(wantIDs) {
			t.Fatalf("shards=%d: %d remote IDs, want %d", shards, len(gotIDs), len(wantIDs))
		}
		for i := range gotIDs {
			if gotIDs[i] != wantIDs[i] {
				t.Fatalf("shards=%d: ID %d is %v, want %v", shards, i, gotIDs[i], wantIDs[i])
			}
		}
	}
}

// TestRemoteFailureInjection: killing one of the shard servers turns
// every evaluation into a clear error naming the shard — never a
// partial bitset — and the surviving engine still refuses rather than
// degrades.
func TestRemoteFailureInjection(t *testing.T) {
	col, _, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 2 * time.Second, Retries: 1})
	e := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	if _, err := fix.eng.Execute(e); err != nil {
		t.Fatalf("healthy cluster errored: %v", err)
	}

	fix.listeners[1].kill() // crash the second server: listener + conns

	fix.eng.ResetCache() // force re-evaluation, not a cached answer
	_, err := fix.eng.Execute(e)
	if err == nil {
		t.Fatal("execute over a dead shard server succeeded")
	}
	if !strings.Contains(err.Error(), "shard") {
		t.Errorf("error does not name the failed shard: %v", err)
	}
	// A cached full result is still served — the cache holds complete
	// cohorts only, so this can never be partial.
	if got, err := fix.eng.Execute(query.TrueExpr{}); err != nil || got.Count() != col.Len() {
		t.Errorf("constant plan should not need the backends: %v", err)
	}
}

// TestRemoteRejectsOpaqueQueries: a closure-bearing query cannot be
// shipped; the coordinator must error loudly.
func TestRemoteRejectsOpaqueQueries(t *testing.T) {
	col, _, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 10 * time.Second})
	_, err := fix.eng.Execute(query.Has{Pred: opaquePred{
		fn:   func(e *model.Entry) bool { return e.Value > 0 },
		name: "positive",
	}})
	if err == nil {
		t.Fatal("opaque query executed remotely")
	}
	if !strings.Contains(err.Error(), "opaque") {
		t.Errorf("error does not explain the opacity: %v", err)
	}
}

// TestRemoteMaskedEval: the server honors a shipped candidate mask —
// result ≡ the local backend's masked evaluation — and rejects a mask
// sized for the wrong shard before doing any work.
func TestRemoteMaskedEval(t *testing.T) {
	col, st, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 30 * time.Second})
	p, err := Compile(query.And{
		query.Has{Pred: query.TypeIs(model.TypeDiagnosis)},
		query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	p = Optimize(p)
	for _, b := range fix.eng.topoNow().backends {
		m := b.Meta()
		mask := store.NewBitset(m.Patients)
		for i := 0; i < m.Patients; i += 3 {
			mask.Set(i)
		}
		got, err := b.EvalPlan(context.Background(), p, mask)
		if err != nil {
			t.Fatalf("shard %d masked eval: %v", m.Shard, err)
		}
		want, err := NewLocalBackend(st.Slice(m.Offset, m.Offset+m.Patients), m.Shard).EvalPlan(context.Background(), p, mask)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("shard %d: masked remote %d vs local %d", m.Shard, got.Count(), want.Count())
		}
		if _, err := b.EvalPlan(context.Background(), p, store.NewBitset(m.Patients+1)); err == nil {
			t.Errorf("shard %d: wrong-size mask accepted", m.Shard)
		}
	}
}

// TestNewFromBackendsValidatesTiling: gaps or overlaps in the backends'
// ordinal coverage are topology errors, caught at construction.
func TestNewFromBackendsValidatesTiling(t *testing.T) {
	_, st, _ := parityEngines(t)
	n := st.Len()
	ok := []ShardBackend{
		NewLocalBackend(st.Slice(0, n/2), 0),
		NewLocalBackend(st.Slice(n/2, n), 1),
	}
	if _, err := NewFromBackends(ok, Options{}); err != nil {
		t.Fatalf("contiguous backends refused: %v", err)
	}
	gap := []ShardBackend{
		NewLocalBackend(st.Slice(0, n/2-1), 0),
		NewLocalBackend(st.Slice(n/2, n), 1),
	}
	if _, err := NewFromBackends(gap, Options{}); err == nil {
		t.Error("gapped backends accepted")
	}
	overlap := []ShardBackend{
		NewLocalBackend(st.Slice(0, n/2+1), 0),
		NewLocalBackend(st.Slice(n/2, n), 1),
	}
	if _, err := NewFromBackends(overlap, Options{}); err == nil {
		t.Error("overlapping backends accepted")
	}
	if _, err := NewFromBackends(nil, Options{}); err == nil {
		t.Error("empty backend set accepted")
	}
}

// TestRemoteShardStatsRecorded: satellite check — both transports report
// per-shard latency through the same executor-side counters, and the
// backend type is surfaced.
func TestRemoteShardStatsRecorded(t *testing.T) {
	col, st, _ := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 10 * time.Second})
	if _, err := fix.eng.Execute(query.Has{Pred: query.TypeIs(model.TypeContact)}); err != nil {
		t.Fatal(err)
	}
	stats := fix.eng.ShardStats()
	if len(stats) != 4 {
		t.Fatalf("got %d shard stats, want 4", len(stats))
	}
	for _, s := range stats {
		if !strings.HasPrefix(s.Backend, "remote(") {
			t.Errorf("shard %d backend = %q, want remote(...)", s.Shard, s.Backend)
		}
		if s.Queries == 0 {
			t.Errorf("shard %d recorded no queries", s.Shard)
		}
		if s.Nanos == 0 {
			t.Errorf("shard %d recorded no latency", s.Shard)
		}
	}
	// The local path records through the same counters on its scan
	// fan-outs, and reports its transport.
	local := New(st, Options{Shards: 4, Workers: 2, CacheSize: 0})
	if _, err := local.Execute(query.Has{Pred: query.MustCode("", "T90"), MinCount: 2}); err != nil {
		t.Fatal(err)
	}
	anyTimed := false
	for _, s := range local.ShardStats() {
		if s.Backend != "local" {
			t.Errorf("local shard %d backend = %q", s.Shard, s.Backend)
		}
		if s.Queries > 0 && s.Nanos > 0 {
			anyTimed = true
		}
	}
	if !anyTimed {
		t.Error("local scan fan-out recorded no per-shard latency")
	}
	// Explain surfaces the topology.
	ex, err := fix.eng.Explain(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ex.String(), "remote(") {
		t.Errorf("explain does not surface backend type:\n%s", ex)
	}
}
