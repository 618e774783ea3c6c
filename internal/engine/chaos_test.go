package engine

// Chaos parity: the failure-semantics acceptance suite. A replicated
// server group with one member flapping stays bit-identical
// to the reference interpreter at shard counts {1, 4, 16}; PolicyStrict
// never returns a partial cohort no matter what dies; PolicyDegraded's
// Incomplete mask names exactly the dead shards, and degraded answers
// never poison the plan cache. Plus the drain contract: a shard server
// in Shutdown refuses with ErrDraining and the coordinator fails over
// to its replica instead of erroring.

import (
	"context"
	"errors"
	"math/rand"
	"net"
	"net/rpc"
	"reflect"
	"strings"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// startChaosCluster serves the parity collection at the given shard
// count from `replicas` servers of every shard, dialed as one replicated
// group probing every 20 ms, and returns a coordinator over it.
func startChaosCluster(t testing.TB, col *model.Collection, shards, replicas int, opts Options) (*Engine, *replicaSet) {
	t.Helper()
	rs := serveReplicas(t, col, shards, replicas, func(c *remoteConn) {
		c.probeInterval, c.backoffMax = 20*time.Millisecond, 10*time.Millisecond
	})
	eng, err := NewFromBackends(rs.backends, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, rs
}

// flap fails and recovers a server's gate on an up/down schedule until the
// returned stop is called, which leaves it recovered.
func flap(gate *trackingListener, up, down time.Duration) (stop func()) {
	done, stopped := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(stopped)
		for failed := false; ; failed = !failed {
			gate.setFailed(failed)
			wait := up
			if failed {
				wait = down
			}
			select {
			case <-done:
				gate.setFailed(false)
				return
			case <-time.After(wait):
			}
		}
	}()
	return func() { close(done); <-stopped }
}

// TestChaosParityUnderFlap: with one member of a replicated group flapping
// up and down continuously, a strict coordinator still answers every
// parity query bit-identically to the reference interpreter — failover
// absorbs the outages completely, across shard counts {1, 4, 16}.
func TestChaosParityUnderFlap(t *testing.T) {
	col, st, _ := parityEngines(t)
	for _, shards := range []int{1, 4, 16} {
		// CacheSize 0: every Execute must re-fan out and face the chaos.
		eng, rs := startChaosCluster(t, col, shards, 2, Options{Workers: 4, CacheSize: 0})
		stop := flap(rs.gates[0], 7*time.Millisecond, 7*time.Millisecond)
		r := rand.New(rand.NewSource(int64(7000 + shards)))
		exprs := []query.Expr{
			query.TrueExpr{},
			query.And{
				query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}},
				query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
			},
		}
		for i := 0; i < 12; i++ {
			exprs = append(exprs, randExpr(r, 1+r.Intn(3)))
		}
		for _, e := range exprs {
			want, err := query.EvalIndexed(st, e)
			if err != nil {
				t.Fatalf("EvalIndexed(%s): %v", e, err)
			}
			got, err := eng.Execute(e)
			if err != nil {
				t.Fatalf("shards=%d: Execute(%s) under flap: %v", shards, e, err)
			}
			if !got.Equal(want) {
				t.Fatalf("shards=%d: flapping cluster diverges for %s: %d vs %d",
					shards, e, got.Count(), want.Count())
			}
		}
		// The flapping member must actually absorb traffic and fail —
		// otherwise this test proved nothing. A fast expr loop can land
		// entirely inside "up" windows, so keep driving queries (still
		// asserting parity) until a failure is observed; the 20ms health
		// probes land in down windows too.
		injected := func() uint64 { _, h := rs.conn.health(); return h[0].Failures }
		want, err := query.EvalIndexed(st, exprs[1])
		if err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(5 * time.Second); injected() == 0 && time.Now().Before(deadline); {
			got, err := eng.Execute(exprs[1])
			if err != nil {
				t.Fatalf("shards=%d: Execute under flap: %v", shards, err)
			}
			if !got.Equal(want) {
				t.Fatalf("shards=%d: flapping cluster diverges: %d vs %d", shards, got.Count(), want.Count())
			}
			time.Sleep(time.Millisecond)
		}
		stop()
		if injected() == 0 {
			t.Errorf("shards=%d: the flapping member never failed a call", shards)
		}
	}
}

// degradedFixture: a local 4-shard topology with one FaultBackend per
// shard (no replicas — degradation, not failover, is under test).
func degradedFixture(t *testing.T, policy Policy, cacheSize int) (*Engine, []*FaultBackend, *store.Store) {
	t.Helper()
	_, st, _ := parityEngines(t)
	backends := LocalShards(st.Pin(), 4)
	faults := make([]*FaultBackend, len(backends))
	for i, local := range backends {
		faults[i] = NewFaultBackend(local)
		backends[i] = faults[i]
	}
	eng, err := NewFromBackends(backends, Options{Workers: 4, CacheSize: cacheSize, Policy: policy})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, faults, st
}

// TestDegradedIncompleteExactness: under PolicyDegraded with shards 1
// and 3 dead, the answer equals the reference cohort minus exactly those
// shards' ordinal ranges, MissingShards and the Incomplete mask name
// exactly {1, 3}, and MissingPatients is their summed population.
func TestDegradedIncompleteExactness(t *testing.T) {
	eng, faults, st := degradedFixture(t, PolicyDegraded, 32)
	e := query.Expr(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	want, err := query.EvalIndexed(st, e)
	if err != nil {
		t.Fatal(err)
	}

	faults[1].Fail()
	faults[3].Fail()
	got, status, err := eng.ExecuteStatus(context.Background(), e)
	if err != nil {
		t.Fatalf("degraded execute errored instead of degrading: %v", err)
	}
	if !reflect.DeepEqual(status.MissingShards, []int{1, 3}) {
		t.Fatalf("MissingShards = %v, want [1 3]", status.MissingShards)
	}
	metas := eng.BackendInfo()
	if wantMissing := metas[1].Patients + metas[3].Patients; status.MissingPatients != wantMissing {
		t.Errorf("MissingPatients = %d, want %d", status.MissingPatients, wantMissing)
	}
	if ones := status.IncompleteMask(len(metas)).Ones(); !reflect.DeepEqual(ones, []int{1, 3}) {
		t.Errorf("IncompleteMask ones = %v, want [1 3]", ones)
	}
	if !strings.Contains(status.String(), "shards 1,3") {
		t.Errorf("status string does not name the shards: %s", status)
	}
	// Exactness: the partial answer is the full answer minus precisely
	// the dead shards' ordinal ranges — nothing more missing, nothing
	// extra present.
	expected := want.Clone()
	for _, i := range []int{1, 3} {
		dead := store.NewBitset(st.Len())
		for o := metas[i].Offset; o < metas[i].Offset+metas[i].Patients; o++ {
			dead.Set(o)
		}
		expected.AndNot(dead)
	}
	if !got.Equal(expected) {
		t.Fatalf("degraded cohort is not exactly the live shards' answer: %d vs %d",
			got.Count(), expected.Count())
	}

	// Poisoning check: the incomplete answer must not have entered the
	// plan cache — after recovery the same query is complete again
	// WITHOUT any cache reset.
	faults[1].Recover()
	faults[3].Recover()
	got2, status2, err := eng.ExecuteStatus(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if !status2.Complete() {
		t.Fatalf("post-recovery status still incomplete: %s", status2)
	}
	if !got2.Equal(want) {
		t.Fatal("post-recovery answer still partial: the degraded result was cached")
	}
}

// TestStrictNeverPartial: the same dead-shard topology under
// PolicyStrict turns into a loud error naming the shard — a partial
// bitset is never returned, with or without the status API.
func TestStrictNeverPartial(t *testing.T) {
	eng, faults, _ := degradedFixture(t, PolicyStrict, 0)
	e := query.Expr(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	faults[2].Fail()
	if _, err := eng.Execute(e); err == nil {
		t.Fatal("strict execute over a dead shard succeeded")
	} else if !strings.Contains(err.Error(), "shard") {
		t.Errorf("error does not name the shard: %v", err)
	}
	bits, status, err := eng.ExecuteStatus(context.Background(), e)
	if err == nil {
		t.Fatalf("strict ExecuteStatus returned (complete=%v) instead of an error", status.Complete())
	}
	if bits != nil {
		t.Error("strict failure leaked a bitset alongside the error")
	}
}

// TestDegradedIndicators: the aggregation path degrades the same way —
// indicators over the live shards, the dead one named in the status.
func TestDegradedIndicators(t *testing.T) {
	eng, faults, st := degradedFixture(t, PolicyDegraded, 0)
	cohort := store.NewBitset(st.Len()).Not()
	window := model.Period{Start: model.Date(2008, 1, 1), End: model.Date(2014, 1, 1)}
	full, status, err := eng.IndicatorsStatus(context.Background(), cohort, window)
	if err != nil || !status.Complete() {
		t.Fatalf("healthy indicators: err=%v status=%s", err, status)
	}
	eng.ResetCache() // the memo would answer the outage with the complete tally
	faults[0].Fail()
	partial, status, err := eng.IndicatorsStatus(context.Background(), cohort, window)
	if err != nil {
		t.Fatalf("degraded indicators errored: %v", err)
	}
	if !reflect.DeepEqual(status.MissingShards, []int{0}) {
		t.Fatalf("MissingShards = %v, want [0]", status.MissingShards)
	}
	if partial.Patients >= full.Patients {
		t.Errorf("partial indicators cover %d patients, full covers %d", partial.Patients, full.Patients)
	}
}

// TestDrainFailover: Shutdown on one server of a replicated pair makes
// it refuse with the distinct drain error, and the coordinator fails
// over to the surviving replica — a rolling restart is invisible.
func TestDrainFailover(t *testing.T) {
	col, st, _ := parityEngines(t)
	eng, rs := startChaosCluster(t, col, 4, 2, Options{Workers: 4, CacheSize: 0})
	e := query.Expr(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	want, err := query.EvalIndexed(st, e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Execute(e); err != nil {
		t.Fatalf("healthy cluster: %v", err)
	}

	// Drain replica 0: every new RPC is refused with the draining marker;
	// in-flight calls get to finish.
	if err := rs.servers[0].Shutdown(5 * time.Second); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	// The draining replica's direct error is the distinct ErrDraining,
	// not a generic transport failure.
	_, _, err = DialShards(rs.gates[0].Addr().String(), RemoteOptions{Timeout: 5 * time.Second})
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("draining server answered %v, want ErrDraining", err)
	}

	// The coordinator fails over, repeatedly, with zero errors.
	for i := 0; i < 4; i++ {
		got, err := eng.Execute(e)
		if err != nil {
			t.Fatalf("execute during drain: %v", err)
		}
		if !got.Equal(want) {
			t.Fatalf("drain failover diverges: %d vs %d", got.Count(), want.Count())
		}
	}
}

// badDescribeRPC is a fake shard server advertising a corrupt shard
// table, for exercising dial-time identity validation end to end.
type badDescribeRPC struct{ reply DescribeReply }

func (r *badDescribeRPC) Describe(_ *DescribeArgs, reply *DescribeReply) error {
	*reply = r.reply
	return nil
}

func serveBadDescribe(t *testing.T, reply DescribeReply) string {
	t.Helper()
	return serveRPCStub(t, &badDescribeRPC{reply: reply}).Addr().String()
}

// serveRPCStub serves a shard-server receiver — a fake, or a wrapped
// ShardRPC — on a loopback listener and returns the listener.
func serveRPCStub(t testing.TB, rcvr any) *trackingListener {
	t.Helper()
	srv := rpc.NewServer()
	if err := srv.RegisterName(rpcServiceName, rcvr); err != nil {
		t.Fatal(err)
	}
	inner, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	lis := &trackingListener{Listener: inner}
	t.Cleanup(lis.kill)
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go srv.ServeConn(conn)
		}
	}()
	return lis
}

// TestDialShardsValidatesIdentity: a server advertising duplicate ids,
// overlapping ranges, out-of-population shards or negative geometry is
// rejected at dial time with an error naming the corruption — not at
// first query.
func TestDialShardsValidatesIdentity(t *testing.T) {
	meta := func(shard, offset, patients int) ShardMeta {
		return ShardMeta{Shard: shard, Offset: offset, Patients: patients, Entries: 1}
	}
	cases := []struct {
		name  string
		reply DescribeReply
		want  string
	}{
		{"duplicate ids", DescribeReply{
			Shards: []ShardMeta{meta(0, 0, 10), meta(0, 10, 10)}, TotalPatients: 20,
		}, "twice"},
		{"overlap", DescribeReply{
			Shards: []ShardMeta{meta(0, 0, 10), meta(1, 5, 10)}, TotalPatients: 20,
		}, "overlapping"},
		{"beyond population", DescribeReply{
			Shards: []ShardMeta{meta(0, 0, 30)}, TotalPatients: 20,
		}, "beyond its own population"},
		{"negative geometry", DescribeReply{
			Shards: []ShardMeta{meta(0, -1, 10)}, TotalPatients: 20,
		}, "negative"},
		{"no shards", DescribeReply{TotalPatients: 20}, "serves no shards"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			addr := serveBadDescribe(t, tc.reply)
			_, _, err := DialShards(addr, RemoteOptions{Timeout: 5 * time.Second})
			if err == nil {
				t.Fatal("corrupt shard table accepted at dial time")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not name the corruption (want %q)", err, tc.want)
			}
			if !strings.Contains(err.Error(), addr) {
				t.Errorf("error %q does not name the server", err)
			}
		})
	}
}
