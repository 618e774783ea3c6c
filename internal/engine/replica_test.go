package engine

// The replicated server group's contract, over real in-process shard
// servers: identical-table validation at assembly, failover on
// unavailability (and only on unavailability), health tracking fed
// passively by calls and actively by the probe loop, and a load balancer
// that keeps serving as long as any member lives.

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
)

// replicaSet is n shard servers that each serve every shard of one
// snapshot, each behind a gate (the member fault seam) and a recorder,
// dialed as one "a|b|…" group.
type replicaSet struct {
	servers  []*ShardServer
	gates    []*trackingListener
	recs     []*listingRPC
	conn     *remoteConn
	backends []ShardBackend
}

// serveReplicas serves col at the given shard count from n replicas. The
// group probes nothing and backs off 1–5 ms unless tune, which sees the
// group before it dials, says otherwise.
func serveReplicas(t testing.TB, col *model.Collection, shards, n int, tune func(c *remoteConn)) *replicaSet {
	t.Helper()
	path := saveSnapshot(t, col, shards)
	rs := &replicaSet{}
	var addrs []string
	for range n {
		srv, err := NewShardServer(path, nil, Options{Workers: 2, CacheSize: 16})
		if err != nil {
			t.Fatal(err)
		}
		rec := &listingRPC{ShardRPC: &ShardRPC{s: srv}, listed: map[string][][]int{}}
		gate := serveRPCStub(t, rec)
		rs.servers, rs.gates, rs.recs = append(rs.servers, srv), append(rs.gates, gate), append(rs.recs, rec)
		addrs = append(addrs, gate.Addr().String())
	}
	c, err := newRemoteConn(strings.Join(addrs, "|"), RemoteOptions{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	c.probeInterval, c.backoffBase, c.backoffMax = 0, time.Millisecond, 5*time.Millisecond
	if tune != nil {
		tune(c)
	}
	if rs.backends, _, err = c.connect(); err != nil {
		t.Fatal(err)
	}
	rs.conn = c
	t.Cleanup(func() { c.close() })
	return rs
}

func parityPlan(t *testing.T) Plan {
	t.Helper()
	p, err := Compile(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	if err != nil {
		t.Fatal(err)
	}
	return Optimize(p)
}

// TestReplicaMetaMismatch: members advertising different shard tables
// are rejected at assembly, with an error naming both sides; so are an
// empty member and a group none of whose members answers. A member down
// at assembly joins deferred, and a server that comes back on its address
// with another table is refused on its first dial.
func TestReplicaMetaMismatch(t *testing.T) {
	col, _, _ := parityEngines(t)
	ropts := RemoteOptions{Timeout: 5 * time.Second}
	four := serveShards(t, col, 4, [][]int{seq(0, 4), seq(0, 2)}, ropts)
	eight := serveShards(t, col, 8, [][]int{seq(0, 4)}, ropts)
	full, half, other := four.listeners[0].Addr().String(), four.listeners[1].Addr().String(), eight.listeners[0].Addr().String()
	for name, pair := range map[string][2]string{"fewer shards": {full, half}, "another layout": {full, other}} {
		_, _, err := DialShards(pair[0]+"|"+pair[1], ropts)
		if err == nil || !strings.Contains(err.Error(), "mismatch") ||
			!strings.Contains(err.Error(), pair[0]) || !strings.Contains(err.Error(), pair[1]) {
			t.Errorf("%s: group dialed with %v, want an identity mismatch naming both members", name, err)
		}
	}
	if _, _, err := DialShards(full+"||"+full, ropts); err == nil {
		t.Error("group with an empty member accepted")
	}

	eight.listeners[0].setFailed(true)
	if _, _, err := DialShards(other+"|"+other, ropts); err == nil {
		t.Error("group with no member reachable accepted")
	}
	c, err := newRemoteConn(full+"|"+other, ropts)
	if err != nil {
		t.Fatal(err)
	}
	c.probeInterval = 0
	if _, _, err := c.connect(); err != nil {
		t.Fatalf("group with one member down refused: %v", err)
	}
	defer c.close()
	eight.listeners[0].setFailed(false)
	_, err = attempt[DescribeReply](context.Background(), c, c.members[1], "Describe", &DescribeArgs{})
	if !IsUnavailable(err) || !strings.Contains(err.Error(), "identity mismatch") {
		t.Errorf("deferred member back with another table answered %v, want an unavailable identity mismatch", err)
	}
}

// TestReplicaFailover: with one member failing, every operation answers
// from the survivor — same bits — and the failure lands in the health
// snapshot.
func TestReplicaFailover(t *testing.T) {
	col, st, _ := parityEngines(t)
	rs := serveReplicas(t, col, 1, 2, nil)
	b, p := rs.backends[0], parityPlan(t)
	want, err := NewLocalBackend(st.Pin().Sub(0, st.Len()), 0).EvalPlan(context.Background(), p, nil)
	if err != nil {
		t.Fatal(err)
	}

	rs.gates[0].setFailed(true)
	// A few rounds: selection is randomized, but an untried member's EWMA
	// of 0 sorts fastest, so the failed member is guaranteed a try (and a
	// markdown) within the first two calls.
	for i := 0; i < 4; i++ {
		got, err := b.EvalPlan(context.Background(), p, nil)
		if err != nil {
			t.Fatalf("failover eval: %v", err)
		}
		if !got.Equal(want) {
			t.Fatalf("failover answer diverges: %d vs %d", got.Count(), want.Count())
		}
	}
	if b.Meta().Shard != 0 || !strings.HasPrefix(b.Meta().Backend, "replicas(") {
		t.Errorf("replica meta = %+v", b.Meta())
	}

	// The failed member is out of rotation and its failure is counted.
	up, health := rs.conn.health()
	if len(health) != 2 {
		t.Fatalf("got %d health entries, want 2", len(health))
	}
	if health[0].Healthy || health[0].Failures == 0 {
		t.Errorf("failed member state = %+v", health[0])
	}
	if !health[1].Healthy || health[1].Calls == 0 {
		t.Errorf("survivor state = %+v", health[1])
	}
	if !up {
		t.Error("group with a live member reported unhealthy")
	}

	// Every other operation fails over the same way.
	if _, err := b.Stats(context.Background()); err != nil {
		t.Errorf("Stats failover: %v", err)
	}
	if _, err := b.IDsOf(context.Background(), want); err != nil {
		t.Errorf("IDsOf failover: %v", err)
	}
	if _, err := b.FetchHistories(context.Background(), []int{0}); err != nil {
		t.Errorf("FetchHistories failover: %v", err)
	}
}

// TestReplicaAllDown: with every member failing, the call errors with an
// unavailability the degradation layer recognizes, naming the attempt
// count — and succeeds again once they recover, without any probe loop.
func TestReplicaAllDown(t *testing.T) {
	col, _, _ := parityEngines(t)
	rs := serveReplicas(t, col, 1, 2, nil)
	for _, g := range rs.gates {
		g.setFailed(true)
	}
	_, err := rs.backends[0].EvalPlan(context.Background(), parityPlan(t), nil)
	if err == nil {
		t.Fatal("eval over an all-down group succeeded")
	}
	if !IsUnavailable(err) {
		t.Errorf("all-down error is not classified unavailable: %v", err)
	}
	if !strings.Contains(err.Error(), "all 2 replicas failed") {
		t.Errorf("error does not report the exhausted group: %v", err)
	}
	if up, _ := rs.conn.health(); up {
		t.Error("all-down group reported healthy")
	}

	// Recovery: with no member healthy, the untried ones are tried anyway.
	for _, g := range rs.gates {
		g.setFailed(false)
	}
	if _, err := rs.backends[0].EvalPlan(context.Background(), parityPlan(t), nil); err != nil {
		t.Fatalf("post-recovery eval: %v", err)
	}
}

// TestReplicaDeterministicErrorNoFailover: a semantic error — here the
// server's refusal of an ID listing without a mask — returns immediately:
// one RPC, no retries, nobody marked down, because every member would
// answer the same.
func TestReplicaDeterministicErrorNoFailover(t *testing.T) {
	col, _, _ := parityEngines(t)
	rs := serveReplicas(t, col, 1, 2, nil)
	_, err := rs.backends[0].IDsOf(context.Background(), nil)
	if err == nil || IsUnavailable(err) || !strings.Contains(err.Error(), "carries no mask") {
		t.Fatalf("IDsOf without a mask = %v, want the server's semantic refusal", err)
	}
	if sent := rs.recs[0].calls("IDs") + rs.recs[1].calls("IDs"); sent != 1 {
		t.Errorf("the refused call was sent %d times, want 1", sent)
	}
	_, health := rs.conn.health()
	for _, h := range health {
		if !h.Healthy || h.Failures != 0 {
			t.Errorf("semantic error marked %s down: %+v", h.Backend, h)
		}
	}
}

// TestReplicaContextDeadline: an expired caller budget stops the
// failover loop instead of grinding through backoff rounds.
func TestReplicaContextDeadline(t *testing.T) {
	col, _, _ := parityEngines(t)
	// A backoff of up to a minute: only the caller's budget can end it.
	rs := serveReplicas(t, col, 1, 2, func(c *remoteConn) { c.backoffBase, c.backoffMax = time.Minute, time.Minute })
	for _, g := range rs.gates {
		g.setFailed(true)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	_, err := rs.backends[0].EvalPlan(ctx, parityPlan(t), nil)
	if err == nil {
		t.Fatal("eval under a dead budget succeeded")
	}
	if !errors.Is(err, ErrUnavailable) {
		t.Errorf("deadline error not classified unavailable: %v", err)
	}
	if elapsed := time.Since(t0); elapsed > 2*time.Second {
		t.Errorf("failover loop ran %s past a 10ms budget", elapsed)
	}
}

// TestReplicaHealthLoop: the group's prober takes a dead member out of
// rotation while the group is idle, and puts it back after recovery —
// without any query traffic risking the dead member.
func TestReplicaHealthLoop(t *testing.T) {
	col, _, _ := parityEngines(t)
	rs := serveReplicas(t, col, 1, 2, func(c *remoteConn) { c.probeInterval = 5 * time.Millisecond })
	member := func() ReplicaHealth { _, h := rs.conn.health(); return h[0] }
	rs.gates[0].setFailed(true)
	waitFor(t, 5*time.Second, func() bool { return !member().Healthy })
	if up, _ := rs.conn.health(); !up {
		t.Error("group with one live member reported unhealthy")
	}
	rs.gates[0].setFailed(false)
	waitFor(t, 5*time.Second, func() bool { return member().Healthy })
}

// TestReplicaBalancesLoad: with both members healthy, sustained traffic
// reaches both (power-of-two-choices never pins a single member).
func TestReplicaBalancesLoad(t *testing.T) {
	col, _, _ := parityEngines(t)
	rs := serveReplicas(t, col, 1, 2, nil)
	p := parityPlan(t)
	for i := 0; i < 64; i++ {
		if _, err := rs.backends[0].EvalPlan(context.Background(), p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if rs.recs[0].calls("Eval") == 0 || rs.recs[1].calls("Eval") == 0 {
		t.Errorf("load not spread: member evaluations = %d, %d", rs.recs[0].calls("Eval"), rs.recs[1].calls("Eval"))
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
