package engine

// Replication at the server group. Every RPC is read-only and idempotent,
// which makes replication client-side and simple — no leases, no quorums,
// just "ask a healthy member, and if it fails mid-call, ask another". A
// replicated group (a DialShards address "a|b") keeps one health record per
// member, fed from two directions. Passively, every real call records its
// outcome — a failure marks the member down immediately (the next attempt
// goes elsewhere), a success marks it up and feeds the latency EWMA that
// power-of-two-choices reads, which spreads load and routes around a
// slow-but-alive member long before it fails outright. Actively, one health
// loop per group probes every member each interval with the payload-free
// Describe, so a member that crashed while idle is discovered before a
// query trips over it and a recovered one rejoins rotation without waiting
// for traffic to risk it.

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"time"
)

// Replication timing. These are constants, not options: the failover
// contract is the same for every group.
const (
	// DefaultProbeInterval is the health loop's period.
	DefaultProbeInterval = 1 * time.Second
	// DefaultProbeTimeout bounds one liveness probe.
	DefaultProbeTimeout = 2 * time.Second
	// DefaultBackoffBase and DefaultBackoffMax bound the full-jitter
	// exponential backoff between failover attempts.
	DefaultBackoffBase = 5 * time.Millisecond
	DefaultBackoffMax  = 250 * time.Millisecond
)

// replicaState is one member's live health record. All fields are
// updated lock-free: calls, probes and the health loop race freely.
type replicaState struct {
	healthy  atomic.Bool
	fails    atomic.Uint64 // cumulative failed calls/probes
	calls    atomic.Uint64 // cumulative successful calls
	ewmaBits atomic.Uint64 // float64 bits of the latency EWMA in nanoseconds
}

// ewmaAlpha weights the newest latency observation; ~0.2 smooths single
// GC pauses away while still tracking a genuinely degraded member
// within a handful of calls.
const ewmaAlpha = 0.2

// observe folds one successful call's latency into the EWMA (lock-free
// CAS loop) and marks the member healthy.
func (r *replicaState) observe(d time.Duration) {
	ns := float64(d.Nanoseconds())
	for {
		old := r.ewmaBits.Load()
		prev := math.Float64frombits(old)
		next := ns
		if prev > 0 {
			next = ewmaAlpha*ns + (1-ewmaAlpha)*prev
		}
		if r.ewmaBits.CompareAndSwap(old, math.Float64bits(next)) {
			break
		}
	}
	r.calls.Add(1)
	r.healthy.Store(true)
}

// markFailed records a failed call or probe and takes the member out of
// rotation until a probe (or a desperate retry) succeeds.
func (r *replicaState) markFailed() {
	r.fails.Add(1)
	r.healthy.Store(false)
}

// ewma returns the current latency estimate in nanoseconds (0 = no
// observation yet, which sorts as "fastest" so new members get tried).
func (r *replicaState) ewma() float64 {
	return math.Float64frombits(r.ewmaBits.Load())
}

// ReplicaHealth is a point-in-time snapshot of one member's state, the
// unit the webapp's /api/stats health block and cohortctl render.
type ReplicaHealth struct {
	// Backend is the member's transport label ("remote(addr)").
	Backend string `json:"backend"`
	// Healthy is the current rotation status.
	Healthy bool `json:"healthy"`
	// EWMAMillis is the latency estimate the load balancer ranks by
	// (0 until the first successful call).
	EWMAMillis float64 `json:"ewma_ms"`
	// Calls and Failures are cumulative per-member outcome counters.
	Calls    uint64 `json:"calls"`
	Failures uint64 `json:"failures"`
}

// health reports whether any member of the group is in rotation, and
// every member's state in member order — the block behind Engine.Health.
func (c *remoteConn) health() (bool, []ReplicaHealth) {
	up := false
	out := make([]ReplicaHealth, len(c.members))
	for i, m := range c.members {
		out[i] = ReplicaHealth{
			Backend:    "remote(" + m.addr + ")",
			Healthy:    m.healthy.Load(),
			EWMAMillis: m.ewma() / 1e6,
			Calls:      m.calls.Load(),
			Failures:   m.fails.Load(),
		}
		up = up || out[i].Healthy
	}
	return up, out
}

// pick selects the member for a replicated call's next attempt and marks
// it tried: power-of-two-choices by latency EWMA over the healthy members
// not yet tried during this call, else over any untried one (a
// killed-and-restarted member may be back before the prober notices). Once
// every member has been tried the round starts over — the attempt bound,
// not pick, decides when to give up.
func (c *remoteConn) pick(tried []bool) *member {
	if !slices.Contains(tried, false) {
		clear(tried)
	}
	var healthy, untried []int
	for i, m := range c.members {
		if tried[i] {
			continue
		}
		untried = append(untried, i)
		if m.healthy.Load() {
			healthy = append(healthy, i)
		}
	}
	pool := healthy
	if len(pool) == 0 {
		pool = untried
	}
	i := pool[0]
	if len(pool) > 1 {
		a, b := rand.IntN(len(pool)), rand.IntN(len(pool)-1)
		if b >= a {
			b++
		}
		i = pool[a]
		if c.members[pool[b]].ewma() < c.members[i].ewma() {
			i = pool[b]
		}
	}
	tried[i] = true
	return c.members[i]
}

// backoff sleeps the jittered exponential delay for the given failover
// round (full jitter: uniform in (0, min(base·2^round, max)]), or
// returns the context's error if the deadline lands first.
func (c *remoteConn) backoff(ctx context.Context, round int) error {
	d := c.backoffBase << round
	if d > c.backoffMax || d <= 0 {
		d = c.backoffMax
	}
	timer := time.NewTimer(time.Duration(1 + rand.Int64N(int64(d))))
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// healthLoop runs one probe round each interval until the group closes.
func (c *remoteConn) healthLoop() {
	defer c.loop.Done()
	ticker := time.NewTicker(c.probeInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
		}
		c.probeAll()
	}
}

// probeAll sends every member one Describe and records the outcome like
// any other call's. Probes run one after another — a group is a handful
// of members, and sequencing keeps a hung member from stacking up probe
// goroutines (DefaultProbeTimeout still bounds each).
func (c *remoteConn) probeAll() {
	for _, m := range c.members {
		select {
		case <-c.stop:
			return
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), DefaultProbeTimeout)
		t0 := time.Now()
		if _, err := attempt[DescribeReply](ctx, c, m, "Describe", &DescribeArgs{}); err != nil {
			m.markFailed()
		} else {
			m.observe(time.Since(t0))
		}
		cancel()
	}
}
