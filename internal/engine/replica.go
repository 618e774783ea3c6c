package engine

// ReplicaBackend: one shard served by N interchangeable backends. Every
// ShardBackend operation is read-only and idempotent, which makes the
// whole replication story client-side and simple — no leases, no
// quorums, just "ask a healthy replica, and if it fails mid-query, ask
// another". Selection is power-of-two-choices on an EWMA of observed
// latency (two random healthy replicas, take the faster), which spreads
// read load without a coordinator and routes around a slow-but-alive
// replica long before it fails outright. Failures mark the replica down
// passively; an active health checker (health.go) probes it back into
// rotation. Failed attempts retry on other replicas under jittered
// exponential backoff, bounded by the caller's context deadline — the
// coordinator's query budget — so failover absorbs a killed replica
// without ever pinning a worker.

import (
	"context"
	"fmt"
	"math/rand/v2"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ReplicaOptions tunes a replica set. The zero value uses the defaults.
type ReplicaOptions struct {
	// ProbeInterval is the active health-check period. 0 means
	// DefaultProbeInterval; negative disables active probing (tests).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one liveness probe. 0 means DefaultProbeTimeout.
	ProbeTimeout time.Duration
	// MaxAttempts bounds how many replicas one call may try (counting
	// the first). 0 means twice the replica count — every replica gets a
	// second chance after a full backoff round before the call gives up.
	MaxAttempts int
	// BackoffBase and BackoffMax bound the jittered exponential backoff
	// between failover attempts. 0 means DefaultBackoffBase/Max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
}

// Defaults for ReplicaOptions.
const (
	DefaultProbeInterval = 1 * time.Second
	DefaultProbeTimeout  = 2 * time.Second
	DefaultBackoffBase   = 5 * time.Millisecond
	DefaultBackoffMax    = 250 * time.Millisecond
)

func (o ReplicaOptions) probeInterval() time.Duration {
	if o.ProbeInterval == 0 {
		return DefaultProbeInterval
	}
	return o.ProbeInterval
}

func (o ReplicaOptions) probeTimeout() time.Duration {
	if o.ProbeTimeout <= 0 {
		return DefaultProbeTimeout
	}
	return o.ProbeTimeout
}

func (o ReplicaOptions) maxAttempts(replicas int) int {
	if o.MaxAttempts > 0 {
		return o.MaxAttempts
	}
	return 2 * replicas
}

func (o ReplicaOptions) backoffBase() time.Duration {
	if o.BackoffBase <= 0 {
		return DefaultBackoffBase
	}
	return o.BackoffBase
}

func (o ReplicaOptions) backoffMax() time.Duration {
	if o.BackoffMax <= 0 {
		return DefaultBackoffMax
	}
	return o.BackoffMax
}

// ReplicaBackend implements ShardBackend over a set of same-shard
// replicas with health-checked failover and latency-aware read
// balancing. The data operations are the shared forwarder's, each run
// through do — a replica dying mid-call fails over transparently because
// every operation is pure.
type ReplicaBackend struct {
	forwarder
	meta     ShardMeta
	replicas []*replicaState
	opts     ReplicaOptions
	rr       atomic.Uint64 // desperation round-robin when nothing is healthy

	stopOnce sync.Once
	stop     chan struct{}
}

// NewReplicaBackend wraps the given same-shard backends as one replica
// set. Every member must advertise an identical shard identity — id,
// ordinal offset, population and entry count — because the set answers
// as one shard; a mismatch means the members load different snapshots
// (or the wrong shard) and is rejected here, at assembly time, with an
// error naming both sides. Members start healthy; the active health
// checker begins probing immediately.
func NewReplicaBackend(replicas []ShardBackend, opts ReplicaOptions) (*ReplicaBackend, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("engine: replica set needs at least one backend")
	}
	ref := replicas[0].Meta()
	states := make([]*replicaState, len(replicas))
	names := make([]string, len(replicas))
	for i, b := range replicas {
		m := b.Meta()
		if m.Shard != ref.Shard || m.Offset != ref.Offset || m.Patients != ref.Patients || m.Entries != ref.Entries {
			return nil, fmt.Errorf(
				"engine: replica set mismatch: %s advertises shard %d [%d, %d) with %d entries, %s advertises shard %d [%d, %d) with %d entries (different snapshots or shard assignments?)",
				replicas[0].Meta().Backend, ref.Shard, ref.Offset, ref.Offset+ref.Patients, ref.Entries,
				m.Backend, m.Shard, m.Offset, m.Offset+m.Patients, m.Entries)
		}
		states[i] = &replicaState{backend: b, name: m.Backend}
		states[i].healthy.Store(true)
		names[i] = m.Backend
	}
	meta := ref
	meta.Backend = fmt.Sprintf("replicas(%s)", strings.Join(names, " | "))
	rb := &ReplicaBackend{meta: meta, replicas: states, opts: opts, stop: make(chan struct{})}
	rb.forwarder.via = rb.do
	if opts.ProbeInterval >= 0 {
		go healthLoop(rb.stop, opts.probeInterval(), opts.probeTimeout(), states)
	}
	return rb, nil
}

// Meta implements ShardBackend; the label names every member.
func (rb *ReplicaBackend) Meta() ShardMeta { return rb.meta }

// Health snapshots every replica's state, healthy-or-not, in member
// order — the per-shard block behind Engine.Health.
func (rb *ReplicaBackend) Health() []ReplicaHealth {
	out := make([]ReplicaHealth, len(rb.replicas))
	for i, r := range rb.replicas {
		out[i] = r.snapshot()
	}
	return out
}

// Healthy reports whether any replica is currently in rotation.
func (rb *ReplicaBackend) Healthy() bool {
	for _, r := range rb.replicas {
		if r.healthy.Load() {
			return true
		}
	}
	return false
}

// pick selects the replica for the next attempt: power-of-two-choices
// by latency EWMA over the healthy members not yet tried during this
// call. With no healthy untried member it falls back to any untried one
// (a killed-and-restarted replica may be back before the prober
// notices), and with everything tried it round-robins the whole set —
// the caller's attempt budget, not pick, decides when to give up.
func (rb *ReplicaBackend) pick(tried []bool) *replicaState {
	var healthy, untried []*replicaState
	for i, r := range rb.replicas {
		if tried[i] {
			continue
		}
		untried = append(untried, r)
		if r.healthy.Load() {
			healthy = append(healthy, r)
		}
	}
	pool := healthy
	if len(pool) == 0 {
		pool = untried
	}
	if len(pool) == 0 {
		return rb.replicas[rb.rr.Add(1)%uint64(len(rb.replicas))]
	}
	if len(pool) == 1 {
		return pool[0]
	}
	a, b := rand.IntN(len(pool)), rand.IntN(len(pool)-1)
	if b >= a {
		b++
	}
	if pool[b].ewma() < pool[a].ewma() {
		return pool[b]
	}
	return pool[a]
}

// backoff sleeps the jittered exponential delay for the given failover
// round (full jitter: uniform in (0, min(base·2^round, max)]), or
// returns the context's error if the deadline lands first.
func (rb *ReplicaBackend) backoff(ctx context.Context, round int) error {
	d := rb.opts.backoffBase() << round
	if max := rb.opts.backoffMax(); d > max || d <= 0 {
		d = max
	}
	d = time.Duration(1 + rand.Int64N(int64(d)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// do is the set's interceptor: it runs one idempotent operation with
// failover — try a replica, and on an unavailability error mark it down,
// back off (jittered, bounded by the context) and try another.
// Deterministic errors — a semantic refusal the next replica would repeat
// — return immediately without burning attempts or marking anyone down.
func (rb *ReplicaBackend) do(ctx context.Context, fn func(ctx context.Context, b ShardBackend) error) error {
	tried := make([]bool, len(rb.replicas))
	attempts := rb.opts.maxAttempts(len(rb.replicas))
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if err := ctx.Err(); err != nil {
			break
		}
		r := rb.pick(tried)
		for i, s := range rb.replicas {
			if s == r {
				tried[i] = true
			}
		}
		t0 := time.Now()
		err := fn(ctx, r.backend)
		if err == nil {
			r.observe(time.Since(t0))
			return nil
		}
		if !IsUnavailable(err) {
			return err // deterministic: every replica would answer the same
		}
		r.markFailed()
		lastErr = err
		// A full round has been tried when every replica is marked; give
		// the set a fresh chance (the restart case) after backing off.
		allTried := true
		for _, t := range tried {
			allTried = allTried && t
		}
		if allTried {
			tried = make([]bool, len(rb.replicas))
		}
		if attempt < attempts-1 {
			if err := rb.backoff(ctx, attempt); err != nil {
				break
			}
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("engine: shard %d: %w: %w", rb.meta.Shard, ErrUnavailable, ctx.Err())
	}
	return fmt.Errorf("engine: shard %d: all %d replicas failed: %w", rb.meta.Shard, len(rb.replicas), lastErr)
}

// Probe implements Prober: the set is alive if any member answers.
func (rb *ReplicaBackend) Probe(ctx context.Context) error {
	var lastErr error
	for _, r := range rb.replicas {
		if err := r.probe(ctx); err == nil {
			return nil
		} else {
			lastErr = err
		}
	}
	return lastErr
}

// Close implements ShardBackend: stops the health checker and closes
// every member, joining their errors.
func (rb *ReplicaBackend) Close() error {
	rb.stopOnce.Do(func() { close(rb.stop) })
	var errs []error
	for _, r := range rb.replicas {
		if err := r.backend.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("engine: closing replica set for shard %d: %v", rb.meta.Shard, errs)
}
