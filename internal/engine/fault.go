package engine

// FaultBackend: a ShardBackend decorator that injects failures on a
// schedule — hard errors, added latency, hangs, and up/down flapping.
// It is how the chaos tests (and the chaos parity suite) exercise the
// failover and degradation machinery deterministically, without real
// processes to kill: wrap any backend, flip its mode, and every
// operation misbehaves the way a crashed, overloaded or wedged shard
// server would. Injected errors are ErrUnavailable-classified, exactly
// like real transport failures, so replica sets fail over on them and
// PolicyDegraded absorbs them.

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// FaultMode is the backend's current injected behavior.
type FaultMode int32

const (
	// FaultNone passes every call through untouched.
	FaultNone FaultMode = iota
	// FaultError fails every call with an ErrUnavailable-wrapped error.
	FaultError
	// FaultHang blocks every call until Release is called or the call's
	// context expires — the wedged-server case that deadline threading
	// exists for.
	FaultHang
)

// FaultBackend wraps a ShardBackend with a controllable fault schedule.
// The data operations are the shared forwarder's, each run through
// intercept.
type FaultBackend struct {
	forwarder
	inner ShardBackend

	mode     atomic.Int32
	latency  atomic.Int64  // injected per-call latency, nanoseconds
	failNext atomic.Int64  // one-shot failure budget, consumed per call
	calls    atomic.Uint64 // total calls gated (including failed ones)
	failures atomic.Uint64 // calls failed by injection

	mu      sync.Mutex
	release chan struct{} // closed to release hanging calls
	flap    chan struct{} // non-nil while a flap schedule runs
}

// NewFaultBackend wraps a backend, initially healthy.
func NewFaultBackend(inner ShardBackend) *FaultBackend {
	f := &FaultBackend{inner: inner, release: make(chan struct{})}
	f.forwarder.via = f.intercept
	return f
}

// Meta implements ShardBackend; the label marks the injection wrapper so
// stats surfaces show it.
func (f *FaultBackend) Meta() ShardMeta {
	m := f.inner.Meta()
	m.Backend = "fault(" + m.Backend + ")"
	return m
}

// SetMode switches the injected behavior. Leaving FaultHang releases the
// calls currently blocked.
func (f *FaultBackend) SetMode(mode FaultMode) {
	old := FaultMode(f.mode.Swap(int32(mode)))
	if old == FaultHang && mode != FaultHang {
		f.Release()
	}
}

// Fail starts failing every call; Recover restores pass-through.
func (f *FaultBackend) Fail()    { f.SetMode(FaultError) }
func (f *FaultBackend) Recover() { f.SetMode(FaultNone) }

// FailNext injects failures into the next n calls (independent of the
// mode), then passes through again — the transient-blip schedule.
func (f *FaultBackend) FailNext(n int) { f.failNext.Store(int64(n)) }

// SetLatency injects a fixed delay before every call (0 clears it). The
// delay respects the call's context deadline.
func (f *FaultBackend) SetLatency(d time.Duration) { f.latency.Store(int64(d)) }

// Release unblocks every call currently parked by FaultHang.
func (f *FaultBackend) Release() {
	f.mu.Lock()
	defer f.mu.Unlock()
	close(f.release)
	f.release = make(chan struct{})
}

// StartFlap runs an up/down schedule: healthy for up, failing for down,
// repeating until StopFlap or Close. Calling it again restarts the
// schedule.
func (f *FaultBackend) StartFlap(up, down time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.flap != nil {
		close(f.flap)
	}
	stop := make(chan struct{})
	f.flap = stop
	go func() {
		for {
			f.SetMode(FaultNone)
			select {
			case <-stop:
				return
			case <-time.After(up):
			}
			f.SetMode(FaultError)
			select {
			case <-stop:
				f.SetMode(FaultNone)
				return
			case <-time.After(down):
			}
		}
	}()
}

// StopFlap halts the flap schedule and leaves the backend healthy.
func (f *FaultBackend) StopFlap() {
	f.mu.Lock()
	if f.flap != nil {
		close(f.flap)
		f.flap = nil
	}
	f.mu.Unlock()
	f.SetMode(FaultNone)
}

// Calls and Failures report the cumulative gated and injected-failure
// call counts — how tests assert traffic actually hit the wrapper.
func (f *FaultBackend) Calls() uint64    { return f.calls.Load() }
func (f *FaultBackend) Failures() uint64 { return f.failures.Load() }

// gate applies the fault schedule to one call: count it, delay it, then
// fail, hang or admit it.
func (f *FaultBackend) gate(ctx context.Context) error {
	f.calls.Add(1)
	if d := time.Duration(f.latency.Load()); d > 0 {
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			f.failures.Add(1)
			return fmt.Errorf("engine: fault(%s): %w: %w", f.inner.Meta().Backend, ErrUnavailable, ctx.Err())
		}
	}
	if f.failNext.Load() > 0 && f.failNext.Add(-1) >= 0 {
		f.failures.Add(1)
		return fmt.Errorf("engine: fault(%s): injected failure: %w", f.inner.Meta().Backend, ErrUnavailable)
	}
	switch FaultMode(f.mode.Load()) {
	case FaultError:
		f.failures.Add(1)
		return fmt.Errorf("engine: fault(%s): injected failure: %w", f.inner.Meta().Backend, ErrUnavailable)
	case FaultHang:
		f.mu.Lock()
		release := f.release
		f.mu.Unlock()
		select {
		case <-release:
			return nil
		case <-ctx.Done():
			f.failures.Add(1)
			return fmt.Errorf("engine: fault(%s): hung: %w: %w", f.inner.Meta().Backend, ErrUnavailable, ctx.Err())
		}
	default:
		return nil
	}
}

// intercept is the wrapper's interceptor: the fault schedule first, then
// the wrapped backend.
func (f *FaultBackend) intercept(ctx context.Context, call func(ctx context.Context, b ShardBackend) error) error {
	if err := f.gate(ctx); err != nil {
		return err
	}
	return call(ctx, f.inner)
}

// Probe implements Prober, under the same fault schedule as real calls —
// a health checker must see the injected outage.
func (f *FaultBackend) Probe(ctx context.Context) error {
	if err := f.gate(ctx); err != nil {
		return err
	}
	if p, ok := f.inner.(Prober); ok {
		return p.Probe(ctx)
	}
	_, err := f.inner.Stats(ctx)
	return err
}

// Close implements ShardBackend: stops any flap schedule, releases any
// hung calls and closes the wrapped backend.
func (f *FaultBackend) Close() error {
	f.StopFlap()
	f.Release()
	return f.inner.Close()
}
