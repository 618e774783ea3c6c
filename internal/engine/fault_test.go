package engine

// FaultBackend: a ShardBackend decorator that fails every call while
// failed. It is how the degradation tests exercise Strict and Degraded
// over in-process backends, without servers to kill: wrap any backend,
// Fail it, and every operation fails the way an unreachable shard server's
// would — with an ErrUnavailable-classified error, exactly like a real
// transport failure, so PolicyDegraded absorbs it. (Replicated groups are
// exercised over real shard servers instead; see replica_test.go.)

import (
	"context"
	"fmt"
	"sync/atomic"

	"pastas/internal/model"
	"pastas/internal/store"
)

// interceptor is the one decision a ShardBackend decorator makes: how a
// call reaches the backend it wraps. It runs call against the backend —
// behind FaultBackend's gate — and returns the outcome.
type interceptor func(ctx context.Context, call func(ctx context.Context, b ShardBackend) error) error

// forwarder implements every ShardBackend data operation once, over an
// interceptor. A decorator embeds it and keeps only Meta, Close and its
// own machinery: an operation added to ShardBackend is forwarded — and
// intercepted — or nothing compiles.
type forwarder struct{ via interceptor }

// forward runs one result-bearing operation through the interceptor,
// keeping the result of the run whose outcome the interceptor returns.
func forward[T any](ctx context.Context, via interceptor, op func(context.Context, ShardBackend) (T, error)) (out T, err error) {
	err = via(ctx, func(ctx context.Context, b ShardBackend) (err error) {
		out, err = op(ctx, b)
		return err
	})
	return out, err
}

func (f forwarder) Stats(ctx context.Context) (*store.Stats, error) {
	return forward(ctx, f.via, func(ctx context.Context, b ShardBackend) (*store.Stats, error) {
		return b.Stats(ctx)
	})
}

func (f forwarder) EvalPlan(ctx context.Context, p Plan, mask *store.Bitset) (*store.Bitset, error) {
	return forward(ctx, f.via, func(ctx context.Context, b ShardBackend) (*store.Bitset, error) {
		return b.EvalPlan(ctx, p, mask)
	})
}

func (f forwarder) IDsOf(ctx context.Context, bits *store.Bitset) ([]model.PatientID, error) {
	return forward(ctx, f.via, func(ctx context.Context, b ShardBackend) ([]model.PatientID, error) {
		return b.IDsOf(ctx, bits)
	})
}

func (f forwarder) FetchHistories(ctx context.Context, ordinals []int) ([]*model.History, error) {
	return forward(ctx, f.via, func(ctx context.Context, b ShardBackend) ([]*model.History, error) {
		return b.FetchHistories(ctx, ordinals)
	})
}

func (f forwarder) LocateID(ctx context.Context, id model.PatientID) (ordinal int, found bool, err error) {
	err = f.via(ctx, func(ctx context.Context, b ShardBackend) (err error) {
		ordinal, found, err = b.LocateID(ctx, id)
		return err
	})
	return ordinal, found, err
}

func (f forwarder) Analyze(ctx context.Context, args AnalyzeArgs) (Partial, error) {
	return forward(ctx, f.via, func(ctx context.Context, b ShardBackend) (Partial, error) {
		return b.Analyze(ctx, args)
	})
}

// FaultBackend wraps a ShardBackend with a fail switch. The data
// operations are the forwarder's, each run through intercept.
type FaultBackend struct {
	forwarder
	inner ShardBackend

	failing  atomic.Bool
	calls    atomic.Uint64 // total calls gated (including failed ones)
	failures atomic.Uint64 // calls failed by injection
}

// NewFaultBackend wraps a backend, initially healthy.
func NewFaultBackend(inner ShardBackend) *FaultBackend {
	f := &FaultBackend{inner: inner}
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

// Fail starts failing every call; Recover restores pass-through.
func (f *FaultBackend) Fail()    { f.failing.Store(true) }
func (f *FaultBackend) Recover() { f.failing.Store(false) }

// Calls and Failures report the cumulative gated and injected-failure
// call counts — how tests assert traffic actually hit the wrapper.
func (f *FaultBackend) Calls() uint64    { return f.calls.Load() }
func (f *FaultBackend) Failures() uint64 { return f.failures.Load() }

// intercept is the wrapper's interceptor: count the call, then fail it or
// pass it to the wrapped backend.
func (f *FaultBackend) intercept(ctx context.Context, call func(ctx context.Context, b ShardBackend) error) error {
	f.calls.Add(1)
	if f.failing.Load() {
		f.failures.Add(1)
		return fmt.Errorf("engine: fault(%s): injected failure: %w", f.inner.Meta().Backend, ErrUnavailable)
	}
	return call(ctx, f.inner)
}

// Close implements ShardBackend by closing the wrapped backend.
func (f *FaultBackend) Close() error { return f.inner.Close() }
