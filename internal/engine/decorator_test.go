package engine

// The interception contract, checked over the interface itself: every
// data operation ShardBackend declares — found by reflection, so one added
// later is covered the day it lands — goes through FaultBackend's gate
// once, and through a replicated group's failover exactly once per member
// tried. And the one check every
// cohort operation shares: a bitset that does not cover the population is
// refused before any view or backend is indexed with it.

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// countingBackend answers every operation with zero values and counts the
// calls that reach it.
type countingBackend struct{ calls atomic.Int64 }

func (c *countingBackend) Meta() ShardMeta { return ShardMeta{Patients: 1, Backend: "counting"} }
func (c *countingBackend) Close() error    { return nil }
func (c *countingBackend) Stats(context.Context) (*store.Stats, error) {
	c.calls.Add(1)
	return nil, nil
}
func (c *countingBackend) EvalPlan(context.Context, Plan, *store.Bitset) (*store.Bitset, error) {
	c.calls.Add(1)
	return nil, nil
}
func (c *countingBackend) IDsOf(context.Context, *store.Bitset) ([]model.PatientID, error) {
	c.calls.Add(1)
	return nil, nil
}
func (c *countingBackend) FetchHistories(context.Context, []int) ([]*model.History, error) {
	c.calls.Add(1)
	return nil, nil
}
func (c *countingBackend) LocateID(context.Context, model.PatientID) (int, bool, error) {
	c.calls.Add(1)
	return 0, false, nil
}
func (c *countingBackend) Analyze(context.Context, AnalyzeArgs) (Partial, error) {
	c.calls.Add(1)
	return nil, nil
}

// callDataMethods invokes every ShardBackend method that takes a context —
// the data operations — on b with the arguments args lists for it, zero
// values otherwise, calling check around each.
func callDataMethods(t *testing.T, b ShardBackend, args map[string][]any, check func(method string, call func() error)) {
	t.Helper()
	iface := reflect.TypeOf((*ShardBackend)(nil)).Elem()
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	seen := 0
	for i := 0; i < iface.NumMethod(); i++ {
		m := iface.Method(i)
		if m.Type.NumIn() == 0 || m.Type.In(0) != ctxType {
			continue // Meta, Close
		}
		seen++
		in := []reflect.Value{reflect.ValueOf(context.Background())}
		for k := 1; k < m.Type.NumIn(); k++ {
			if given := args[m.Name]; given != nil {
				in = append(in, reflect.ValueOf(given[k-1]))
			} else {
				in = append(in, reflect.Zero(m.Type.In(k)))
			}
		}
		check(m.Name, func() error {
			out := reflect.ValueOf(b).MethodByName(m.Name).Call(in)
			err, _ := out[len(out)-1].Interface().(error)
			return err
		})
	}
	if seen == 0 {
		t.Fatal("no data methods found on ShardBackend")
	}
}

func TestDecoratorsInterceptEveryOperation(t *testing.T) {
	t.Run("fault gate", func(t *testing.T) {
		inner := &countingBackend{}
		f := NewFaultBackend(inner)
		callDataMethods(t, f, nil, func(method string, call func() error) {
			gated, reached := f.Calls(), inner.calls.Load()
			if err := call(); err != nil {
				t.Errorf("%s through a healthy wrapper: %v", method, err)
			}
			if f.Calls() != gated+1 || inner.calls.Load() != reached+1 {
				t.Errorf("%s: gated %d times, reached the backend %d times; want once each",
					method, f.Calls()-gated, inner.calls.Load()-reached)
			}
			f.Fail()
			failed := f.Failures()
			if err := call(); !IsUnavailable(err) {
				t.Errorf("%s through a failing wrapper = %v, want an unavailability error", method, err)
			}
			if f.Failures() != failed+1 || inner.calls.Load() != reached+1 {
				t.Errorf("%s bypassed the gate: a failing wrapper let it reach the backend", method)
			}
			f.Recover()
		})
	})

	t.Run("replica failover", func(t *testing.T) {
		col, _, _ := parityEngines(t)
		rs := serveReplicas(t, col, 1, 2, func(c *remoteConn) { c.backoffBase = time.Microsecond })
		rs.gates[0].setFailed(true)
		b := rs.backends[0]
		args := map[string][]any{
			"EvalPlan": {parityPlan(t), (*store.Bitset)(nil)},
			"IDsOf":    {store.NewBitset(b.Meta().Patients)},
			"Analyze":  {AnalyzeArgs{Kind: AnalyzeSpan, Params: SpanRequest().params}},
		}
		callDataMethods(t, b, args, func(method string, call func() error) {
			// Only the failing member looks healthy, so it is tried first
			// and the call must fail over to the other.
			rs.conn.members[0].healthy.Store(true)
			rs.conn.members[1].healthy.Store(false)
			_, before := rs.conn.health()
			if err := call(); err != nil {
				t.Errorf("%s over a group with one live member: %v", method, err)
			}
			_, after := rs.conn.health()
			if tried, served := after[0].Failures-before[0].Failures, after[1].Calls-before[1].Calls; tried != 1 || served != 1 {
				t.Errorf("%s: failing member tried %d times, live member served %d times; want once each", method, tried, served)
			}
			if after[0].Healthy {
				t.Errorf("%s: the failed attempt did not mark the member down", method)
			}
		})
	})
}

// TestCohortOpsCheckPopulation: every operation that takes a cohort bitset
// refuses one that does not cover the population — IDsOf included, which
// once indexed the pinned view (or sliced the backends) with whatever it
// was handed.
func TestCohortOpsCheckPopulation(t *testing.T) {
	col, st, engines := parityEngines(t)
	fix := startShardServers(t, col, 4, 2, RemoteOptions{Timeout: 30 * time.Second})
	window := model.Period{Start: model.Date(2005, 1, 1), End: model.Date(2015, 1, 1)}
	req, err := EpisodesRequest(EpisodeParams{Gap: 90 * model.Day})
	if err != nil {
		t.Fatal(err)
	}
	for name, eng := range map[string]*Engine{"local": engines[0], "coordinator": fix.eng} {
		for _, n := range []int{st.Len() - 1, st.Len() + 70_000} {
			b := store.NewBitset(n)
			b.Set(n - 1)
			ops := map[string]func() error{
				"IDsOf":      func() error { _, err := eng.IDsOf(b); return err },
				"Histories":  func() error { _, err := eng.Histories(b); return err },
				"Indicators": func() error { _, err := eng.Indicators(b, window); return err },
				"Profile":    func() error { _, err := eng.Profile(b, window); return err },
				"Analyze":    func() error { _, err := eng.Analyze(b, req); return err },
			}
			for op, run := range ops {
				if err := run(); err == nil {
					t.Errorf("%s %s: accepted a %d-patient bitset over a population of %d", name, op, n, st.Len())
				}
			}
		}
		all, err := eng.Execute(query.TrueExpr{})
		if err != nil {
			t.Fatal(err)
		}
		if ids, err := eng.IDsOf(all); err != nil || len(ids) != st.Len() {
			t.Errorf("%s IDsOf(everyone) = %d ids, %v", name, len(ids), err)
		}
	}
}
