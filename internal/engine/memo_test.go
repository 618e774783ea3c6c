package engine

// The analysis memo's contract (analyze.go): a repeated analysis of equal
// bits, kind and parameters makes no backend call and answers a copy the
// caller may mutate; another window, other parameters, another cohort of
// the same size or a later generation is computed; only complete answers
// are stored.

import (
	"context"
	"maps"
	"reflect"
	"testing"

	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/stats"
	"pastas/internal/store"
)

func TestAnalysisMemoHitsOnlyTheSameQuestion(t *testing.T) {
	eng, faults, st := degradedFixture(t, PolicyDegraded, 32)
	// ask analyzes and reports the answer and its backend calls.
	ask := func(b *store.Bitset, req AnalyzeRequest) (Partial, uint64) {
		t.Helper()
		before := faultCalls(faults)
		part, status, err := eng.AnalyzeStatus(context.Background(), b, req)
		if err != nil || !status.Complete() {
			t.Fatalf("%s: %v (%s)", req.Kind, err, status)
		}
		return part, faultCalls(faults) - before
	}
	bits := st.All()
	mine, _ := MineRequest(MineParams{System: "ICPC2", Chapter: true})
	first, n := ask(bits, mine)
	c := first.(*mining.Counts)
	want := mining.Counts{N: c.N, Single: maps.Clone(c.Single), Pair: maps.Clone(c.Pair)}
	for ask2 := 0; ask2 < 2; ask2++ {
		c.Single["poisoned"] = 1 // the caller owns its answer, a memo hit included
		again, n2 := ask(bits.Clone(), mine)
		if c = again.(*mining.Counts); n == 0 || n2 != 0 || !reflect.DeepEqual(*c, want) {
			t.Errorf("mine asked again: %d then %d backend calls, answer equal to the first: %v",
				n, n2, reflect.DeepEqual(*c, want))
		}
	}

	window := model.Period{Start: model.Date(2008, 1, 1), End: model.Date(2014, 1, 1)}
	before := faultCalls(faults)
	prof, err := eng.Profile(bits, window)
	walked := faultCalls(faults) - before
	ind, err2 := eng.Indicators(bits, window)
	if err != nil || err2 != nil || walked == 0 || faultCalls(faults)-before != walked || ind.Patients != prof.Patients {
		t.Errorf("Profile then Indicators: %v, %v; %d then %d backend calls, want one walk",
			err, err2, walked, faultCalls(faults)-before-walked)
	}

	// Each differs from an answered question in one respect.
	head, tail := store.NewBitset(st.Len()), store.NewBitset(st.Len())
	head.Set(0)
	tail.Set(st.Len() - 1)
	short := bits.Clone().AndNot(tail)
	oneOff := short.Clone().AndNot(head).Or(tail)
	seq, _ := MineRequest(MineParams{System: "ICPC2", Chapter: true, Sequential: true})
	for _, q := range []struct {
		name string
		b    *store.Bitset
		req  AnalyzeRequest
	}{
		{"a smaller cohort", short, mine},
		{"one member swapped, equal count", oneOff, mine},
		{"another window", bits, utilizationRequest(model.Period{Start: window.Start, End: window.End + 1})},
		{"other parameters", bits, seq},
	} {
		if _, n := ask(q.b, q.req); n == 0 {
			t.Errorf("%s: answered from the memo", q.name)
		}
	}
}

func faultCalls(faults []*FaultBackend) (n uint64) {
	for _, f := range faults {
		n += f.Calls()
	}
	return n
}

// TestAnalysisMemoStoresOnlyComplete: an answer degraded by an outage is
// not stored, so after Recover the next call is complete and computed; a
// complete answer stored before an outage is served through it, complete.
func TestAnalysisMemoStoresOnlyComplete(t *testing.T) {
	eng, faults, st := degradedFixture(t, PolicyDegraded, 32)
	req := utilizationRequest(caseWindow)
	var answers []Partial
	for _, down := range []bool{true, false, true} {
		if down {
			faults[2].Fail()
		} else {
			faults[2].Recover()
		}
		before := faultCalls(faults)
		part, status, err := eng.AnalyzeStatus(context.Background(), st.All(), req)
		if err != nil || status.Complete() != (len(answers) > 0) || !down && faultCalls(faults) == before {
			t.Fatalf("answer %d (shard 2 down %v): %v, %s, %d backend calls",
				len(answers), down, err, status, faultCalls(faults)-before)
		}
		answers = append(answers, part)
	}
	if answers[0].HistoryCount() >= st.Len() || !reflect.DeepEqual(answers[1], answers[2]) {
		t.Errorf("degraded answer over %d of %d histories; stored answer served in the outage equal: %v",
			answers[0].HistoryCount(), st.Len(), reflect.DeepEqual(answers[1], answers[2]))
	}
}

// TestAnalysisMemoEpochedByGeneration: an append that changes a history
// but not the population leaves the cohort bits valid and equal, and the
// memo still must not answer for the old generation.
func TestAnalysisMemoEpochedByGeneration(t *testing.T) {
	st := store.New(fbCollection(200))
	e := New(st, Options{Shards: 2, CacheSize: 8})
	window := model.Period{Start: model.Date(2000, 1, 1), End: model.Date(2020, 1, 1)}
	profile := func() stats.CohortProfile {
		t.Helper()
		p, err := e.Profile(st.All(), window)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	before := profile()
	if profile(); e.analyses.stats(e.Generation()) != (CacheStats{Hits: 1, Misses: 1, Entries: 1}) {
		t.Fatalf("memo before the append: %+v, want one entry hit once", e.analyses.stats(e.Generation()))
	}
	at := model.Date(2012, 6, 1)
	if _, err := st.Append(store.AppendBatch{Updates: []store.HistoryUpdate{{ID: st.PatientAt(3), Entries: []model.Entry{{
		ID: st.MaxEntryID() + 1, Kind: model.Point, Start: at, End: at, Type: model.TypeContact, Source: model.SourceGP}}}}}); err != nil {
		t.Fatal(err)
	}
	if after := profile(); after.Entries != before.Entries+1 || e.analyses.stats(e.Generation()).Hits != 1 {
		t.Errorf("profile after the append: %d entries, before %d; memo %+v", after.Entries, before.Entries,
			e.analyses.stats(e.Generation()))
	}
	if e.ResetCache(); e.analyses.stats(e.Generation()).Entries != 0 {
		t.Error("ResetCache left memo entries")
	}
}
