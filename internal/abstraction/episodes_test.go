package abstraction

import (
	"math/rand"
	"reflect"
	"testing"

	"pastas/internal/model"
	"pastas/internal/store"
)

// refEpisodes is the derivation the scratch-based loop replaced — a fresh
// slice per episode, a map per dominant — kept as the oracle. Its tie-break
// is the new total order (count, value, system); the old one stopped at the
// value and left same-valued codes of two systems to map iteration order.
func refEpisodes(entries []model.Entry, gap model.Time) []Episode {
	if len(entries) == 0 {
		return nil
	}
	var eps []Episode
	var cur *Episode
	for i := range entries {
		e := &entries[i]
		end := e.Start
		if e.Kind == model.Interval {
			end = e.End
		}
		if cur != nil && e.Start-cur.Period.End <= gap {
			cur.N++
			if end > cur.Period.End {
				cur.Period.End = end
			}
			continue
		}
		eps = append(eps, Episode{Period: model.Period{Start: e.Start, End: end}, First: i, N: 1})
		cur = &eps[len(eps)-1]
	}
	for i := range eps {
		counts := make(map[model.Code]int)
		for _, e := range entries[eps[i].First : eps[i].First+eps[i].N] {
			if e.Type == model.TypeDiagnosis && !e.Code.IsZero() {
				counts[e.Code]++
			}
		}
		var best model.Code
		bestN := 0
		for c, n := range counts {
			if n > bestN || n == bestN && (c.Value < best.Value || c.Value == best.Value && c.System < best.System) {
				best, bestN = c, n
			}
		}
		eps[i].Dominant = best
		if eps[i].Label = ChapterOf(best); eps[i].Label == "" {
			eps[i].Label = best.Value
		}
		if eps[i].Period.Empty() {
			eps[i].Period.End = eps[i].Period.Start + model.Day
		}
	}
	return eps
}

// randomHistory draws a history whose codes collide across systems and
// whose gaps straddle the episode boundary; some come back unsorted, so
// SortedEntries takes its copy path.
func randomHistory(rng *rand.Rand, id model.PatientID) *model.History {
	h := model.NewHistory(model.Patient{ID: id, Birth: model.Date(1950, 6, 1)})
	values := []string{"K80", "R05", "T90", "A04"}
	systems := []string{"ICPC2", "ICD10"}
	d := 0
	for i, n := 0, rng.Intn(25); i < n; i++ {
		d += rng.Intn(45)
		e := model.Entry{ID: uint64(id)*1000 + uint64(i), Kind: model.Point, Start: day(d), End: day(d),
			Source: model.SourceGP, Type: model.TypeContact}
		switch rng.Intn(4) {
		case 0:
			e.Type = model.TypeDiagnosis
			e.Code = model.Code{System: systems[rng.Intn(2)], Value: values[rng.Intn(len(values))]}
		case 1:
			e.Type, e.Kind, e.End = model.TypeStay, model.Interval, day(d+rng.Intn(40))
		}
		h.Add(e)
	}
	if rng.Intn(3) > 0 {
		h.Sort()
	}
	return h
}

func sameEpisodes(a, b []Episode) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

func TestEpisodesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var scratch EpisodeScratch
	reused, fresh := NewEpisodeTally(), NewEpisodeTally()
	for id := model.PatientID(1); id <= 400; id++ {
		h := randomHistory(rng, id)
		gap := model.Time(1+rng.Intn(40)) * model.Day
		want := refEpisodes(h.SortedEntries(), gap)
		if got := EpisodesStable(h, gap); !sameEpisodes(got, want) {
			t.Fatalf("history %d: EpisodesStable = %v, reference %v", id, got, want)
		}
		// The scratch carries nothing from one history into the next.
		row, codes := store.FrameHistory(h)
		got := scratch.Episodes(row.Cells, codes, gap)
		if !sameEpisodes(got, want) {
			t.Fatalf("history %d: reused scratch = %v, reference %v", id, got, want)
		}
		reused.AddEpisodes(got)
		fresh.AddHistory(h, gap)
		if got := Episodes(h.Clone(), gap); !sameEpisodes(got, want) {
			t.Fatalf("history %d: Episodes = %v, reference %v", id, got, want)
		}
	}
	if !reflect.DeepEqual(reused, fresh) {
		t.Errorf("tally over a reused scratch %+v, over fresh derivations %+v", reused, fresh)
	}
	if fresh.Episodes == 0 || len(fresh.ByDominant) < 3 {
		t.Fatalf("the sample derived too little to compare: %+v", fresh)
	}
}

// TestDominantTieBreakIsTotal: ICPC-2 and ICD-10 share code values (K80,
// R05, …), and the parent broke count ties on the value alone, so which
// system won followed map iteration order. The order is now count, value,
// system: one answer however often it is asked.
func TestDominantTieBreakIsTotal(t *testing.T) {
	h := model.NewHistory(model.Patient{ID: 1, Birth: model.Date(1950, 6, 1)})
	for i, c := range []model.Code{
		{System: "ICPC2", Value: "R05"}, {System: "ICPC2", Value: "K80"},
		{System: "ICD10", Value: "K80"}, {System: "ICD10", Value: "R05"},
	} {
		h.Add(model.Entry{ID: uint64(i + 1), Kind: model.Point, Start: day(i), End: day(i),
			Source: model.SourceGP, Type: model.TypeDiagnosis, Code: c})
	}
	h.Sort()
	want := model.Code{System: "ICD10", Value: "K80"}
	// The shipped ICD-10 table has no K80, so the tally keys the episode by
	// the raw value; had ICPC-2's K80 won, by its chapter.
	if ChapterOf(want) != "" || ChapterOf(model.Code{System: "ICPC2", Value: "K80"}) != "K" {
		t.Fatal("the vocabularies changed: the two K80s no longer tally under different keys")
	}
	for i := 0; i < 100; i++ {
		eps := EpisodesStable(h, 30*model.Day)
		if len(eps) != 1 || eps[0].Dominant != want {
			t.Fatalf("run %d: episodes %v, want one with dominant %v", i, eps, want)
		}
		tally := NewEpisodeTally()
		tally.AddHistory(h, 30*model.Day)
		if len(tally.ByDominant) != 1 || tally.ByDominant["K80"] != 1 {
			t.Fatalf("run %d: ByDominant = %v, want the ICD-10 code's key", i, tally.ByDominant)
		}
	}
}
