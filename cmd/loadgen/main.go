// Command loadgen is the chaos e2e's driver: it runs concurrent mixed
// sessions — cohort queries, patient timeline fetches, indicator
// aggregations, refine loops and cohort analytics — against a shard
// topology for a fixed time and prints, as JSON, how many operations of
// each class ran and how many failed. Point it at a replicated topology,
// kill and restart servers underneath it, and assert total.errors == 0.
// (Latency is the benchmark's job: see benchmark/.)
//
// Usage:
//
//	loadgen -shards "h1:7070|h2:7070,h3:7070|h4:7070" -c 4 -d 8s
//
// Replica groups use the same "a|b" syntax as cohortctl -shards: the
// members of a group serve the same shards from the same snapshot, and
// each group's one connection fails every call over between them
// (engine.DialShards) — one RPC per group, however many shards it serves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"
	"sync"
	"time"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("loadgen: ")
	var (
		shardAddrs = flag.String("shards", "", "comma-separated shard server addresses (required); replica groups as \"a|b\"")
		workers    = flag.Int("c", 8, "concurrent session workers")
		duration   = flag.Duration("d", 10*time.Second, "run duration")
	)
	flag.Parse()

	opts := engine.DefaultOptions()
	opts.CacheSize = 0 // a load generator must generate load, not cache hits
	window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
	wb, err := core.Connect(strings.Split(*shardAddrs, ","), engine.RemoteOptions{}, opts, window)
	if err != nil {
		log.Fatal(err)
	}
	defer wb.Close()

	ids, cohortBits, err := primeWorkload(wb)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("%d patients, %d shards; %d workers for %s",
		wb.Patients(), wb.Engine.NumShards(), *workers, *duration)

	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(run(wb, ids, cohortBits, *workers, *duration)); err != nil {
		log.Fatal(err)
	}
}

// analyticsCohort is the saved cohort the analytics class mines over,
// materialized once at priming time.
const analyticsCohort = "lg-analytics"

// primeWorkload resolves the fixed inputs every session reuses: a pool
// of patient IDs for timeline fetches, a cohort bitset for indicator
// aggregations, and a saved cohort for the analytics class. Priming goes
// through the engine, so it works over any transport.
func primeWorkload(wb *core.Workbench) ([]model.PatientID, *store.Bitset, error) {
	bits, err := wb.Query(query.Has{Pred: query.TypeIs(model.TypeDiagnosis)})
	if err != nil {
		return nil, nil, fmt.Errorf("priming indicator cohort: %w", err)
	}
	ids, err := wb.Engine.IDsOf(bits.FirstN(4096))
	if err != nil {
		return nil, nil, fmt.Errorf("priming timeline pool: %w", err)
	}
	if len(ids) == 0 {
		return nil, nil, fmt.Errorf("no patients with diagnoses to fetch timelines for")
	}
	if _, err := wb.SaveCohort(analyticsCohort, sessionExprs[0]); err != nil {
		return nil, nil, fmt.Errorf("priming analytics cohort: %w", err)
	}
	return ids, bits, nil
}

// opClass indexes the five session operations.
const (
	opQuery = iota
	opTimeline
	opIndicators
	opRefine
	opAnalytics
	numClasses
)

var classNames = [numClasses]string{"query", "timeline", "indicators", "refine", "analytics"}

// sessionExprs is the rotating cohort workload — index-friendly,
// scan-forcing and demographic shapes, so shard servers see the same
// operation mix the paper's workbench issues.
var sessionExprs = []query.Expr{
	query.Has{Pred: query.AllOf{
		query.TypeIs(model.TypeDiagnosis), query.MustCode("", `T90|E11(\..*)?`)}},
	query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
	query.And{
		query.SexIs(model.SexFemale),
		query.Has{Pred: query.TypeIs(model.TypeMedication)},
	},
}

// tally counts one op class's operations and failures; Summary is the run.
type tally struct {
	Ops    int `json:"ops"`
	Errors int `json:"errors"`
}

type Summary struct {
	Classes map[string]tally `json:"classes"`
	Total   tally            `json:"total"`
}

func run(wb *core.Workbench, ids []model.PatientID, cohortBits *store.Bitset, workers int, d time.Duration) *Summary {
	counts := make([][numClasses]tally, workers) // one row per worker, summed after the run
	deadline := time.Now().Add(d)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(1 + int64(w)))
			for i := 0; time.Now().Before(deadline); i++ {
				class := mix[r.Intn(len(mix))]
				counts[w][class].Ops++
				if err := doOp(wb, class, r, ids, cohortBits, fmt.Sprintf("lg-%d-%d", w, i)); err != nil {
					counts[w][class].Errors++
				}
			}
		}(w)
	}
	wg.Wait()
	s := &Summary{Classes: map[string]tally{}}
	for c, name := range classNames {
		var t tally
		for w := range counts {
			t.Ops += counts[w][c].Ops
			t.Errors += counts[w][c].Errors
		}
		s.Classes[name] = t
		s.Total.Ops += t.Ops
		s.Total.Errors += t.Errors
	}
	return s
}

// mix weights the classes: cohort queries lead, then timelines, with
// indicator aggregations, full refine sessions (save → narrow ×3 →
// compare) and cohort analytics (distributed rule mining and episode
// tallies) rounding out a workbench session's rhythm.
var mix = [...]int{opQuery, opQuery, opQuery, opTimeline, opTimeline, opIndicators, opRefine, opRefine, opAnalytics}

func doOp(wb *core.Workbench, class int, r *rand.Rand, ids []model.PatientID, cohortBits *store.Bitset, name string) error {
	var err error
	switch class {
	case opQuery:
		_, err = wb.Query(sessionExprs[r.Intn(len(sessionExprs))])
	case opTimeline:
		_, err = wb.History(ids[r.Intn(len(ids))])
	case opRefine:
		err = doRefineSession(wb, name)
	case opAnalytics:
		if r.Intn(2) == 0 {
			_, _, _, err = wb.MineRules(analyticsCohort,
				engine.MineParams{System: "ICPC2", Chapter: true}, mining.Options{})
		} else {
			_, _, _, err = wb.Episodes(analyticsCohort, 90*model.Day)
		}
	default:
		_, err = wb.Indicators(cohortBits)
	}
	return err
}

// refineNarrowers are applied one at a time on top of the session's base
// expression — each step is base ∧ (narrowers so far), which the engine
// recognizes and answers from the previously saved cohort plus the new
// conjunct only.
var refineNarrowers = []query.Expr{
	query.SexIs(model.SexFemale),
	query.Has{Pred: query.TypeIs(model.TypeMedication)},
	query.Has{Pred: query.MustCode("", `K8.`), MinCount: 2},
}

// doRefineSession runs one full explore loop under a session-unique name:
// save a base cohort, narrow it three times (each refinement seeded by
// the previous save), compare first against last, then drop the
// session's cohorts.
func doRefineSession(wb *core.Workbench, name string) error {
	names := []string{name + "-base"}
	defer func() {
		for _, n := range names {
			wb.DropCohort(n)
		}
	}()
	base := query.Expr(sessionExprs[0])
	if _, err := wb.SaveCohort(names[0], base); err != nil {
		return err
	}
	conj := []query.Expr{base}
	for j, n := range refineNarrowers {
		conj = append(conj, n)
		step := fmt.Sprintf("%s-n%d", name, j)
		names = append(names, step)
		if _, _, err := wb.RefineCohort(step, query.And(append([]query.Expr(nil), conj...))); err != nil {
			return err
		}
	}
	_, err := wb.CompareCohorts(names[0], names[len(names)-1])
	return err
}
