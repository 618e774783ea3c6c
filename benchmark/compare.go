package main

// --compare A.jsonl B.jsonl: two sets of runs (each file holds the reports
// --report appended, one per line) compared metric by metric under the
// bounds BENCHMARK.json fixes. It is what shows that two sets of runs of
// the same code agree; it does not replace cmd/benchdiff.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []boundedMetric `json:"end_to_end"`
}

type boundedMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// exactCounts are the per-layer metrics that must repeat exactly for a
// workload and seed (store.compactions_count is exempt: background
// compaction is asynchronous).
var exactCounts = []string{
	"engine.result_cache_hit_ratio", "engine.backend_calls_per_op", "engine.remote_bytes_per_op",
	"engine.refine_seeded_ratio", "engine.wire_plan_bytes", "engine.wire_mask_bytes",
}

func readReports(path string) ([]report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rep report
		if err := json.Unmarshal(sc.Bytes(), &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, rep)
	}
	return out, sc.Err()
}

// spreadOf is the distance between the first and third quartile as a share
// of the median (with fewer than four values: the range).
func spreadOf(values []float64) float64 {
	v := append([]float64(nil), values...)
	m := median(v)
	if m == 0 || len(v) < 2 {
		return 0
	}
	if len(v) < 4 {
		return (v[len(v)-1] - v[0]) / m
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / m
}

func metricValues(reps []report, workload, name string, trace bool) []float64 {
	var out []float64
	for _, r := range reps {
		if r.Workload == workload && r.Trace == trace {
			if m, ok := r.Metrics[name]; ok {
				out = append(out, m.Value)
			}
		}
	}
	return out
}

func compareReports(pathA, pathB string, w io.Writer) int {
	a, b, bf, err := loadComparison(pathA, pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: compare:", err)
		return 2
	}
	return compareSets(a, b, bf, w)
}

// loadComparison reads the two report files and the bounds, which live in
// BENCHMARK.json at the root of the checkout the comparison runs from.
func loadComparison(pathA, pathB string) (a, b []report, bf benchmarkFile, err error) {
	if a, err = readReports(pathA); err != nil {
		return
	}
	if b, err = readReports(pathB); err != nil {
		return
	}
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return
	}
	err = json.Unmarshal(data, &bf)
	return
}

func compareSets(a, b []report, bf benchmarkFile, w io.Writer) int {
	bad := 0
	all := append(append([]report(nil), a...), b...)
	workloads := map[string]bool{}
	for _, r := range all {
		workloads[r.Workload] = true
	}
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "%-15s %-16s %12s %12s %8s %7s %7s  %s\n", "workload", "metric", "A median", "B median", "B/A", "bound", "spread", "verdict")
	for _, wl := range names {
		for _, m := range bf.EndToEnd {
			va, vb := metricValues(a, wl, m.Name, false), metricValues(b, wl, m.Name, false)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma // the ratio's base is A's median
			if m.Better == "higher" {
				worse = (ma - mb) / ma
			}
			spread := max(spreadOf(va), spreadOf(vb))
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict = "worse"
				bad++
			case spread > m.Bound && m.Name != "setup_s":
				verdict = "unresolved" // the runs disagree among themselves by more than the bound
			}
			fmt.Fprintf(w, "%-15s %-16s %12.4f %12.4f %8.3f %6.0f%% %6.1f%%  %s\n",
				wl, m.Name, ma, mb, mb/ma, 100*m.Bound, 100*spread, verdict)
		}
	}

	// failed_ratio may never rise, and every run must have been correct.
	failed := func(reps []report) (n, of int) {
		for _, r := range reps {
			n, of = n+r.Failed, of+r.Attempted
		}
		return n, of
	}
	fa, ofa := failed(a)
	fb, ofb := failed(b)
	fmt.Fprintf(w, "failed ops: A %d of %d, B %d of %d\n", fa, ofa, fb, ofb)
	if ofa > 0 && ofb > 0 && float64(fb)/float64(ofb) > float64(fa)/float64(ofa) {
		fmt.Fprintln(w, "failed_ratio rose: worse")
		bad++
	}

	// session-local and session-remote must give the same answers at the
	// same seed, in either file.
	digests := map[uint64]map[string]string{}
	for _, r := range all {
		d, _ := r.Info["answers_digest"].(string)
		if d == "" || (r.Workload != "session-local" && r.Workload != "session-remote") {
			continue
		}
		if digests[r.Seed] == nil {
			digests[r.Seed] = map[string]string{}
		}
		if prev, ok := digests[r.Seed][r.Workload]; ok && prev != d {
			fmt.Fprintf(w, "answers_digest: %s seed %d printed %s and %s\n", r.Workload, r.Seed, prev, d)
			bad++
		}
		digests[r.Seed][r.Workload] = d
	}
	for seed, byWorkload := range digests {
		l, r := byWorkload["session-local"], byWorkload["session-remote"]
		if l != "" && r != "" && l != r {
			fmt.Fprintf(w, "answers_digest: seed %d: session-local %s, session-remote %s\n", seed, l, r)
			bad++
		}
	}

	// Count metrics of traced runs must agree exactly per workload and seed.
	type key struct {
		workload string
		seed     uint64
		metric   string
	}
	seen := map[key]float64{}
	for _, r := range all {
		if !r.Trace {
			continue
		}
		for _, name := range exactCounts {
			k := key{r.Workload, r.Seed, name}
			v := r.Metrics[name].Value
			if prev, ok := seen[k]; ok && prev != v {
				fmt.Fprintf(w, "count metric %s: %s seed %d read %v and %v\n", name, r.Workload, r.Seed, prev, v)
				bad++
			}
			seen[k] = v
		}
	}
	if bad > 0 {
		fmt.Fprintf(w, "%d disagreements\n", bad)
		return 1
	}
	fmt.Fprintln(w, "the two sets agree within the bounds")
	return 0
}
