// Command benchdiff turns `go test -bench` output into a committed
// trajectory file and gates regressions against it. Two modes:
//
//	benchdiff -bench bench.txt -write BENCH_PR10.json
//	benchdiff -bench bench.txt -baseline BENCH_PR10.json [-factor 2]
//
// The write mode captures every benchmark result line as {name, ns/op}
// JSON — the artifact each PR commits. The diff mode compares a fresh run
// against the committed baseline and exits non-zero when any named
// E-benchmark (the paper reproductions, BenchmarkE*) got more than
// -factor times slower, or vanished from the fresh run entirely. Sub-
// -floor baselines are reported but never gated: at -benchtime 1x a
// microsecond-scale result is scheduler noise, not a trajectory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Result is one benchmark measurement; the committed BENCH files are a
// JSON array of these, sorted by name. Metrics carries any custom
// b.ReportMetric values the benchmark emitted (E13's failover latency
// percentiles, for example) — recorded for the trajectory, not gated.
type Result struct {
	Name    string             `json:"name"`
	NsPerOp float64            `json:"ns_per_op"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// benchLine matches a result line: name, iteration count, ns/op, and
// whatever custom metric pairs follow. The -GOMAXPROCS suffix is
// stripped so runs from machines with different core counts compare by
// benchmark identity.
var (
	benchLine  = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(\d+(?:\.\d+)?) ns/op(.*)$`)
	metricPair = regexp.MustCompile(`(\d+(?:\.\d+)?(?:e[+-]?\d+)?) (\S+)`)
)

func parseBench(path string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]Result)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return nil, fmt.Errorf("benchdiff: %s: bad ns/op in %q: %w", path, sc.Text(), err)
		}
		res := Result{Name: m[1], NsPerOp: ns}
		for _, pair := range metricPair.FindAllStringSubmatch(m[4], -1) {
			v, err := strconv.ParseFloat(pair[1], 64)
			if err != nil {
				continue
			}
			if res.Metrics == nil {
				res.Metrics = make(map[string]float64)
			}
			res.Metrics[pair[2]] = v
		}
		out[m[1]] = res
	}
	return out, sc.Err()
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchdiff: ")

	bench := flag.String("bench", "", "go test -bench output to parse (required)")
	write := flag.String("write", "", "write parsed results as JSON to this path and exit")
	baseline := flag.String("baseline", "", "committed BENCH JSON to diff against")
	factor := flag.Float64("factor", 2, "fail when fresh ns/op exceeds baseline × factor")
	floor := flag.Duration("floor", 100*time.Microsecond, "ignore baselines faster than this (single-iteration noise)")
	gate := flag.String("gate", "^BenchmarkE", "regexp of benchmark names the factor gate applies to")
	flag.Parse()

	if *bench == "" || (*write == "") == (*baseline == "") {
		log.Fatal("usage: benchdiff -bench out.txt (-write file.json | -baseline file.json)")
	}
	fresh, err := parseBench(*bench)
	if err != nil {
		log.Fatal(err)
	}
	if len(fresh) == 0 {
		log.Fatalf("no benchmark result lines in %s", *bench)
	}

	if *write != "" {
		results := make([]Result, 0, len(fresh))
		for _, res := range fresh {
			results = append(results, res)
		}
		sort.Slice(results, func(i, j int) bool { return results[i].Name < results[j].Name })
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			log.Fatal(err)
		}
		if err := os.WriteFile(*write, append(data, '\n'), 0o644); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d results to %s\n", len(results), *write)
		return
	}

	data, err := os.ReadFile(*baseline)
	if err != nil {
		log.Fatal(err)
	}
	var base []Result
	if err := json.Unmarshal(data, &base); err != nil {
		log.Fatalf("%s: %v", *baseline, err)
	}
	gateRe, err := regexp.Compile(*gate)
	if err != nil {
		log.Fatalf("-gate: %v", err)
	}

	var failures []string
	for _, b := range base {
		if !gateRe.MatchString(b.Name) {
			continue
		}
		res, ok := fresh[b.Name]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: in baseline but missing from fresh run", b.Name))
			continue
		}
		ns := res.NsPerOp
		ratio := ns / b.NsPerOp
		verdict := "ok"
		switch {
		case b.NsPerOp < float64(floor.Nanoseconds()):
			verdict = "skipped (below floor)"
		case ratio > *factor:
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %.0f ns/op vs baseline %.0f (%.2fx > %.2gx gate)",
				b.Name, ns, b.NsPerOp, ratio, *factor))
		}
		fmt.Printf("  %-60s %12.0f -> %12.0f ns/op  %5.2fx  %s\n", b.Name, b.NsPerOp, ns, ratio, verdict)
	}
	for name := range fresh {
		if gateRe.MatchString(name) && !inBaseline(base, name) {
			fmt.Printf("  %-60s new benchmark (no baseline)\n", name)
		}
	}
	if len(failures) > 0 {
		fmt.Println(strings.Repeat("-", 40))
		for _, f := range failures {
			fmt.Println("FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Println("bench diff clean")
}

func inBaseline(base []Result, name string) bool {
	for _, b := range base {
		if b.Name == name {
			return true
		}
	}
	return false
}
