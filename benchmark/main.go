// Command benchmark is the repo's benchmark: the analyst's loop — counts →
// explore → refine → characterise — driven over HTTP, on four workloads,
// with a per-layer ladder measured from outside the program.
//
// One invocation runs one workload and prints, as the last line of its
// standard output, one JSON object with the workload's metrics:
//
//	bash benchmark/run.sh --workload session-local --seed 1 --seconds 12 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones BENCHMARK.json
// bounds; with --trace 1 a separate traced pass replays fixed operation
// counts and prints the per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// processStart is as close to process start as Go code gets; setup_s
// counts from here to the first timed operation.
var processStart = time.Now()

// metricDef names one metric and its unit, in the order BENCHMARK.json
// lists them.
type metricDef struct{ Name, Unit string }

// endToEnd are the metrics a user of the system would see. Every workload
// reports every one: a "session" is one pass of the workload's script (19
// requests on the session workloads, one query+refine pair on scan-1m,
// one ingest round on ingest-mixed).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"session_p50_ms", "ms"},
	{"session_p90_ms", "ms"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"refine_p50_ms", "ms"},
	{"refine_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"rss_peak_mb", "MB"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the full document of one run: what the contract line holds
// plus the environment, sample counts and everything printed for
// information only (p99s, the answers digest, the budget table).
type report struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Env       map[string]any         `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
	Info      map[string]any         `json:"info"`
	Claim     any                    `json:"claim"` // always null: the benchmark claims no gain
}

// run carries one invocation's state through set-up, the measured phase
// and teardown.
type run struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	ph       phases
	values   map[string]float64 // metric name → value
	info     map[string]any
	rec      *recorder // the measured phase's samples
	tr       *tracer   // the traced pass's spans
	problems []string
}

func (r *run) problem(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// deadline is when the timed phase stops starting new sessions.
func (r *run) deadline(from time.Time) time.Time {
	return from.Add(time.Duration(r.seconds * float64(time.Second)))
}

// workload is one of the four benchmark workloads.
type workload interface {
	// setup builds fixtures, topology and inputs and runs the warm-up;
	// it returns when the next operation would be the first timed one.
	setup(r *run) error
	// measure runs the untraced timed phase for r.seconds.
	measure(r *run) error
	// traced runs the fixed-count traced pass and fills the per-layer
	// metrics.
	traced(r *run) error
	// teardown stops everything setup started and waits for it.
	teardown() error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "session-local":
		return &sessionWorkload{}, nil
	case "session-remote":
		return &sessionWorkload{remote: true}, nil
	case "scan-1m":
		return &scanWorkload{}, nil
	case "ingest-mixed":
		return &ingestWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want session-local, session-remote, scan-1m or ingest-mixed)", name)
}

func main() { os.Exit(realMain()) }

func realMain() int {
	var (
		name    = flag.String("workload", "", "session-local | session-remote | scan-1m | ingest-mixed")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs (the fixture seed is fixed)")
		seconds = flag.Float64("seconds", 12, "length of the timed phase")
		trace   = flag.Int("trace", 0, "1 = run the traced pass and print the per-layer metrics")
		out     = flag.String("report", "", "append the run's full report to this file, one JSON document per line")
		spans   = flag.String("spans", "", "with --trace 1, write the recorded spans to this file as JSON")
		compare = flag.Bool("compare", false, "compare two report files: --compare A.jsonl B.jsonl")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: --compare A.jsonl B.jsonl")
			return 2
		}
		return compareReports(flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	w, err := newWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	goroutines := runtime.NumGoroutine()
	r := &run{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace != 0,
		ph: phases{}, values: map[string]float64{}, info: map[string]any{},
	}
	err = w.setup(r)
	if err == nil {
		r.values["setup_s"] = time.Since(processStart).Seconds()
		if r.trace {
			err = w.traced(r)
		} else {
			err = w.measure(r)
		}
	}
	if terr := w.teardown(); terr != nil {
		r.problem("teardown: %v", terr)
	}
	if leaked := waitGoroutines(goroutines, 5*time.Second); leaked > 0 {
		r.problem("teardown: %d goroutines started by the benchmark are still running", leaked)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *spans != "" && r.tr != nil {
		if err := r.tr.write(*spans); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	rep, err := r.finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := appendReport(*out, rep); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	rep.summarize(os.Stderr)
	line, err := json.Marshal(map[string]any{
		"correct": rep.Correct, "attempted": rep.Attempted, "failed": rep.Failed, "metrics": rep.Metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// waitGoroutines waits for the goroutine count to fall back to the
// baseline and returns how many are still above it when the wait ends.
func waitGoroutines(baseline int, limit time.Duration) int {
	stop := time.Now().Add(limit)
	for {
		n := runtime.NumGoroutine() - baseline
		if n <= 0 || time.Now().After(stop) {
			return max(n, 0)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// rssPeakMB reads the process's peak resident set (VmHWM) in MB.
func rssPeakMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// finish turns the recorded samples into the report.
func (r *run) finish() (*report, error) {
	rep := &report{
		Workload: r.workload, Seed: r.seed, Seconds: r.seconds, Trace: r.trace,
		Env: map[string]any{
			"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
			"go": runtime.Version(), "workers": fanOutWorkers,
		},
		Metrics: map[string]metricValue{},
		Info:    r.info,
	}
	rss, err := rssPeakMB()
	if err != nil {
		return nil, err
	}
	r.values["rss_peak_mb"] = rss
	if r.rec != nil {
		rep.Attempted, rep.Failed = r.rec.attempted, r.rec.failed
		for _, f := range r.rec.failures {
			r.problem("failed op: %s", f)
		}
		if !r.trace {
			r.endToEndFromSamples()
		}
	}
	if rep.Attempted < 1 {
		return nil, fmt.Errorf("no operation was attempted")
	}
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok && !r.trace {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	r.info["setup_phases_s"] = map[string]float64(r.ph)
	r.info["setup_s"] = r.values["setup_s"]
	r.info["failed_ratio"] = float64(rep.Failed) / float64(rep.Attempted)
	rep.Problems = r.problems
	rep.Correct = rep.Failed == 0 && len(r.problems) == 0
	return rep, nil
}

// endToEndFromSamples computes the latency and throughput metrics of the
// timed phase. p99 is printed for information only.
func (r *run) endToEndFromSamples() {
	tails := map[string]float64{"session": 0.90, "query": 0.95, "refine": 0.90}
	counts := map[string]int{}
	var undersampled []string
	for _, class := range []string{"session", "query", "refine"} {
		s := r.rec.samples[class]
		counts[class] = len(s)
		q := tails[class]
		r.values[class+"_p50_ms"] = median(s)
		tail := fmt.Sprintf("%s_p%d_ms", class, int(q*100+0.5))
		r.values[tail] = quantile(s, q)
		if !tailSupported(len(s), q) {
			undersampled = append(undersampled, tail)
		}
		r.info[class+"_p99_ms"] = quantile(s, 0.99)
		r.info[class+"_highest_supported_percentile"] = highestSupported(len(s))
	}
	for class, s := range r.rec.samples {
		if _, ok := tails[class]; !ok {
			counts[class] = len(s)
			r.info[class+"_p50_ms"] = median(s)
		}
	}
	r.values["ops_per_s"] = float64(r.rec.attempted) / r.rec.busy.Seconds()
	r.info["samples"] = counts
	r.info["timed_busy_s"] = r.rec.busy.Seconds()
	if len(undersampled) > 0 {
		r.info["fewer_than_ten_samples_beyond"] = undersampled
	}
}

func appendReport(path string, rep *report) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summarize prints the run for a person, on standard error; standard
// output carries only the contract line.
func (rep *report) summarize(w *os.File) {
	fmt.Fprintf(w, "%s seed=%d trace=%v nproc=%v %v: attempted=%d failed=%d correct=%v\n",
		rep.Workload, rep.Seed, rep.Trace, rep.Env["nproc"], rep.Env["go"], rep.Attempted, rep.Failed, rep.Correct)
	defs := endToEnd
	if rep.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Fprintf(w, "  %-40s %14.4f %s\n", d.Name, rep.Metrics[d.Name].Value, d.Unit)
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	if t, ok := rep.Info["budget_table"].(string); ok {
		fmt.Fprint(w, t)
	}
	if d, ok := rep.Info["answers_digest"]; ok {
		fmt.Fprintf(w, "  answers_digest=%v\n", d)
	}
	fmt.Fprintln(w, "  claim=null")
}
