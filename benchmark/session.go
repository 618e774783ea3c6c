package main

// The analyst's loop as HTTP requests against webapp.Server.ServeHTTP
// with an httptest.ResponseRecorder: no browser-side socket, while the
// program's own RPC sockets (session-remote) are real. One session is 19
// requests in 8 steps; the client is closed-loop with one goroutine — the
// analyst waits for each reply before the next click.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"time"

	"pastas/internal/query"
	"pastas/internal/store"
)

// pw is the sample deployment's password, sent as the query parameter
// the shipped webapp.DefaultConfig expects.
var pw = "pw=" + url.QueryEscape("tromsø")

// recorder collects per-class latency samples (milliseconds) and the
// failure count of one phase.
type recorder struct {
	samples   map[string][]float64
	attempted int
	failed    int
	failures  []string // first few, for the report
	busy      time.Duration
	modes     map[string]int     // refinement modes seen
	sums      map[string]float64 // plain accumulators (patients ingested, …)
}

func newRecorder() *recorder {
	return &recorder{samples: map[string][]float64{}, modes: map[string]int{}, sums: map[string]float64{}}
}

func (r *recorder) add(class string, d time.Duration) {
	r.samples[class] = append(r.samples[class], float64(d.Nanoseconds())/1e6)
}

// op counts one operation timed outside the HTTP driver.
func (r *recorder) op(class string, d time.Duration) {
	r.attempted++
	r.busy += d
	r.add(class, d)
}

func (r *recorder) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// checker holds the run's correctness state: every count must equal the
// first count seen for that document at that store generation, one
// refinement in ten is re-evaluated by the repo's oracle, and every count
// feeds the answers digest in order.
type checker struct {
	gen     uint64
	first   map[string]int
	digest  uint64
	oracle  *store.Store // nil when no local store mirrors the population
	refines int
}

func newChecker(oracle *store.Store) *checker {
	return &checker{first: map[string]int{}, digest: 14695981039346656037, oracle: oracle}
}

// note records one answer; it reports false when the document answered
// differently before at this generation.
func (c *checker) note(doc []byte, count int) bool {
	v := uint64(count)
	for i := 0; i < 8; i++ {
		c.digest = (c.digest ^ (v & 0xff)) * 1099511628211
		v >>= 8
	}
	key := fmt.Sprintf("%d|%s", c.gen, doc)
	if prev, ok := c.first[key]; ok {
		return prev == count
	}
	c.first[key] = count
	return true
}

// oracleCount evaluates a spec document with query.EvalIndexed.
func (c *checker) oracleCount(doc []byte) (int, error) {
	spec, err := query.ParseSpec(doc)
	if err != nil {
		return 0, err
	}
	expr, err := spec.Compile()
	if err != nil {
		return 0, err
	}
	bits, err := query.EvalIndexed(c.oracle, expr)
	if err != nil {
		return 0, err
	}
	return bits.Count(), nil
}

// spanSink receives one span per timed request when tracing is on.
type spanSink func(name string, op int, start time.Time, d time.Duration)

// driver sends requests to the handler under test and times ServeHTTP
// alone: building the request and parsing the reply are the client's
// work, not the server's.
type driver struct {
	h    http.Handler
	rec  *recorder
	chk  *checker
	span spanSink // nil = untraced
	op   int      // running operation id, for spans
}

// request builds one request; a nil body means none.
func request(method, target string, body []byte) *http.Request {
	if body == nil {
		return httptest.NewRequest(method, target, nil)
	}
	return httptest.NewRequest(method, target, bytes.NewReader(body))
}

func (d *driver) do(class, method, target string, body []byte) (*httptest.ResponseRecorder, time.Duration) {
	req := request(method, target, body)
	w := httptest.NewRecorder()
	t0 := time.Now()
	d.h.ServeHTTP(w, req)
	dur := time.Since(t0)
	d.op++
	if d.span != nil {
		d.span(class, d.op, t0, dur)
	}
	d.rec.attempted++
	d.rec.busy += dur
	if w.Code < 200 || w.Code > 299 {
		d.rec.fail("%s %s: status %d: %.200s", method, target, w.Code, w.Body.String())
	}
	return w, dur
}

// countReply is the part of a query / save / refine reply the client reads.
type countReply struct {
	Count  int      `json:"count"`
	Sample []uint64 `json:"sample"`
	Cohort struct {
		Count int `json:"count"`
	} `json:"cohort"`
	Refinement struct {
		Mode string `json:"mode"`
	} `json:"refinement"`
}

func (d *driver) decode(w *httptest.ResponseRecorder, what string) (countReply, bool) {
	var out countReply
	if w.Code < 200 || w.Code > 299 {
		return out, false // already counted as failed
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		d.rec.fail("%s: bad reply: %v", what, err)
		return out, false
	}
	return out, true
}

// queryCount posts one cohort count and checks it against the memo.
func (d *driver) queryCount(doc []byte) (countReply, time.Duration) {
	w, dur := d.do("query", "POST", "/api/cohorts/query?"+pw, doc)
	out, ok := d.decode(w, "query")
	if ok && !d.chk.note(doc, out.Count) {
		d.rec.fail("query %s: count %d differs from the first answer at generation %d", doc, out.Count, d.chk.gen)
	}
	return out, dur
}

// cohortBody is the body of POST /api/cohorts and /api/cohorts/refine.
func cohortBody(name string, spec []byte) []byte {
	return []byte(`{"name":"` + name + `","spec":` + string(spec) + `}`)
}

// chainNames are the session-unique names of a base cohort and its three
// refinements.
func chainNames(prefix string) (names [4]string) {
	for k := range names {
		names[k] = fmt.Sprintf("%s-%d", prefix, k)
	}
	return names
}

// saveBase materializes the chain's base cohort.
func (d *driver) saveBase(name string, doc []byte) time.Duration {
	w, dur := d.do("save", "POST", "/api/cohorts?"+pw, cohortBody(name, doc))
	d.rec.add("save", dur)
	if out, ok := d.decode(w, "save"); ok && !d.chk.note(doc, out.Cohort.Count) {
		d.rec.fail("save %s: count %d differs from the first answer", doc, out.Cohort.Count)
	}
	return dur
}

// refineSteps refines the saved base three times (narrow, widen, exclude),
// each step saved under a new name and seeded by the previous one, and
// returns the three requests' total time.
func (d *driver) refineSteps(names [4]string, chain [4][]byte) time.Duration {
	var total time.Duration
	for k := 1; k < len(chain); k++ {
		w, dur := d.do("refine", "POST", "/api/cohorts/refine?"+pw, cohortBody(names[k], chain[k]))
		total += dur
		d.rec.add("refine", dur)
		out, ok := d.decode(w, "refine")
		if !ok {
			continue
		}
		d.rec.modes[out.Refinement.Mode]++
		if !d.chk.note(chain[k], out.Cohort.Count) {
			d.rec.fail("refine %s: count %d differs from the first answer", chain[k], out.Cohort.Count)
		}
		// One refinement in ten is re-evaluated from scratch by the
		// oracle, untimed. (Re-asking the engine would only read back the
		// bitset the refinement itself put in the result cache.)
		d.chk.refines++
		if d.chk.oracle != nil && d.chk.refines%10 == 0 {
			want, err := d.chk.oracleCount(chain[k])
			if err != nil || want != out.Cohort.Count {
				d.rec.fail("refine %s: count %d, oracle %d (%v)", chain[k], out.Cohort.Count, want, err)
			}
		}
	}
	return total
}

func (d *driver) drop(names []string) time.Duration {
	var total time.Duration
	for _, n := range names {
		_, dur := d.do("drop", "DELETE", "/api/cohorts/"+n+"?"+pw, nil)
		total += dur
	}
	return total
}

func (d *driver) timeline(id uint64) time.Duration {
	w, dur := d.do("timeline", "GET", fmt.Sprintf("/timeline?patient=%d&%s", id, pw), nil)
	d.rec.add("timeline", dur)
	if w.Code == 200 && !bytes.Contains(w.Body.Bytes(), []byte("<svg")) {
		d.rec.fail("timeline %d: no drawing in the reply", id)
	}
	return dur
}

// session runs session i: query×3 → save → refine×3 → characterise →
// analytics → timeline×2 → cohort view → drop. Save, cohort view and drop
// count toward the session time only.
func (d *driver) session(in *sessionInputs, i int) error {
	sp, err := in.plan(i)
	if err != nil {
		return err
	}
	var total time.Duration
	var sample []uint64
	for _, qi := range sp.Queries {
		out, dur := d.queryCount(in.pool.specs[qi].JSON)
		d.rec.add("query", dur)
		total += dur
		sample = append(sample, out.Sample...)
	}

	names := chainNames(fmt.Sprintf("s%d", i))
	total += d.saveBase(names[0], sp.Chain[0])
	total += d.refineSteps(names, sp.Chain)
	last := names[len(names)-1]

	// Characterise: profile + compare first-vs-last + indicators, timed as
	// one step.
	var step time.Duration
	_, dur := d.do("characterise", "GET", "/api/cohorts/"+last+"?"+pw, nil)
	step += dur
	_, dur = d.do("characterise", "GET", "/api/cohorts/compare?a="+names[0]+"&b="+last+"&"+pw, nil)
	step += dur
	_, dur = d.do("characterise", "POST", "/api/indicators?"+pw, sp.Chain[3])
	step += dur
	d.rec.add("characterise", step)
	total += step

	// Analytics: mine + episodes on the refined cohort, timed as one step
	// so the two kinds' different costs never straddle a median.
	_, dur = d.do("analytics", "POST", "/api/analytics/mine?"+pw,
		[]byte(`{"cohort":"`+last+`","system":"ICPC2","chapter":true,"min_count":5,"top":20}`))
	step = dur
	_, dur = d.do("analytics", "POST", "/api/analytics/episodes?"+pw, []byte(`{"cohort":"`+last+`"}`))
	step += dur
	d.rec.add("analytics", step)
	total += step

	for _, p := range sp.TimelinePick {
		id := uint64(1) // every fixture has patient 1
		if len(sample) > 0 {
			id = sample[p%uint64(len(sample))]
		}
		total += d.timeline(id)
	}

	_, dur = d.do("view", "GET", "/cohort-view?rows=50&pattern="+url.QueryEscape(sp.ViewPattern)+"&"+pw, nil)
	d.rec.add("view", dur)
	total += dur
	dur = d.drop(names[:])
	d.rec.add("drop", dur)
	total += dur

	d.rec.add("session", total)
	return nil
}
