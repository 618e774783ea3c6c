package webapp

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
)

// TestPageGoldenBytes pins the HTML pages' bodies to what the parent of
// the append-style SVG writer answered (html/template around a Sprintf-ed
// drawing): the handlers now write head, drawing and tail straight to the
// ResponseWriter, and not one byte of a reply may differ.
func TestPageGoldenBytes(t *testing.T) {
	s, _ := testServer(t, 2000)
	for _, c := range []struct{ path, want string }{
		{"/cohort-view?pw=tromsø&rows=50&pattern=T90", "848d92a3cd7875d15700cbc1f74b79f8ba589ee95988e7ef107e3935f18cbc73"},
		{"/cohort-view?pw=tromsø&pattern=T90%7CE11(%5C..*)%3F&rows=10", "5da679cca32fd5831114be08eff87d9a478ca90d170c8d8cf393f35c692564f3"},
		// html/template spells '+' as &#43; in the title and heading.
		{"/cohort-view?pw=tromsø&pattern=T9%2B0", "ad61faee7061fecf95978ab0523774bc1d9238f6276a29210906107b95f68779"},
		{"/timeline?pw=tromsø&patient=1", "9533825217a0411c7c0dbdb97d374f33a3b7eefb972fb80e349665aa195d6ee5"},
		{"/?pw=tromsø", "c28a4d869e6d4ccc5d561b87da6a696286c72951368d7b3671c39fac534e2bf3"},
	} {
		rec := get(t, s, c.path)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s = %d: %s", c.path, rec.Code, rec.Body.String())
		}
		if ct := rec.Header().Get("Content-Type"); ct != "text/html; charset=utf-8" {
			t.Errorf("%s: Content-Type %q", c.path, ct)
		}
		sum := sha256.Sum256(rec.Body.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%s: %d bytes, sha256 %s, want %s", c.path, rec.Body.Len(), got, c.want)
		}
	}
}

// TestCohortViewEscapesPatternOnce: the pattern is analyst input shown in
// the title, the heading and the body; each must escape it exactly once.
func TestCohortViewEscapesPatternOnce(t *testing.T) {
	s, _ := testServer(t, 150)
	for _, c := range []struct{ query, shown string }{
		{"(%3FP%3Cx%3ET90)", "(?P&lt;x&gt;T90)"},
		{"T90%7C%26%22", "T90|&amp;&#34;"},
		{"T90%7C%27", "T90|&#39;"},
	} {
		rec := get(t, s, "/cohort-view?pw=tromsø&rows=5&pattern="+c.query)
		if rec.Code != http.StatusOK {
			t.Fatalf("pattern %s = %d: %s", c.query, rec.Code, rec.Body.String())
		}
		body := rec.Body.String()
		for _, want := range []string{
			"<title>Cohort view — " + c.shown + "</title>",
			"<h1>Cohort view — " + c.shown + "</h1>",
			"match <code>" + c.shown + "</code>",
		} {
			if !strings.Contains(body, want) {
				t.Errorf("pattern %s: page lacks %q in %.300q", c.query, want, body)
			}
		}
	}
}

// TestPageAllocationBudgets holds the two drawn pages to what a request may
// allocate — deterministic where a wall-clock bound would be a guess about
// the machine. With the fmt-based SVG writer and the drawing Sprintf-ed
// into a template value, the 50-row cohort view cost 101,115 allocations
// and 38 MB per request at this population, the patient page 2,046 and
// 852 KB; with MedicationBands' map, class slice and sort closure per row,
// 1,165; now 345 / 1.1 MB and 72 / 28 KB (384 / 1.7 MB and 76 / 34 KB
// under the race detector, hence the headroom).
func TestPageAllocationBudgets(t *testing.T) {
	s, _ := testServer(t, 5000)
	for _, c := range []struct {
		path          string
		allocs, bytes float64
	}{
		{"/cohort-view?pw=tromsø&rows=50&pattern=T90", 480, 2e6},
		{"/timeline?pw=tromsø&patient=1", 100, 50e3},
	} {
		req := httptest.NewRequest(http.MethodGet, c.path, nil)
		serve := func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s = %d", c.path, rec.Code)
			}
		}
		const runs = 5
		allocs := testing.AllocsPerRun(runs, serve) // one warm call first
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			serve()
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.0f allocations, %.0f bytes per request", c.path, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %.0f allocations and %.0f bytes per request, budget %.0f and %.0f",
				c.path, allocs, bytes, c.allocs, c.bytes)
		}
	}
}
