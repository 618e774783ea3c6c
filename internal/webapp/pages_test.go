package webapp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"html/template"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/synth"
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

// referenceCohortView is the page as the handler built it when it shipped
// the whole cohort: every matching history materialized, the time axis read
// off their collection, the first rows drawn.
func referenceCohortView(t *testing.T, wb *core.Workbench, pattern string, rows int) []byte {
	t.Helper()
	bits, err := wb.Query(query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", pattern)}})
	if err != nil {
		t.Fatal(err)
	}
	col, err := wb.Histories(bits)
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Appendf(nil, "<p>%d of %d patients match <code>%s</code>; first %d drawn.</p>",
		col.Len(), wb.Patients(), template.HTMLEscapeString(pattern), min(rows, col.Len()))
	body = render.AppendTimeline(body, col, render.TimelineOptions{MaxRows: rows, Tooltips: true, Legend: true})
	rec := httptest.NewRecorder()
	writePage(rec, "Cohort view — "+pattern, body)
	return rec.Body.Bytes()
}

// fetchCounter counts the histories a backend is asked to materialize.
type fetchCounter struct {
	engine.ShardBackend
	fetched *atomic.Int64
}

func (b fetchCounter) FetchHistories(ctx context.Context, ordinals []int) ([]*model.History, error) {
	b.fetched.Add(int64(len(ordinals)))
	return b.ShardBackend.FetchHistories(ctx, ordinals)
}

// TestCohortViewShipsWhatItDraws: the view fetches the rows it draws and a
// span tally, and its page is, byte for byte, the page drawn from every
// matching history — for rows of 5, 50 and 500 over cohorts of nobody, one
// patient, fewer than rows and more than rows, the last of which holds, in
// its final ordinal, the patient whose history is the widest by decades: a
// time axis read off the fetched head alone gets every x coordinate wrong.
// Over counting backends, a view of a cohort past 500 patients fetches at
// most rows histories.
func TestCohortViewShipsWhatItDraws(t *testing.T) {
	base, err := core.Synthesize(synth.DefaultConfig(900))
	if err != nil {
		t.Fatal(err)
	}
	hs := append([]*model.History(nil), base.Store.Collection().Histories()...)
	diagnosis := func(id uint64, value string, at model.Time) model.Entry {
		return model.Entry{ID: 1<<50 + id, Kind: model.Point, Start: at, End: at, Type: model.TypeDiagnosis,
			Source: model.SourceGP, Code: model.Code{System: "ICPC2", Value: value}}
	}
	wide := model.NewHistory(model.Patient{ID: 1 << 40, Birth: model.Date(1900, 1, 1), Sex: model.SexFemale})
	wide.Add(diagnosis(1, "T90", model.Date(1931, 5, 1)))
	wide.Add(diagnosis(2, "Y99", model.Date(2044, 2, 1)))
	hs = append(hs, wide)
	wb := core.FromCollection(model.MustCollection(hs...), base.Window)
	s := NewServer(wb, Config{})

	var fetched atomic.Int64
	var counting []engine.ShardBackend
	for i, m := range wb.Engine.BackendInfo() {
		counting = append(counting, fetchCounter{engine.NewLocalBackend(wb.Store.Pin().Sub(m.Offset, m.Offset+m.Patients), i), &fetched})
	}
	eng, err := engine.NewFromBackends(counting, engine.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	counted := NewServer(&core.Workbench{Engine: eng, Window: wb.Window}, Config{})

	for pattern, matches := range map[string]func(n int) bool{
		"ZZZ99":   func(n int) bool { return n == 0 },
		"Y99":     func(n int) bool { return n == 1 },
		"T90|Y99": func(n int) bool { return n > 5 && n < 50 },
		".*":      func(n int) bool { return n > 500 },
	} {
		bits, err := wb.Query(query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), query.MustCode("", pattern)}})
		if err != nil {
			t.Fatal(err)
		}
		if !matches(bits.Count()) {
			t.Fatalf("pattern %s matches %d patients: the fixture no longer has the cohort size this row is for", pattern, bits.Count())
		}
		if pattern != "ZZZ99" && !bits.Get(len(hs)-1) {
			t.Fatalf("pattern %s misses the widest history", pattern)
		}
		for _, rows := range []int{5, 50, 500} {
			path := fmt.Sprintf("/cohort-view?rows=%d&pattern=%s", rows, url.QueryEscape(pattern))
			want := sha256.Sum256(referenceCohortView(t, wb, pattern, rows))
			for name, srv := range map[string]*Server{"local": s, "counting backends": counted} {
				fetched.Store(0)
				rec := get(t, srv, path)
				if rec.Code != http.StatusOK {
					t.Fatalf("%s (%s) = %d: %s", path, name, rec.Code, rec.Body)
				}
				if got := sha256.Sum256(rec.Body.Bytes()); got != want {
					t.Errorf("%s (%s): %d bytes, not the page drawn from the whole cohort", path, name, rec.Body.Len())
				}
				if n := fetched.Load(); srv == counted && n != int64(min(rows, bits.Count())) {
					t.Errorf("%s: the view of %d patients fetched %d histories to draw %d rows", path, bits.Count(), n, rows)
				}
			}
		}
	}
}
