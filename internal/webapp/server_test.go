package webapp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"

	"pastas/internal/core"
	"pastas/internal/synth"
)

func testServer(t testing.TB, patients int) (*Server, *core.Workbench) {
	t.Helper()
	wb, err := core.Synthesize(synth.DefaultConfig(patients))
	if err != nil {
		t.Fatal(err)
	}
	return NewServer(wb, DefaultConfig()), wb
}

func get(t *testing.T, s *Server, path string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

func TestHealthOpen(t *testing.T) {
	s, wb := testServer(t, 20)
	rec := get(t, s, "/healthz")
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if int(body["patients"].(float64)) != wb.Patients() {
		t.Error("patient count wrong")
	}
}

func TestPasswordGate(t *testing.T) {
	s, _ := testServer(t, 10)
	if rec := get(t, s, "/api/patients"); rec.Code != http.StatusUnauthorized {
		t.Errorf("without password: %d", rec.Code)
	}
	if rec := get(t, s, "/api/patients?pw=wrong"); rec.Code != http.StatusUnauthorized {
		t.Errorf("wrong password: %d", rec.Code)
	}
	if rec := get(t, s, "/api/patients?pw=tromsø"); rec.Code != http.StatusOK {
		t.Errorf("right password: %d", rec.Code)
	}
	// Cookie path (cookie values are ASCII-only, so URL-escaped).
	req := httptest.NewRequest(http.MethodGet, "/api/patients", nil)
	req.AddCookie(&http.Cookie{Name: "pastas_pw", Value: url.QueryEscape("tromsø")})
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Errorf("cookie auth: %d", rec.Code)
	}
}

func TestOpenAccessWhenNoPassword(t *testing.T) {
	wb, err := core.Synthesize(synth.DefaultConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(wb, Config{})
	if rec := get(t, s, "/api/patients"); rec.Code != http.StatusOK {
		t.Errorf("open server rejected: %d", rec.Code)
	}
}

func TestPatientsEndpoint(t *testing.T) {
	s, _ := testServer(t, 30)
	rec := get(t, s, "/api/patients?pw=tromsø&limit=7")
	var body struct {
		Patients []uint64 `json:"patients"`
		Total    int      `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if len(body.Patients) != 7 || body.Total != 30 {
		t.Errorf("patients = %d, total = %d", len(body.Patients), body.Total)
	}
	if rec := get(t, s, "/api/patients?pw=tromsø&limit=zero"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad limit accepted: %d", rec.Code)
	}
}

func TestTimelineJSON(t *testing.T) {
	s, _ := testServer(t, 10)
	rec := get(t, s, "/api/timeline?pw=tromsø&patient=1")
	if rec.Code != http.StatusOK {
		t.Fatalf("timeline = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Patient uint64 `json:"patient"`
		Entries []struct {
			Kind  string `json:"kind"`
			Start string `json:"start"`
			Type  string `json:"type"`
		} `json:"entries"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Patient != 1 {
		t.Error("wrong patient")
	}
	for _, e := range body.Entries {
		if e.Start == "" || e.Kind == "" || e.Type == "" {
			t.Fatalf("malformed entry: %+v", e)
		}
	}

	if rec := get(t, s, "/api/timeline?pw=tromsø&patient=99999"); rec.Code != http.StatusNotFound {
		t.Errorf("missing patient: %d", rec.Code)
	}
	if rec := get(t, s, "/api/timeline?pw=tromsø&patient=abc"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad patient id: %d", rec.Code)
	}
}

func TestDetailsEndpoint(t *testing.T) {
	s, _ := testServer(t, 10)
	rec := get(t, s, "/api/details?pw=tromsø&patient=1&t=2010-06-01")
	if rec.Code != http.StatusOK {
		t.Fatalf("details = %d", rec.Code)
	}
	if rec := get(t, s, "/api/details?pw=tromsø&patient=1&t=junk"); rec.Code != http.StatusBadRequest {
		t.Errorf("bad time accepted: %d", rec.Code)
	}
}

func TestCohortEndpoint(t *testing.T) {
	s, wb := testServer(t, 200)
	spec := `{"op":"has","pattern":"T90|E11(\\..*)?","type":"diagnosis"}`
	req := httptest.NewRequest(http.MethodPost, "/api/cohorts/query?pw=tromsø", strings.NewReader(spec))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("cohort = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Count  int      `json:"count"`
		Sample []uint64 `json:"sample"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Count == 0 || len(body.Sample) == 0 {
		t.Error("empty diabetic cohort at n=200 is implausible")
	}
	if body.Count > wb.Patients() {
		t.Error("cohort bigger than population")
	}

	// Bad JSON and bad spec.
	for _, payload := range []string{"{broken", `{"op":"zzz"}`} {
		req := httptest.NewRequest(http.MethodPost, "/api/cohorts/query?pw=tromsø", strings.NewReader(payload))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("payload %q: %d", payload, rec.Code)
		}
	}
}

func TestTimelinePage(t *testing.T) {
	s, _ := testServer(t, 10)
	rec := get(t, s, "/timeline?pw=tromsø&patient=2")
	if rec.Code != http.StatusOK {
		t.Fatalf("page = %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"<svg", "Personal health timeline", "P0000002"} {
		if !strings.Contains(body, want) {
			t.Errorf("page missing %q", want)
		}
	}
}

func TestIndexPage(t *testing.T) {
	s, _ := testServer(t, 10)
	rec := get(t, s, "/?pw=tromsø")
	if rec.Code != http.StatusOK {
		t.Fatalf("index = %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "/timeline?patient=1") {
		t.Error("index missing timeline links")
	}
}

func TestIndicatorsEndpoint(t *testing.T) {
	s, _ := testServer(t, 150)
	// Whole population (empty body).
	req := httptest.NewRequest(http.MethodPost, "/api/indicators?pw=tromsø", strings.NewReader(""))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("indicators = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Indicators struct {
			Patients   int     `json:"Patients"`
			GPContacts float64 `json:"GPContacts"`
		} `json:"indicators"`
		Table string `json:"table"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Indicators.Patients != 150 || body.Indicators.GPContacts <= 0 {
		t.Errorf("indicators = %+v", body.Indicators)
	}
	if !strings.Contains(body.Table, "per 100 patient-years") {
		t.Error("table missing")
	}

	// Cohort-scoped.
	spec := `{"op":"has","pattern":"T90|E11(\\..*)?","type":"diagnosis"}`
	req = httptest.NewRequest(http.MethodPost, "/api/indicators?pw=tromsø", strings.NewReader(spec))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("scoped indicators = %d", rec.Code)
	}
	var scoped struct {
		Indicators struct {
			Patients int `json:"Patients"`
		} `json:"indicators"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &scoped); err != nil {
		t.Fatal(err)
	}
	if scoped.Indicators.Patients == 0 || scoped.Indicators.Patients >= 150 {
		t.Errorf("scoped patients = %d", scoped.Indicators.Patients)
	}

	// Bad spec.
	req = httptest.NewRequest(http.MethodPost, "/api/indicators?pw=tromsø", strings.NewReader("{bad"))
	rec = httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("bad spec = %d", rec.Code)
	}
}

func TestStatsEndpoint(t *testing.T) {
	s, wb := testServer(t, 200)
	if rec := get(t, s, "/api/stats"); rec.Code != http.StatusUnauthorized {
		t.Errorf("stats open without password: %d", rec.Code)
	}

	// Run a scan-bearing cohort query so per-shard timings accumulate,
	// then once more so the plan cache registers a hit.
	spec := `{"op":"has","pattern":"K8.","minCount":2}`
	for i := 0; i < 2; i++ {
		req := httptest.NewRequest(http.MethodPost, "/api/cohorts/query?pw=tromsø", strings.NewReader(spec))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("cohort = %d: %s", rec.Code, rec.Body.String())
		}
	}

	rec := get(t, s, "/api/stats?pw=tromsø")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Patients      int `json:"patients"`
		Entries       int `json:"entries"`
		DistinctCodes int `json:"distinct_codes"`
		BudgetMS      int `json:"budget_ms"`
		Shards        []struct {
			Shard    int     `json:"shard"`
			Patients int     `json:"patients"`
			Queries  uint64  `json:"queries"`
			TotalMS  float64 `json:"total_ms"`
		} `json:"shards"`
		Cache struct {
			Hits    uint64  `json:"hits"`
			Misses  uint64  `json:"misses"`
			HitRate float64 `json:"hit_rate"`
		} `json:"cache"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Patients != 200 || body.Entries == 0 || body.DistinctCodes == 0 {
		t.Errorf("summary = %+v", body)
	}
	if body.BudgetMS != 100 {
		t.Errorf("budget_ms = %d", body.BudgetMS)
	}
	if len(body.Shards) != wb.Engine.NumShards() {
		t.Fatalf("shards = %d, want %d", len(body.Shards), wb.Engine.NumShards())
	}
	covered, queries := 0, uint64(0)
	for _, sh := range body.Shards {
		covered += sh.Patients
		queries += sh.Queries
	}
	if covered != 200 {
		t.Errorf("shards cover %d of 200 patients", covered)
	}
	if queries == 0 {
		t.Error("no shard recorded the scan query")
	}
	if body.Cache.Hits == 0 {
		t.Errorf("repeat query did not hit the plan cache: %+v", body.Cache)
	}
}

// TestStatsSnapshotProvenance: a workbench reopened from a sharded
// snapshot reports the snapshot's format and layout in /api/stats, and a
// workbench built from sources reports null.
func TestStatsSnapshotProvenance(t *testing.T) {
	_, wb := testServer(t, 120)
	var buf bytes.Buffer
	info, err := wb.Save(&buf, core.SnapshotOptions{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	reopened, err := core.Open(&buf, wb.Window)
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(reopened, DefaultConfig())

	rec := get(t, s, "/api/stats?pw=tromsø")
	if rec.Code != http.StatusOK {
		t.Fatalf("stats = %d: %s", rec.Code, rec.Body.String())
	}
	var body struct {
		Snapshot *struct {
			Format   string `json:"format"`
			Version  int    `json:"version"`
			Shards   int    `json:"shards"`
			Patients int    `json:"patients"`
			Bytes    int64  `json:"bytes"`
		} `json:"snapshot"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body.Snapshot == nil {
		t.Fatal("snapshot provenance missing for a reopened workbench")
	}
	if body.Snapshot.Format != "sharded-v5" || body.Snapshot.Shards != 4 {
		t.Errorf("snapshot = %+v", body.Snapshot)
	}
	if body.Snapshot.Patients != 120 || body.Snapshot.Bytes != info.Bytes {
		t.Errorf("snapshot = %+v, want %d patients, %d bytes", body.Snapshot, 120, info.Bytes)
	}

	// Built from sources: provenance must be null, not fabricated.
	fresh, _ := testServer(t, 20)
	rec = get(t, fresh, "/api/stats?pw=tromsø")
	var fromSources struct {
		Snapshot any `json:"snapshot"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &fromSources); err != nil {
		t.Fatal(err)
	}
	if fromSources.Snapshot != nil {
		t.Errorf("source-built workbench claims snapshot provenance: %v", fromSources.Snapshot)
	}
}

func TestCohortViewPage(t *testing.T) {
	s, _ := testServer(t, 150)
	rec := get(t, s, "/cohort-view?pw=tromsø&pattern=T90%7CE11(%5C..*)%3F&rows=10")
	if rec.Code != http.StatusOK {
		t.Fatalf("cohort view = %d: %s", rec.Code, rec.Body.String())
	}
	body := rec.Body.String()
	if !strings.Contains(body, "<svg") || !strings.Contains(body, "patients match") {
		t.Error("cohort view malformed")
	}
	if rec := get(t, s, "/cohort-view?pw=tromsø"); rec.Code != http.StatusBadRequest {
		t.Errorf("missing pattern accepted: %d", rec.Code)
	}
	if rec := get(t, s, "/cohort-view?pw=tromsø&pattern=("); rec.Code != http.StatusBadRequest {
		t.Errorf("bad pattern accepted: %d", rec.Code)
	}
}

// TestIngestRejectsMalformedBundles: a body that is not exactly one valid
// bundle answers 400 and leaves the store as it was — bytes after the
// bundle included, so a second concatenated bundle is refused, not lost.
func TestIngestRejectsMalformedBundles(t *testing.T) {
	s, wb := testServer(t, 200)
	bundle := func(first, last uint64, round int) string {
		b, err := json.Marshal(synth.GenerateAppend(synth.DefaultConfig(200), first, last, round))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	one, two := bundle(201, 202, 1), bundle(203, 204, 2)
	gen, patients := wb.Store.Generation(), wb.Patients()
	for name, body := range map[string]string{
		"broken json":          `{"persons":[{"id":201,`,
		"unknown field":        `{"persons":[],"nicknames":[]}`,
		"unknown nested field": `{"persons":[{"id":201,"birth":"1990-01-01","sex":"F","nick":"x"}]}`,
		"wrong type":           `{"persons":[{"id":"201","birth":"1990-01-01","sex":"F"}]}`,
		"concatenated bundles": one + two,
		"trailing garbage":     `{"persons":[]} trailing garbage`,
		"bundle then garbage":  one + "\n}",
	} {
		rec := postJSON(t, s, "/api/ingest?pw=tromsø", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: ingest = %d %s, want 400", name, rec.Code, rec.Body.String())
		}
		if g, p := wb.Store.Generation(), wb.Patients(); g != gen || p != patients {
			t.Fatalf("%s: generation %d → %d, patients %d → %d, want unchanged", name, gen, g, patients, p)
		}
	}
	if rec := postJSON(t, s, "/api/ingest?pw=tromsø", one+" \n"); rec.Code != http.StatusOK {
		t.Fatalf("valid bundle: ingest = %d %s", rec.Code, rec.Body.String())
	}
	if p := wb.Patients(); p != patients+2 {
		t.Errorf("after a valid bundle: %d patients, want %d", p, patients+2)
	}
}
