package webapp

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pastas/internal/query"
	"pastas/internal/synth"
)

func mustExpr(t *testing.T, specJSON string) query.Expr {
	t.Helper()
	spec, err := query.ParseSpec([]byte(specJSON))
	if err != nil {
		t.Fatal(err)
	}
	e, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func postJSON(t *testing.T, s *Server, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestCohortWorkspaceEndpoints walks the save → list → refine →
// compare → drop → ingest → drop loop over HTTP.
func TestCohortWorkspaceEndpoints(t *testing.T) {
	s, wb := testServer(t, 200)
	diag := `{"op":"has","type":"diagnosis"}`
	women := `{"op":"sex","sex":"F"}`

	rec := postJSON(t, s, "/api/cohorts?pw=tromsø", `{"name":"diag","spec":`+diag+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("save = %d: %s", rec.Code, rec.Body.String())
	}
	var saved struct {
		Cohort struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"cohort"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &saved); err != nil {
		t.Fatal(err)
	}
	if saved.Cohort.Name != "diag" || saved.Cohort.Count == 0 {
		t.Fatalf("saved cohort %+v", saved.Cohort)
	}

	rec = get(t, s, "/api/cohorts?pw=tromsø")
	if rec.Code != http.StatusOK {
		t.Fatalf("list = %d", rec.Code)
	}
	var list struct {
		Cohorts []struct {
			Name string `json:"name"`
		} `json:"cohorts"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Cohorts) != 1 || list.Cohorts[0].Name != "diag" {
		t.Fatalf("list = %+v", list)
	}

	refineSpec := `{"op":"and","children":[` + diag + `,` + women + `]}`
	rec = postJSON(t, s, "/api/cohorts/refine?pw=tromsø", `{"name":"dw","spec":`+refineSpec+`}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("refine = %d: %s", rec.Code, rec.Body.String())
	}
	var refined struct {
		Cohort struct {
			Name  string `json:"name"`
			Count int    `json:"count"`
		} `json:"cohort"`
		Refinement struct {
			Mode string `json:"mode"`
			Seed string `json:"seed"`
		} `json:"refinement"`
		Summary string `json:"summary"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &refined); err != nil {
		t.Fatal(err)
	}
	if refined.Refinement.Mode != "narrow" || refined.Refinement.Seed != "diag" {
		t.Fatalf("refinement = %+v", refined.Refinement)
	}
	if refined.Summary == "" || !strings.Contains(refined.Summary, "narrow") {
		t.Fatalf("summary %q does not describe the refinement", refined.Summary)
	}
	if refined.Cohort.Count > saved.Cohort.Count {
		t.Fatal("narrowing refinement grew the cohort")
	}
	// Parity with the plain cohort endpoint on the same spec.
	bits, err := wb.Query(mustExpr(t, refineSpec))
	if err != nil {
		t.Fatal(err)
	}
	if refined.Cohort.Count != bits.Count() {
		t.Fatalf("refined count %d, direct query %d", refined.Cohort.Count, bits.Count())
	}

	rec = get(t, s, "/api/cohorts/compare?pw=tromsø&a=diag&b=dw")
	if rec.Code != http.StatusOK {
		t.Fatalf("compare = %d: %s", rec.Code, rec.Body.String())
	}
	var cmp struct {
		Both     int `json:"both"`
		OnlyA    int `json:"only_a"`
		OnlyB    int `json:"only_b"`
		ProfileA struct {
			Patients int `json:"patients"`
		} `json:"profile_a"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &cmp); err != nil {
		t.Fatal(err)
	}
	if cmp.Both != refined.Cohort.Count || cmp.OnlyB != 0 {
		t.Fatalf("compare = %+v, want both=%d only_b=0", cmp, refined.Cohort.Count)
	}
	if cmp.ProfileA.Patients != saved.Cohort.Count {
		t.Fatalf("profile_a patients = %d, want %d", cmp.ProfileA.Patients, saved.Cohort.Count)
	}

	// Single-cohort profile fetch.
	rec = get(t, s, "/api/cohorts/diag?pw=tromsø")
	if rec.Code != http.StatusOK {
		t.Fatalf("profile = %d: %s", rec.Code, rec.Body.String())
	}

	// Drop, then 404.
	req := httptest.NewRequest(http.MethodDelete, "/api/cohorts/dw?pw=tromsø", nil)
	drec := httptest.NewRecorder()
	s.ServeHTTP(drec, req)
	if drec.Code != http.StatusOK {
		t.Fatalf("drop = %d", drec.Code)
	}
	if rec := get(t, s, "/api/cohorts/dw?pw=tromsø"); rec.Code != http.StatusNotFound {
		t.Fatalf("profile after drop = %d, want 404", rec.Code)
	}

	// An ingest invalidates every saved cohort: dropping diag is a 404 too.
	bundle, _ := json.Marshal(synth.GenerateAppend(synth.DefaultConfig(200), 201, 202, 1))
	if rec := postJSON(t, s, "/api/ingest?pw=tromsø", string(bundle)); rec.Code != http.StatusOK {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body.String())
	}
	drec = httptest.NewRecorder()
	s.ServeHTTP(drec, httptest.NewRequest(http.MethodDelete, "/api/cohorts/diag?pw=tromsø", nil))
	if drec.Code != http.StatusNotFound || !strings.Contains(drec.Body.String(), "no_cohort") {
		t.Errorf("drop after ingest = %d %s, want 404 no_cohort", drec.Code, drec.Body.String())
	}
}

// TestCohortEndpointsHostile: malformed bodies, missing names, unknown
// cohorts and oversized payloads are 4xx, never 500s or panics.
func TestCohortEndpointsHostile(t *testing.T) {
	s, _ := testServer(t, 30)
	for _, body := range []string{
		"{broken", `{}`, `{"name":"x"}`, `{"name":"x","spec":{"op":"zzz"}}`,
		`{"name":"` + strings.Repeat("n", 300) + `","spec":{"op":"true"}}`,
		`{"name":"bad\nname","spec":{"op":"true"}}`,
	} {
		rec := postJSON(t, s, "/api/cohorts?pw=tromsø", body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("save %.40q = %d, want 400", body, rec.Code)
		}
	}
	if rec := get(t, s, "/api/cohorts/compare?pw=tromsø&a=missing&b=alsomissing"); rec.Code != http.StatusNotFound {
		t.Errorf("compare of missing cohorts = %d, want 404", rec.Code)
	}
	if rec := get(t, s, "/api/cohorts/missing?pw=tromsø"); rec.Code != http.StatusNotFound {
		t.Errorf("profile of missing cohort = %d, want 404", rec.Code)
	}
	// The workspace endpoints sit behind the password gate.
	if rec := postJSON(t, s, "/api/cohorts", `{"name":"x","spec":{"op":"true"}}`); rec.Code != http.StatusUnauthorized {
		t.Errorf("unauthenticated save = %d, want 401", rec.Code)
	}
}
