package webapp

// The redesigned API surface: /api/cohorts/query is the query route,
// every cohort/analytics error arrives in the shared JSON envelope, and the
// /api/analytics/{kind} family answers byte-identically whether the
// server fronts a local store or a connected shard cluster.

import (
	"encoding/json"
	"net/http"
	"testing"
)

// envelope decodes a response that must carry the shared error envelope
// and checks its code.
func envelope(t *testing.T, body []byte, wantCode string) {
	t.Helper()
	var e struct {
		Error *apiErrorBody `json:"error"`
	}
	if err := json.Unmarshal(body, &e); err != nil || e.Error == nil {
		t.Fatalf("response is not the shared error envelope: %s (%v)", body, err)
	}
	if e.Error.Code != wantCode {
		t.Fatalf("error code = %q, want %q (%s)", e.Error.Code, wantCode, body)
	}
	if e.Error.Message == "" {
		t.Fatalf("empty error message: %s", body)
	}
}

func TestAnalyticsErrorEnvelope(t *testing.T) {
	s, _ := testServer(t, 40)
	cases := []struct {
		path, body string
		status     int
		code       string
	}{
		{"/api/analytics/mine", `{"cohort":"nope"}`, http.StatusNotFound, "no_cohort"},
		{"/api/analytics/mine", `{}`, http.StatusBadRequest, "invalid"},
		{"/api/analytics/bogus", `{"cohort":"x"}`, http.StatusBadRequest, "invalid"},
		{"/api/analytics/mine", `not json`, http.StatusBadRequest, "invalid"},
		{"/api/analytics/scenario", `{"cohort":"x","scenario":{"steps":["T","K"],"relations":[{"i":0,"j":1,"rel":"sideways"}]}}`, http.StatusBadRequest, "invalid"},
		{"/api/analytics/episodes", `{"cohort":"x","gap_days":-3}`, http.StatusBadRequest, "invalid"},
		{"/api/cohorts/query", `{"all":[`, http.StatusBadRequest, "invalid"},
	}
	for _, c := range cases {
		rec := postJSON(t, s, c.path+"?pw=tromsø", c.body)
		if rec.Code != c.status {
			t.Errorf("%s %s: status %d, want %d (%s)", c.path, c.body, rec.Code, c.status, rec.Body)
			continue
		}
		envelope(t, rec.Body.Bytes(), c.code)
	}
}

// TestAnalyticsLocalConnectedParity: the same analytics request against
// the same population answers byte-identically from a single-process
// server and from one fronting remote shard servers — results and error
// envelopes both.
func TestAnalyticsLocalConnectedParity(t *testing.T) {
	remoteSrv, local, remote, _ := distributedServer(t, 120)
	localSrv := NewServer(local, Config{})

	expr := mustExpr(t, `{"has":{"type":"diagnosis"}}`)
	if _, err := local.SaveCohort("par", expr); err != nil {
		t.Fatal(err)
	}
	if _, err := remote.SaveCohort("par", expr); err != nil {
		t.Fatal(err)
	}

	reqs := []struct{ path, body string }{
		{"/api/analytics/mine", `{"cohort":"par","system":"ICPC2","chapter":true,"top":10}`},
		{"/api/analytics/mine", `{"cohort":"par","sequential":true,"max_gap":3,"chapter":true}`},
		{"/api/analytics/episodes", `{"cohort":"par","gap_days":90}`},
		{"/api/analytics/scenario", `{"cohort":"par","scenario":{"steps":["T","K"],"relations":[{"i":0,"j":1,"rel":"b,m,o"}]}}`},
		{"/api/analytics/cluster", `{"cohort":"par","k":3}`},
		// Error envelopes must be byte-identical too.
		{"/api/analytics/mine", `{"cohort":"missing"}`},
		{"/api/analytics/bogus", `{"cohort":"par"}`},
	}
	for _, r := range reqs {
		lrec := postJSON(t, localSrv, r.path, r.body)
		rrec := postJSON(t, remoteSrv, r.path, r.body)
		if lrec.Code != rrec.Code {
			t.Errorf("%s %s: local %d vs connected %d\nlocal %s\nconnected %s",
				r.path, r.body, lrec.Code, rrec.Code, lrec.Body, rrec.Body)
			continue
		}
		if lrec.Body.String() != rrec.Body.String() {
			t.Errorf("%s %s: bodies differ\nlocal     %s\nconnected %s", r.path, r.body, lrec.Body, rrec.Body)
		}
	}

	// And the mine response actually carries rules over this population.
	rec := postJSON(t, remoteSrv, "/api/analytics/mine", `{"cohort":"par","system":"ICPC2","chapter":true}`)
	if rec.Code != http.StatusOK {
		t.Fatalf("mine over connected server: %d %s", rec.Code, rec.Body)
	}
	var mined struct {
		Rules []ruleJSON `json:"rules"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &mined); err != nil {
		t.Fatal(err)
	}
	if len(mined.Rules) == 0 {
		t.Fatal("no rules mined from the 120-patient population")
	}
}

// A dead shard server surfaces as the unavailable envelope with the
// missing shards named — never a 200 with silently partial counts.
func TestAnalyticsShardOutage(t *testing.T) {
	s, _, remote, listeners := distributedServer(t, 80)
	if _, err := remote.SaveCohort("out", mustExpr(t, `{"has":{"type":"diagnosis"}}`)); err != nil {
		t.Fatal(err)
	}
	listeners[1].kill()
	rec := postJSON(t, s, "/api/analytics/mine", `{"cohort":"out"}`)
	if rec.Code != http.StatusBadGateway {
		t.Fatalf("analytics with a dead shard server: %d %s", rec.Code, rec.Body)
	}
	envelope(t, rec.Body.Bytes(), "unavailable")
	var e struct {
		Error apiErrorBody `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if len(e.Error.ShardsMissing) == 0 {
		t.Fatalf("unavailable envelope should name the missing shards: %s", rec.Body)
	}
}
