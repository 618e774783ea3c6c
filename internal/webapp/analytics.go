package webapp

// The cohort-analytics API: POST /api/analytics/{kind} runs one of the
// registered analytics over a saved cohort by name. Per-history kinds
// (mine, episodes, scenario) ride the engine's Analyze map-reduce — each
// shard tallies only its masked-in cohort members and fixed-size integer
// partials cross the wire — so a connected workbench answers byte-for-
// byte what a local one would. Clustering pages the cohort's histories
// in and runs coordinator-side. Every endpoint here (and every
// /api/cohorts* endpoint) reports failures through the shared error
// envelope written by apiError.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"

	"pastas/internal/abstraction"
	"pastas/internal/engine"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/temporal"
)

// apiErrorBody is the shared JSON error envelope: a stable machine-
// readable code, the human-readable message, and — when the failure is a
// shard outage — the shards currently without a healthy backend.
type apiErrorBody struct {
	Code          string `json:"code"`
	Message       string `json:"message"`
	ShardsMissing []int  `json:"shards_missing,omitempty"`
}

// writeAPIError writes the envelope. Local and connected workbenches
// produce byte-identical envelopes for the same failure: the code and
// message depend only on the error, and shards_missing is only attached
// for outage-class failures, which a local workbench cannot have.
func (s *Server) writeAPIError(w http.ResponseWriter, status int, code, message string, shards []int) {
	body := apiErrorBody{Code: code, Message: message}
	if code == "unavailable" {
		body.ShardsMissing = shards
		// Fold in shards whose replica groups report no healthy member —
		// the outage may be wider than the one call that surfaced it.
		for _, h := range s.wb.Engine.Health() {
			if !h.Healthy && !slices.Contains(body.ShardsMissing, h.Shard) {
				body.ShardsMissing = append(body.ShardsMissing, h.Shard)
			}
		}
		sort.Ints(body.ShardsMissing)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]any{"error": body})
}

// apiError classifies a workbench/engine error into the envelope: a bad
// name is invalid (400), a missing cohort no_cohort (404), an unreachable
// shard unavailable (502), anything else internal (500).
func (s *Server) apiError(w http.ResponseWriter, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, engine.ErrInvalidName):
		status, code = http.StatusBadRequest, "invalid"
	case errors.Is(err, engine.ErrNoCohort):
		status, code = http.StatusNotFound, "no_cohort"
	case engine.IsUnavailable(err):
		status, code = http.StatusBadGateway, "unavailable"
	}
	s.writeAPIError(w, status, code, err.Error(), engine.FailedShards(err))
}

// apiInvalid writes an invalid-request envelope (400) directly.
func (s *Server) apiInvalid(w http.ResponseWriter, format string, args ...any) {
	s.writeAPIError(w, http.StatusBadRequest, "invalid", fmt.Sprintf(format, args...), nil)
}

// analyticsRequest is the body of POST /api/analytics/{kind} — the union
// of every kind's parameters, keyed by the saved cohort to analyze.
type analyticsRequest struct {
	Cohort string `json:"cohort"`

	// mine
	Sequential bool    `json:"sequential"`
	MaxGap     int     `json:"max_gap"`
	System     string  `json:"system"`
	Chapter    bool    `json:"chapter"`
	MinSupport float64 `json:"min_support"`
	MinCount   int     `json:"min_count"`
	Top        int     `json:"top"`

	// episodes, scenario: episode gap in days (default 90).
	GapDays int `json:"gap_days"`

	// scenario
	Scenario *scenarioJSON `json:"scenario"`

	// cluster
	K int `json:"k"`
}

// scenarioJSON is the wire form of a temporal scenario: step labels plus
// pairwise Allen constraints with named relations ("before" or "b",
// comma-separated for a set).
type scenarioJSON struct {
	Steps     []string `json:"steps"`
	Relations []struct {
		I   int    `json:"i"`
		J   int    `json:"j"`
		Rel string `json:"rel"`
	} `json:"relations"`
}

func (sj *scenarioJSON) compile() (temporal.Scenario, error) {
	sc := temporal.Scenario{Steps: sj.Steps}
	for _, r := range sj.Relations {
		rel, err := temporal.ParseRel(r.Rel)
		if err != nil {
			return temporal.Scenario{}, err
		}
		sc.Relations = append(sc.Relations, temporal.StepRel{I: r.I, J: r.J, Rel: rel})
	}
	return sc, sc.Validate()
}

// ruleJSON is the wire form of one mined rule.
type ruleJSON struct {
	A          string  `json:"a"`
	B          string  `json:"b"`
	Sequential bool    `json:"sequential"`
	Support    float64 `json:"support"`
	Confidence float64 `json:"confidence"`
	Lift       float64 `json:"lift"`
	CountPair  int     `json:"count_pair"`
	CountA     int     `json:"count_a"`
	CountB     int     `json:"count_b"`
	N          int     `json:"n"`
	Rule       string  `json:"rule"`
}

// handleAnalytics dispatches POST /api/analytics/{kind}.
func (s *Server) handleAnalytics(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.apiInvalid(w, "read body: %v", err)
		return
	}
	var req analyticsRequest
	if err := json.Unmarshal(body, &req); err != nil {
		s.apiInvalid(w, "bad request: %v", err)
		return
	}
	if req.Cohort == "" {
		s.apiInvalid(w, `need {"cohort": ...}`)
		return
	}
	if req.GapDays == 0 {
		req.GapDays = 90
	}
	if req.GapDays < 0 || req.MaxGap < 0 {
		s.apiInvalid(w, "gap_days and max_gap must be non-negative")
		return
	}
	gap := model.Time(req.GapDays) * model.Day

	switch kind := r.PathValue("kind"); kind {
	case "mine":
		p := engine.MineParams{
			Sequential: req.Sequential, MaxGap: req.MaxGap,
			System: req.System, Chapter: req.Chapter,
		}
		opt := mining.Options{MinSupport: req.MinSupport, MinCount: req.MinCount, MaxGap: req.MaxGap}
		rules, info, status, err := s.wb.MineRules(req.Cohort, p, opt)
		if err != nil {
			s.apiError(w, err)
			return
		}
		if req.Top > 0 {
			rules = mining.Top(rules, req.Top)
		}
		out := make([]ruleJSON, len(rules))
		for i, rl := range rules {
			out[i] = ruleJSON{
				A: rl.A, B: rl.B, Sequential: rl.Sequential,
				Support: rl.Support, Confidence: rl.Confidence, Lift: rl.Lift,
				CountPair: rl.CountPair, CountA: rl.CountA, CountB: rl.CountB,
				N: rl.N, Rule: rl.String(),
			}
		}
		resp := map[string]any{"cohort": info, "rules": out, "histories": historiesOf(rules)}
		if inc := s.incompleteJSON(status); inc != nil {
			resp["incomplete"] = inc
		}
		writeJSON(w, resp)

	case "episodes":
		tally, info, status, err := s.wb.Episodes(req.Cohort, gap)
		if err != nil {
			s.apiError(w, err)
			return
		}
		resp := map[string]any{"cohort": info, "episodes": episodesJSON(tally)}
		if inc := s.incompleteJSON(status); inc != nil {
			resp["incomplete"] = inc
		}
		writeJSON(w, resp)

	case "scenario":
		if req.Scenario == nil {
			s.apiInvalid(w, `need {"scenario": {"steps": [...], ...}}`)
			return
		}
		sc, err := req.Scenario.compile()
		if err != nil {
			s.apiInvalid(w, "%v", err)
			return
		}
		tally, info, status, err := s.wb.MatchScenario(req.Cohort, gap, sc)
		if err != nil {
			s.apiError(w, err)
			return
		}
		sj := map[string]any{
			"histories": tally.Histories,
			"bound":     tally.Bound,
			"matched":   tally.Matched,
		}
		if tally.Histories > 0 {
			sj["match_rate"] = float64(tally.Matched) / float64(tally.Histories)
		}
		resp := map[string]any{"cohort": info, "scenario": sj}
		if inc := s.incompleteJSON(status); inc != nil {
			resp["incomplete"] = inc
		}
		writeJSON(w, resp)

	case "cluster":
		if req.K == 0 {
			req.K = 2
		}
		if req.K < 1 {
			s.apiInvalid(w, "k must be at least 1, got %d", req.K)
			return
		}
		clusters, info, err := s.wb.ClusterCohort(req.Cohort, req.K)
		if err != nil {
			s.apiError(w, err)
			return
		}
		writeJSON(w, map[string]any{"cohort": info, "clusters": clusters})

	default:
		s.apiInvalid(w, "unknown analytics kind %q (want mine, episodes, scenario or cluster)", kind)
	}
}

// historiesOf reads the shared tally size off a finalized rule list (all
// rules carry the same N); 0 when no rule cleared the thresholds.
func historiesOf(rules []mining.Rule) int {
	if len(rules) == 0 {
		return 0
	}
	return rules[0].N
}

// episodesJSON renders the merged episode tally with derived means; the
// ratios are computed here, once, from the exactly-merged integers.
func episodesJSON(t *abstraction.EpisodeTally) map[string]any {
	out := map[string]any{
		"histories":     t.Histories,
		"with_episodes": t.WithEpisodes,
		"episodes":      t.Episodes,
		"entries":       t.Entries,
		"by_dominant":   t.ByDominant,
	}
	if t.Episodes > 0 {
		out["mean_entries_per_episode"] = float64(t.Entries) / float64(t.Episodes)
		out["mean_span_days"] = float64(t.SpanTotal) / float64(t.Episodes) / float64(model.Day)
	}
	return out
}
