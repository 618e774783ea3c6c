// Package webapp serves interactive personal health timelines over HTTP —
// the paper's patient-facing web deployment ("we have also used the tool to
// produce interactive personal health time-lines (for more than 10,000
// individuals) on the web", pastas.no, "sample password: tromsø"). It also
// exposes the cohort-query API the Query-Builder front end posts to.
package webapp

import (
	"encoding/json"
	"errors"
	"fmt"
	"html/template"
	"io"
	"net/http"
	"net/url"
	"sort"
	"strconv"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/sources"
)

// Config tunes the service.
type Config struct {
	// Password gates every data endpoint (the paper's sample password is
	// "tromsø"). Empty means open access.
	Password string
	// MaxCohortSample bounds how many IDs a cohort query returns inline.
	MaxCohortSample int
}

// DefaultConfig mirrors the paper's demo deployment.
func DefaultConfig() Config {
	return Config{Password: "tromsø", MaxCohortSample: 100}
}

// Server is the HTTP service.
type Server struct {
	wb  *core.Workbench
	cfg Config
	mux *http.ServeMux
}

// NewServer builds the handler tree over a workbench.
func NewServer(wb *core.Workbench, cfg Config) *Server {
	if cfg.MaxCohortSample <= 0 {
		cfg.MaxCohortSample = 100
	}
	s := &Server{wb: wb, cfg: cfg, mux: http.NewServeMux()}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/stats", s.auth(s.handleStats))
	s.mux.HandleFunc("GET /api/patients", s.auth(s.handlePatients))
	s.mux.HandleFunc("GET /api/timeline", s.auth(s.handleTimelineJSON))
	s.mux.HandleFunc("GET /api/details", s.auth(s.handleDetails))
	s.mux.HandleFunc("GET /api/cohorts", s.auth(s.handleCohortList))
	s.mux.HandleFunc("POST /api/cohorts", s.auth(s.handleCohortSave))
	s.mux.HandleFunc("POST /api/cohorts/query", s.auth(s.handleCohortQuery))
	s.mux.HandleFunc("POST /api/cohorts/refine", s.auth(s.handleCohortRefine))
	s.mux.HandleFunc("POST /api/analytics/{kind}", s.auth(s.handleAnalytics))
	s.mux.HandleFunc("GET /api/cohorts/compare", s.auth(s.handleCohortCompare))
	s.mux.HandleFunc("GET /api/cohorts/{name}", s.auth(s.handleCohortProfile))
	s.mux.HandleFunc("DELETE /api/cohorts/{name}", s.auth(s.handleCohortDrop))
	s.mux.HandleFunc("POST /api/indicators", s.auth(s.handleIndicators))
	s.mux.HandleFunc("POST /api/ingest", s.auth(s.handleIngest))
	s.mux.HandleFunc("GET /timeline", s.auth(s.handleTimelinePage))
	s.mux.HandleFunc("GET /cohort-view", s.auth(s.handleCohortView))
	s.mux.HandleFunc("GET /{$}", s.auth(s.handleIndex))
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// auth wraps a handler with the sample-password gate: password accepted
// via ?pw= or the pastas_pw cookie.
func (s *Server) auth(next http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.cfg.Password != "" {
			pw := r.URL.Query().Get("pw")
			if pw == "" {
				// Cookie values are ASCII-only, so the password is
				// stored URL-escaped ("tromsø" → "troms%C3%B8").
				if c, err := r.Cookie("pastas_pw"); err == nil {
					if v, err := url.QueryUnescape(c.Value); err == nil {
						pw = v
					}
				}
			}
			if pw != s.cfg.Password {
				http.Error(w, "password required (hint: the sample password)", http.StatusUnauthorized)
				return
			}
		}
		next(w, r)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status":   "ok",
		"patients": s.wb.Patients(),
		"entries":  s.wb.Entries(),
	})
}

// handleStats reports the engine's per-backend evaluation timings, plan
// cache effectiveness and cardinality summary — the observability the
// paper's 0.1 s response-budget audits read. Each shard entry names the
// backend serving it ("local" or "remote(addr)"); a connected workbench
// reports its shard servers here.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	type shardJSON struct {
		Shard    int     `json:"shard"`
		Offset   int     `json:"offset"`
		Patients int     `json:"patients"`
		Entries  int     `json:"entries"`
		Backend  string  `json:"backend"`
		Queries  uint64  `json:"queries"`
		TotalMS  float64 `json:"total_ms"`
		AvgMS    float64 `json:"avg_ms"`
		Failures uint64  `json:"failures,omitempty"`
		Skipped  uint64  `json:"skipped,omitempty"`
		// Group and RoundTrips make the per-server batching visible:
		// shards of one group share their round trips.
		Group      int    `json:"group"`
		RoundTrips uint64 `json:"round_trips"`
	}
	shardStats := s.wb.Engine.ShardStats()
	shards := make([]shardJSON, len(shardStats))
	backendKinds := map[string]int{}
	for i, sh := range shardStats {
		shards[i] = shardJSON{
			Shard: sh.Shard, Offset: sh.Offset, Patients: sh.Patients,
			Entries: sh.Entries, Backend: sh.Backend, Queries: sh.Queries,
			TotalMS:  float64(sh.Nanos) / 1e6,
			Failures: sh.Failures, Skipped: sh.Skipped,
			Group: sh.Group, RoundTrips: sh.RoundTrips,
		}
		if sh.Queries > 0 {
			shards[i].AvgMS = shards[i].TotalMS / float64(sh.Queries)
		}
		backendKinds[sh.Backend]++
	}
	cache := s.wb.Engine.CacheStats()
	hitRate := 0.0
	if cache.Hits+cache.Misses > 0 {
		hitRate = float64(cache.Hits) / float64(cache.Hits+cache.Misses)
	}
	// Snapshot provenance: which persisted format this workbench was
	// reopened from, if any (null when built from sources).
	var snapshot map[string]any
	if info := s.wb.Snapshot; info != nil {
		snapshot = map[string]any{
			"format":   info.Format(),
			"version":  info.Version,
			"shards":   info.Shards,
			"patients": info.Patients,
			"entries":  info.Entries,
			"bytes":    info.Bytes,
		}
	}
	// Engine statistics work for both topologies: the store's own for a
	// local workbench, the backends' merged cardinalities for a
	// connected one.
	st := s.wb.Engine.Stats()
	// Per-shard backend health: for replicated backends the per-member
	// states the health checker maintains; "degraded: true" means at
	// least one shard currently has no healthy replica.
	health := s.wb.Engine.Health()
	degraded := false
	for _, h := range health {
		if !h.Healthy {
			degraded = true
		}
	}
	// Live-ingest state: the store generation the engine is serving and
	// the cumulative append/compaction counters. Null for a connected
	// workbench, which has no local store to ingest into.
	var ingest map[string]any
	if ing, ok := s.wb.IngestStats(); ok {
		last := s.wb.Store.LastCompaction()
		ingest = map[string]any{
			"batches":         ing.Batches,
			"entries_applied": ing.EntriesApplied,
			"patients_added":  ing.PatientsAdded,
			"delta_entries":   ing.DeltaEntries,
			"delta_patients":  ing.DeltaPatients,
			"delta_lists":     ing.DeltaLists,
			"compactions":     ing.Compactions,
			"last_compaction": map[string]any{
				"entries":     last.LastEntries,
				"patients":    last.LastPatients,
				"lists":       last.LastLists,
				"duration_ms": float64(last.LastDuration.Nanoseconds()) / 1e6,
			},
		}
	}
	writeJSON(w, map[string]any{
		"patients":       st.Patients,
		"entries":        st.Entries,
		"distinct_codes": st.DistinctCodes,
		"budget_ms":      100,
		"policy":         s.wb.Engine.Policy().String(),
		"degraded":       degraded,
		"health":         health,
		"shards":         shards,
		"backends":       backendKinds,
		"snapshot":       snapshot,
		"generation":     s.wb.Engine.Generation(),
		"ingest":         ingest,
		"cache": map[string]any{
			"hits":     cache.Hits,
			"misses":   cache.Misses,
			"entries":  cache.Entries,
			"hit_rate": hitRate,
		},
	})
}

// handleIngest accepts one registry bundle as JSON and appends it to the
// live store: new persons become new patients, event records for known
// patients extend their histories, and in-flight queries keep answering
// over the pre-append generation. Responds with the post-append ingest
// counters. 409 for a workbench without a local store (connected to
// remote shards), 400 for a body that is not exactly one bundle
// (sources.DecodeBundle: bytes after it are refused, not ignored) and for
// a bundle integration rejects.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if s.wb.Store == nil {
		http.Error(w, "ingest requires a local store (this workbench coordinates remote shards)", http.StatusConflict)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	var bundle *sources.Bundle
	if err == nil {
		bundle, err = sources.DecodeBundle(body)
	}
	if err != nil {
		http.Error(w, fmt.Sprintf("bad bundle: %v", err), http.StatusBadRequest)
		return
	}
	if err := s.wb.Append(bundle); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	ing, _ := s.wb.IngestStats()
	writeJSON(w, map[string]any{
		"generation":      ing.Generation,
		"batches":         ing.Batches,
		"entries_applied": ing.EntriesApplied,
		"patients_added":  ing.PatientsAdded,
		"delta_entries":   ing.DeltaEntries,
		"patients":        s.wb.Patients(),
	})
}

// maxIngestBytes bounds one POST /api/ingest body (64 MiB — roughly a
// 100k-patient bundle as JSON).
const maxIngestBytes = 64 << 20

// firstIDs resolves the first n patient IDs in collection order through
// the engine — the same bytes whether the histories are local or live in
// shard servers (only the sample's worth of IDs ever crosses the wire).
func (s *Server) firstIDs(n int) ([]model.PatientID, error) {
	bits, err := s.wb.Query(query.TrueExpr{})
	if err != nil {
		return nil, err
	}
	return s.wb.Engine.IDsOf(bits.FirstN(n))
}

func (s *Server) handlePatients(w http.ResponseWriter, r *http.Request) {
	limit := 50
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, "bad limit %q", v)
			return
		}
		limit = n
	}
	ids, err := s.firstIDs(limit)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	out := make([]uint64, len(ids))
	for i, id := range ids {
		out[i] = uint64(id)
	}
	writeJSON(w, map[string]any{"patients": out, "total": s.wb.Patients()})
}

// entryJSON is the wire form of one entry.
type entryJSON struct {
	ID     uint64  `json:"id"`
	Kind   string  `json:"kind"`
	Start  string  `json:"start"`
	End    string  `json:"end,omitempty"`
	Source string  `json:"source"`
	Type   string  `json:"type"`
	Code   string  `json:"code,omitempty"`
	Value  float64 `json:"value,omitempty"`
	Aux    float64 `json:"aux,omitempty"`
}

func (s *Server) patientFromQuery(w http.ResponseWriter, r *http.Request) (*model.History, bool) {
	idStr := r.URL.Query().Get("patient")
	id, err := strconv.ParseUint(idStr, 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad patient id %q", idStr)
		return nil, false
	}
	// Local store or remote shard fetch behind one call; a shard-server
	// failure is a loud 502, never mistaken for a missing patient.
	h, err := s.wb.History(model.PatientID(id))
	switch {
	case err == nil:
		return h, true
	case errors.Is(err, engine.ErrNoPatient):
		httpError(w, http.StatusNotFound, "no patient %d", id)
	default:
		httpError(w, http.StatusBadGateway, "%v", err)
	}
	return nil, false
}

func (s *Server) handleTimelineJSON(w http.ResponseWriter, r *http.Request) {
	h, ok := s.patientFromQuery(w, r)
	if !ok {
		return
	}
	entries := make([]entryJSON, 0, h.Len())
	for i := range h.Entries {
		e := &h.Entries[i]
		ej := entryJSON{
			ID: e.ID, Kind: e.Kind.String(), Start: e.Start.String(),
			Source: e.Source.String(), Type: e.Type.String(),
			Value: e.Value, Aux: e.Aux,
		}
		if e.Kind == model.Interval {
			ej.End = e.End.String()
		}
		if !e.Code.IsZero() {
			ej.Code = e.Code.String()
		}
		entries = append(entries, ej)
	}
	writeJSON(w, map[string]any{
		"patient": uint64(h.Patient.ID),
		"birth":   h.Patient.Birth.String(),
		"sex":     h.Patient.Sex.String(),
		"entries": entries,
	})
}

func (s *Server) handleDetails(w http.ResponseWriter, r *http.Request) {
	h, ok := s.patientFromQuery(w, r)
	if !ok {
		return
	}
	at, err := model.ParseDate(r.URL.Query().Get("t"))
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad time: %v", err)
		return
	}
	writeJSON(w, map[string]any{"details": render.Details(h, at, 3*model.Day)})
}

// handleCohortQuery runs one ad-hoc cohort query — count plus an ID
// sample: POST /api/cohorts/query.
func (s *Server) handleCohortQuery(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		s.apiInvalid(w, "read body: %v", err)
		return
	}
	spec, err := query.ParseSpec(body)
	if err != nil {
		s.apiInvalid(w, "%v", err)
		return
	}
	expr, err := spec.Compile()
	if err != nil {
		s.apiInvalid(w, "%v", err)
		return
	}
	bits, status, err := s.wb.QueryStatus(expr)
	if err != nil {
		s.apiError(w, err)
		return
	}
	// Engine-side ID resolution works over remote backends too; only the
	// sample's worth of ordinals is resolved (and, for a connected
	// workbench, shipped over the wire) — the count comes off the bitset.
	count := bits.Count()
	sample, err := s.wb.Engine.IDsOf(bits.FirstN(s.cfg.MaxCohortSample))
	if err != nil {
		s.apiError(w, err)
		return
	}
	out := make([]uint64, len(sample))
	for i, id := range sample {
		out[i] = uint64(id)
	}
	resp := map[string]any{"count": count, "sample": out, "query": expr.String()}
	if inc := s.incompleteJSON(status); inc != nil {
		resp["incomplete"] = inc
	}
	writeJSON(w, resp)
}

// incompleteJSON renders a degraded operation's completeness report —
// the missing shards, the population they cover, and the incomplete
// bitmask over shard ids ('1' at position i ⇔ shard i did not answer).
// Nil when the answer is complete, so complete answers carry no field.
func (s *Server) incompleteJSON(status engine.QueryStatus) map[string]any {
	if status.Complete() {
		return nil
	}
	n := s.wb.Engine.NumShards()
	mask := status.IncompleteMask(n)
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = '0'
	}
	mask.Range(func(i int) bool {
		buf[i] = '1'
		return true
	})
	return map[string]any{
		"missing_shards":   status.MissingShards,
		"missing_patients": status.MissingPatients,
		"mask":             string(buf),
	}
}

// handleIndicators computes utilization indicators for the cohort selected
// by the posted query spec (empty body or {"op":"true"} = everyone). The
// aggregation runs where the histories live: each shard backend tallies
// its slice of the cohort and the coordinator merges the partials — on a
// connected workbench nothing but fixed-size tallies crosses the wire,
// whatever the cohort size.
func (s *Server) handleIndicators(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		httpError(w, http.StatusBadRequest, "read body: %v", err)
		return
	}
	expr := query.Expr(query.TrueExpr{})
	if len(body) > 0 {
		spec, err := query.ParseSpec(body)
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
		expr, err = spec.Compile()
		if err != nil {
			httpError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	bits, qstatus, err := s.wb.QueryStatus(expr)
	if err != nil {
		s.apiError(w, err)
		return
	}
	ind, istatus, err := s.wb.IndicatorsStatus(bits)
	if err != nil {
		s.apiError(w, err)
		return
	}
	// The aggregate is incomplete if either phase skipped shards: the
	// union names every shard absent from the numbers.
	status := s.mergeStatus(qstatus, istatus)
	resp := map[string]any{
		"query":      expr.String(),
		"indicators": ind,
		"table":      ind.Table(),
	}
	if inc := s.incompleteJSON(status); inc != nil {
		resp["incomplete"] = inc
	}
	writeJSON(w, resp)
}

// mergeStatus unions two completeness reports (e.g. the query's and the
// aggregation's) into one naming every shard missing from either, with
// the missing-population bound recomputed over the union.
func (s *Server) mergeStatus(a, b engine.QueryStatus) engine.QueryStatus {
	if a.Complete() {
		return b
	}
	if b.Complete() {
		return a
	}
	seen := map[int]bool{}
	out := engine.QueryStatus{}
	for _, st := range []engine.QueryStatus{a, b} {
		for _, id := range st.MissingShards {
			if !seen[id] {
				seen[id] = true
				out.MissingShards = append(out.MissingShards, id)
			}
		}
	}
	sort.Ints(out.MissingShards)
	for _, m := range s.wb.Engine.BackendInfo() {
		if seen[m.Shard] {
			out.MissingPatients += m.Patients
		}
	}
	return out
}

// pageHead opens every HTML page; html/template escapes the title for
// both places it appears, so handlers pass it raw. What follows the head —
// a page's body, then pageTail — is written to the reply as bytes: a
// drawing is never copied into a template value.
var pageHead = template.Must(template.New("head").Parse(`<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>{{.}}</title>
<style>body{font-family:sans-serif;margin:2em}svg{border:1px solid #ddd}</style>
</head><body>
<h1>{{.}}</h1>
`))

const pageTail = "\n</body></html>\n"

// writePage answers one HTML page. body is trusted markup: the renderer's
// SVG (payloads escaped by the renderer) and text the handler escaped.
func writePage(w http.ResponseWriter, title string, body []byte) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	if err := pageHead.Execute(w, title); err != nil {
		httpError(w, http.StatusInternalServerError, "render: %v", err)
		return
	}
	// Like writeJSON: a failed write means the client went away.
	_, _ = w.Write(body)
	_, _ = io.WriteString(w, pageTail)
}

func (s *Server) handleTimelinePage(w http.ResponseWriter, r *http.Request) {
	h, ok := s.patientFromQuery(w, r)
	if !ok {
		return
	}
	// The "simplified form" presented to patients: one history, enlarged,
	// with tooltips and legend.
	body := []byte("<p>Your contacts with the health service. Hover any mark for details.</p>")
	body = render.AppendTimeline(body, model.MustCollection(h), render.TimelineOptions{
		Width: 1000, Height: 220, ZoomY: 5, Tooltips: true, Legend: true,
	})
	writePage(w, "Personal health timeline — "+h.Patient.ID.String(), body)
}

// handleCohortView renders the researcher-facing workbench view for a
// regex-identified cohort: ?pattern=T90|E11(\..*)? draws the first rows of
// the matching sub-collection as the Fig. 1 timeline.
func (s *Server) handleCohortView(w http.ResponseWriter, r *http.Request) {
	pattern := r.URL.Query().Get("pattern")
	if pattern == "" {
		httpError(w, http.StatusBadRequest, "need ?pattern=<code regex>")
		return
	}
	code, err := query.NewCode("", pattern)
	if err != nil {
		httpError(w, http.StatusBadRequest, "%v", err)
		return
	}
	expr := query.Has{Pred: query.AllOf{query.TypeIs(model.TypeDiagnosis), code}}
	bits, err := s.wb.Query(expr)
	if err != nil {
		httpError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	rows := 50
	if v := r.URL.Query().Get("rows"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 && n <= 500 {
			rows = n
		}
	}
	// The view ships what it draws: the first rows histories, and the span
	// of the whole cohort — the time axis, set even by rows beyond the drawn
	// ones — as a tally the shards make where the histories live.
	hs, domain, err := s.wb.View(bits, rows)
	if err != nil {
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	}
	// The pattern is escaped once here for the body and once by pageHead
	// for the title and heading.
	body := fmt.Appendf(nil, "<p>%d of %d patients match <code>%s</code>; first %d drawn.</p>",
		bits.Count(), s.wb.Patients(), template.HTMLEscapeString(pattern), len(hs))
	body = render.AppendRows(body, hs, domain, nil, render.TimelineOptions{Tooltips: true, Legend: true})
	writePage(w, "Cohort view — "+pattern, body)
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	ids, err := s.firstIDs(25)
	if err != nil {
		httpError(w, http.StatusBadGateway, "%v", err)
		return
	}
	body := []byte("<p>PaSTAs — patient story timelines. Sample patients:</p><ul>")
	for _, id := range ids {
		body = fmt.Appendf(body, `<li><a href="/timeline?patient=%d&pw=%s">%s</a></li>`,
			uint64(id), template.URLQueryEscaper(s.cfg.Password), id)
	}
	body = append(body, "</ul>"...)
	writePage(w, "PaSTAs timelines", body)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	http.Error(w, fmt.Sprintf(format, args...), code)
}
