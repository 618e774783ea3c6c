package webapp

import (
	"crypto/sha256"
	"encoding/hex"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// TestAnalysisReplyGoldenBytes pins the characterise and analytics replies
// — profile, compare, indicators, mine in every mode, episodes — to the
// digests they had before the analyzers tallied on dictionary ids and the
// engine memoized analyses: over a local engine and over one and four
// local shards, asked once and asked again (the second answer comes out of the analysis memo), not one byte
// may differ.
func TestAnalysisReplyGoldenBytes(t *testing.T) {
	cfg := synth.DefaultConfig(1500)
	col, _, err := integrate.Build(synth.Generate(cfg), integrate.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	st := store.New(col)
	replies := []struct{ method, path, body, want string }{
		{"GET", "/api/cohorts/t90", "", "ec74d55a9e8a5390d0d8fe478dfa6ca7efbae6965c1759d90570799a63cfdb2b"},
		{"GET", "/api/cohorts/compare?a=diag&b=t90", "", "4f79e8eb0510e42523582ac3c59946de34af7c93b933369b8f4a801e5d49e6bd"},
		{"POST", "/api/indicators", `{"op":"has","pattern":"T90|E11(\\..*)?","type":"diagnosis"}`, "b8d7be7c7c3cf83330e82ac0337c0d630ede7c63585aa36afabe928466fbeac0"},
		{"POST", "/api/analytics/mine", `{"cohort":"diag","system":"ICPC2","chapter":true,"top":20}`, "9aa0159fcacde8a752a2b3bc19a91c66f6cdf22a0553637385ef1f88c726b080"},
		{"POST", "/api/analytics/mine", `{"cohort":"diag","min_count":3}`, "7c5fe27d916920d97e0bef712dfcb8df6768925758f27c9f4f85f3940bd61235"},
		{"POST", "/api/analytics/mine", `{"cohort":"diag","sequential":true,"max_gap":3,"min_count":3}`, "f98c7c9688ffeeb5f9bfa1e25680a4a96321eb5c0697313937ffdc7d589f8d44"},
		{"POST", "/api/analytics/episodes", `{"cohort":"diag","gap_days":90}`, "a5fb7746589a26b7dfe0386e4a62689d4f4850f8aebdabadd069daab2fee3c61"},
	}
	for _, shards := range []int{0, 1, 4} { // 0: a local engine; k: a coordinator over k local shards
		opts := engine.Options{Workers: 2, CacheSize: 16}
		eng := engine.New(st, opts)
		if shards > 0 {
			if eng, err = engine.NewFromBackends(engine.LocalShards(st.Pin(), shards), opts); err != nil {
				t.Fatal(err)
			}
		}
		wb := &core.Workbench{Store: st, Window: cfg.Window(), Engine: eng}
		for name, spec := range map[string]string{"diag": `{"op":"has","type":"diagnosis"}`,
			"t90": `{"op":"has","system":"ICPC2","pattern":"T90","type":"diagnosis"}`} {
			if _, err := wb.SaveCohort(name, mustExpr(t, spec)); err != nil {
				t.Fatal(err)
			}
		}
		s := NewServer(wb, Config{})
		for _, r := range replies {
			for ask := 1; ask <= 2; ask++ {
				rec := httptest.NewRecorder()
				s.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, strings.NewReader(r.body)))
				if rec.Code != http.StatusOK {
					t.Fatalf("shards=%d %s %s = %d: %s", shards, r.path, r.body, rec.Code, rec.Body)
				}
				sum := sha256.Sum256(rec.Body.Bytes())
				if got := hex.EncodeToString(sum[:]); got != r.want {
					t.Errorf("shards=%d %s %s, ask %d: %d bytes, sha256 %s, want %s",
						shards, r.path, r.body, ask, rec.Body.Len(), got, r.want)
				}
			}
		}
	}
}
