package integrate

import (
	"testing"

	"pastas/internal/sources"
	"pastas/internal/synth"
)

// TestBuildDeterministicAcrossConcurrency: the concurrent staging pipeline
// must produce byte-for-byte the same collection, entry IDs, sorted flags
// and report as the serial one, whatever the worker count.
func TestBuildDeterministicAcrossConcurrency(t *testing.T) {
	for _, bundle := range []*sources.Bundle{synth.Generate(synth.DefaultConfig(400)), hostileBundle()} {
		opts := DefaultOptions()
		opts.Concurrency = 1
		want := outcome(buildOnce(bundle, opts))
		for _, workers := range []int{0, 2, 6, 16} {
			opts.Concurrency = workers
			if got := outcome(buildOnce(bundle, opts)); got != want {
				t.Errorf("concurrency %d: %s, serial %s", workers, got, want)
			}
		}
	}
}

// TestBuildEmptyBundle: a demographic-only bundle still produces one empty
// history per person under the concurrent pipeline.
func TestBuildEmptyBundle(t *testing.T) {
	bundle := synth.Generate(synth.DefaultConfig(5))
	bundle.GPClaims = nil
	bundle.Prescriptions = nil
	bundle.Episodes = nil
	bundle.Municipal = nil
	bundle.Specialist = nil
	bundle.Physio = nil
	col, rep, err := Build(bundle, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if col.Len() != 5 || rep.EntriesOut != 0 {
		t.Errorf("got %d patients, %d entries", col.Len(), rep.EntriesOut)
	}
}
