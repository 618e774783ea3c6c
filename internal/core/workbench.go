// Package core is the workbench: it wires sources → integration → store →
// query/cohort → views into the "common workbench" the paper describes,
// and exposes the interactive session with the paper's operations —
// extraction of sub-collections, sorting and aligning histories, filtering
// events, temporal-pattern search, details-on-demand, and the two zoom
// sliders — each audited against the 0.1 s response budget.
package core

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"

	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/sources"
	"pastas/internal/stats"
	"pastas/internal/store"
	"pastas/internal/synth"
)

// Workbench is a loaded, indexed data set — or, when connected to remote
// shard servers, a coordinating front over one.
type Workbench struct {
	// Store is the local indexed collection. It is nil for a workbench
	// built over remote shard backends (Connect), where the histories
	// live in the shard servers; both cohort evaluation and the
	// history-level operations (History, Histories, Indicators, sessions)
	// work through the Engine there — histories are fetched from their
	// shards on demand and indicators aggregate server-side.
	Store *store.Store
	// Engine is the sharded query planner/executor every cohort
	// evaluation goes through.
	Engine *engine.Engine
	// Report is the integration accounting (nil when loaded from a
	// snapshot).
	Report *integrate.Report
	// Snapshot is the provenance of the snapshot this workbench was
	// reopened from (nil when built from sources): format version, shard
	// layout and sizes. The webapp surfaces it in GET /api/stats.
	Snapshot *store.SnapshotInfo
	// Window is the observation window the data covers.
	Window model.Period
	// IngestOptions, when non-nil, configures the incremental consumer
	// the first Append builds (pin OpenIntervalEnd here when an
	// incremental run must agree with a batch Build). Nil means
	// integrate.DefaultOptions(). Changing it after the first Append has
	// no effect — the consumer's linkage state is built once.
	IngestOptions *integrate.Options

	// ingestMu serializes Append and the consumer it lazily builds;
	// queries never take it.
	ingestMu sync.Mutex
	consumer *integrate.Consumer
	// compacting makes background compaction single-flight.
	compacting atomic.Bool
}

// FromBundle integrates a registry bundle and indexes it.
func FromBundle(b *sources.Bundle, opts integrate.Options, window model.Period) (*Workbench, error) {
	col, rep, err := integrate.Build(b, opts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	wb := FromCollection(col, window)
	wb.Report = rep
	return wb, nil
}

// FromCollection wraps an already-built collection.
func FromCollection(col *model.Collection, window model.Period) *Workbench {
	st := store.New(col)
	return &Workbench{
		Store:  st,
		Engine: engine.New(st, engine.DefaultOptions()),
		Window: window,
	}
}

// Query evaluates a cohort expression through the engine.
func (wb *Workbench) Query(e query.Expr) (*store.Bitset, error) {
	return wb.Engine.Execute(e)
}

// QueryStatus evaluates a cohort expression and reports completeness:
// under engine.PolicyDegraded the status names the shards that were
// unreachable and therefore absent from the cohort (under the default
// strict policy it is always complete — incompleteness is an error).
func (wb *Workbench) QueryStatus(e query.Expr) (*store.Bitset, engine.QueryStatus, error) {
	return wb.Engine.ExecuteStatus(context.Background(), e)
}

// History returns one patient's history: off the local store, or fetched
// from the shard server holding the patient for a connected workbench.
// Absence is an error wrapping engine.ErrNoPatient; a down shard server
// is a loud failure, never a false "not found".
func (wb *Workbench) History(id model.PatientID) (*model.History, error) {
	h, err := wb.Engine.HistoryByID(id)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return h, nil
}

// Histories materializes the cohort a bitset selects as a collection in
// display (ordinal) order. On a connected workbench the selected
// histories — and only those — ship from their shard servers in the
// checksummed segment codec; for cohort-wide statistics prefer
// Indicators, which aggregates server-side instead of shipping anything.
func (wb *Workbench) Histories(bits *store.Bitset) (*model.Collection, error) {
	hs, err := wb.Engine.Histories(bits)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	col, err := model.NewCollection(hs...)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return col, nil
}

// View materializes what a population view of a cohort draws: its first
// rows histories in display order, and the period all of its histories
// span — the view's time axis, equal to model.Collection.Span over the
// whole cohort. Each shard tallies the span where the histories live, so a
// connected workbench ships the rows it draws and a fixed-size tally per
// server, never the cohort.
func (wb *Workbench) View(bits *store.Bitset, rows int) ([]*model.History, model.Period, error) {
	span, err := wb.Engine.Analyze(bits, engine.SpanRequest())
	if err != nil {
		return nil, model.Period{}, fmt.Errorf("core: %w", err)
	}
	hs, err := wb.Engine.Histories(bits.FirstN(rows))
	if err != nil {
		return nil, model.Period{}, fmt.Errorf("core: %w", err)
	}
	return hs, span.(*engine.SpanTally).Period, nil
}

// Indicators computes the utilization-indicator summary for the cohort a
// bitset selects, over the workbench window. Each shard tallies its slice
// where the histories live (a fixed-size partial per shard, whatever the
// cohort size) and the partials merge exactly, so a connected workbench
// reports bit-identical indicators to a local one.
func (wb *Workbench) Indicators(bits *store.Bitset) (stats.Indicators, error) {
	ind, err := wb.Engine.Indicators(bits, wb.Window)
	if err != nil {
		return stats.Indicators{}, fmt.Errorf("core: %w", err)
	}
	return ind, nil
}

// IndicatorsStatus is Indicators plus the completeness report — under
// engine.PolicyDegraded the aggregate may omit unreachable shards, and
// the status names them.
func (wb *Workbench) IndicatorsStatus(bits *store.Bitset) (stats.Indicators, engine.QueryStatus, error) {
	ind, st, err := wb.Engine.IndicatorsStatus(context.Background(), bits, wb.Window)
	if err != nil {
		return stats.Indicators{}, engine.QueryStatus{}, fmt.Errorf("core: %w", err)
	}
	return ind, st, nil
}

// Connect builds a workbench over remote shard servers: each address is a
// cohortctl shard-server, every shard it serves becomes a backend, and
// together they must tile the snapshot's population. An address element
// may also be a replica group — "host-a:7070|host-b:7070" — naming
// servers that serve the same shards from the same snapshot; the group
// health-checks its members, load-balances reads and fails over between
// them mid-call (engine.DialShards). The workbench has no local Store —
// queries, history fetches and indicator aggregation all execute across
// the servers with bit-identical semantics to a local workbench over the
// same snapshot.
func Connect(addrs []string, ropts engine.RemoteOptions, opts engine.Options, window model.Period) (*Workbench, error) {
	var backends []engine.ShardBackend
	closeAll := func() {
		for _, b := range backends {
			b.Close()
		}
	}
	total := -1
	for _, elem := range addrs {
		bs, serverTotal, err := engine.DialShards(elem, ropts)
		if err != nil {
			closeAll()
			return nil, fmt.Errorf("core: connect %s: %w", elem, err)
		}
		backends = append(backends, bs...)
		if total != -1 && serverTotal != total {
			closeAll()
			return nil, fmt.Errorf("core: connect %s: server's snapshot has %d patients, others have %d (different snapshots?)",
				elem, serverTotal, total)
		}
		total = serverTotal
	}
	eng, err := engine.NewFromBackends(backends, opts)
	if err != nil {
		closeAll()
		return nil, fmt.Errorf("core: %w", err)
	}
	// NewFromBackends proved the shards tile [0, N) contiguously; the
	// servers' snapshot total proves N is the whole population, so a
	// missing tail server cannot silently shrink the cohort universe.
	if eng.Patients() != total {
		eng.Close()
		return nil, fmt.Errorf("core: connected shards cover %d of %d patients; add the missing shard servers",
			eng.Patients(), total)
	}
	return &Workbench{Engine: eng, Window: window}, nil
}

// Close releases the engine's backends (remote connections; a no-op for
// a local workbench).
func (wb *Workbench) Close() error { return wb.Engine.Close() }

// Synthesize generates, integrates and indexes a synthetic population —
// the one-call path the examples and benchmarks use.
func Synthesize(cfg synth.Config) (*Workbench, error) {
	bundle := synth.Generate(cfg)
	return FromBundle(bundle, integrate.DefaultOptions(), cfg.Window())
}

// SnapshotOptions tunes Workbench.Save.
type SnapshotOptions struct {
	// Shards is the number of independently decodable segments the
	// snapshot is split into (the parallelism available to Open). 0
	// means GOMAXPROCS; store.Save clamps it to [1, patients].
	Shards int
}

// Save persists the collection as a snapshot (the one format,
// store.Save) and returns the layout written: histories fully merged, the
// store's ingest provenance in the header, and the materialized cohorts
// valid at the current generation alongside. Saving pins one revision, so
// it is safe while queries — and further appends — are in flight.
func (wb *Workbench) Save(w io.Writer, opts SnapshotOptions) (*store.SnapshotInfo, error) {
	if wb.Store == nil {
		return nil, fmt.Errorf("core: save: workbench has no local collection (connected to remote shards)")
	}
	shards := opts.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cohorts, err := cohortRecords(wb.Engine.ExportCohorts())
	if err != nil {
		return nil, err
	}
	info, err := store.Save(w, wb.Store, shards, cohorts)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	return info, nil
}

// Open reopens a previously saved workbench from a snapshot, decoding its
// shards in parallel; a file of any other version is refused with an error
// naming the version. The resulting workbench records the snapshot's
// provenance.
func Open(r io.Reader, window model.Period) (*Workbench, error) {
	col, cohorts, info, err := store.Load(r)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	wb := FromCollection(col, window)
	wb.Snapshot = info
	// Re-adopt the persisted cohorts into the fresh engine's workspace:
	// the expressions round-trip through the engine's wire codec (re-
	// validated on decode) and the bitsets were crc-checked with the rest
	// of the snapshot.
	for _, c := range cohorts {
		e, err := engine.DecodeExpr(c.Expr)
		if err != nil {
			return nil, fmt.Errorf("core: open: cohort %q: %w", c.Name, err)
		}
		if err := wb.Engine.AdoptCohort(c.Name, e, c.Bits); err != nil {
			return nil, fmt.Errorf("core: open: %w", err)
		}
	}
	return wb, nil
}

// Patients returns the population size (summed across shard backends for
// a connected workbench).
func (wb *Workbench) Patients() int { return wb.Engine.Patients() }

// Entries returns the total entry count.
func (wb *Workbench) Entries() int { return wb.Engine.TotalEntries() }
