// Command cohortctl runs cohort queries against a registry extract: the
// command-line face of the Query-Builder. Queries are the JSON trees the
// builder produces (see internal/query.Spec); the built-in "study" query is
// the paper's predefined-characteristics selection.
//
// Usage:
//
//	cohortctl -data ./data -query query.json
//	cohortctl -synth 168000 -study
//	cohortctl -snapshot wb.snap -study
//	cohortctl -shards 10.0.0.1:7070,10.0.0.2:7070 -study
//	cohortctl -shards "10.0.0.1:7070|10.0.1.1:7070,10.0.0.2:7070|10.0.1.2:7070" -study
//	cohortctl -shards 10.0.0.1:7070,10.0.0.2:7070 -timeline 4711
//	cohortctl explain -synth 168000 -query query.json
//	cohortctl snapshot save -synth 168000 -out wb.snap -shards 16
//	cohortctl snapshot info -in wb.snap
//	cohortctl shard-server -snapshot wb.snap -serve 0,1 -listen :7070
//	cohortctl ingest -snapshot wb.snap -feed data/append-001,data/append-002 -compact -out wb2.snap
//	cohortctl cohort save -snapshot wb.snap -name diabetics -query q.json
//	cohortctl cohort list -snapshot wb.snap
//	cohortctl cohort refine -snapshot wb.snap -name dm-elderly -query q2.json
//	cohortctl cohort compare -snapshot wb.snap -a diabetics -b dm-elderly
//	cohortctl serve -snapshot wb.snap -addr :8080 -password tromsø
//	cohortctl serve -shards 10.0.0.1:7070,10.0.0.2:7070 -addr :8080
//
// The explain subcommand prints the cost-annotated plan (estimated rows
// and cost per node, in execution order), then runs the query and reports
// the actual cohort size and wall time next to the estimate. The snapshot
// subcommands persist an integrated workbench as a sharded snapshot and
// inspect a snapshot's header without decoding it. The ingest subcommand
// exercises the live-ingest path: it appends follow-on bundle directories
// to a loaded workbench, optionally compacts, and can save the result.
//
// shard-server serves one or more shards of a snapshot over the wire
// protocol, paging in only the assigned segments; the top-level
// -shards flag connects a client to a set of such servers, whose shards
// together must cover the snapshot, and runs queries across them with
// bit-identical results to a local run. History-level operations work
// over -shards too: -timeline fetches the patient's history from its
// shard and renders it, -indicators aggregates server-side.
//
// serve runs the personal-timeline web service — the paper's pastas.no
// deployment: interactive timelines plus the cohort API, behind the sample
// password — over any of the four sources. Both servers shut down
// gracefully on SIGINT/SIGTERM (listener closed, in-flight calls drained).
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/mining"
	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/render"
	"pastas/internal/sources"
	"pastas/internal/store"
	"pastas/internal/synth"
	"pastas/internal/temporal"
	"pastas/internal/webapp"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cohortctl: ")

	args := os.Args[1:]
	if len(args) > 0 {
		if run, ok := map[string]func([]string){
			"snapshot": runSnapshotCmd, "shard-server": runShardServer, "ingest": runIngest,
			"cohort": runCohortCmd, "analyze": runAnalyze, "serve": runServe,
		}[args[0]]; ok {
			run(args[1:])
			return
		}
	}
	explainMode := len(args) > 0 && args[0] == "explain"
	if explainMode {
		args = args[1:]
	}

	fs := flag.NewFlagSet("cohortctl", flag.ExitOnError)
	load := sourceFlags(fs, true)
	queryFile := fs.String("query", "", "JSON query-spec file")
	study := fs.Bool("study", false, "run the paper's predefined-characteristics selection")
	limit := fs.Int("limit", 20, "IDs to print")
	indicators := fs.Bool("indicators", false, "print utilization indicators for the cohort")
	timelineID := fs.Uint64("timeline", 0, "render this patient's timeline as SVG on stdout (works over -shards)")
	fs.Parse(args) // ExitOnError: parse failures exit(2) with usage

	wb, window, err := load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d patients, %d entries\n", wb.Patients(), wb.Entries())

	if *timelineID != 0 {
		// History-level output: the fetch RPC pages the one history in
		// from its shard server when running against -shards, so the SVG
		// is byte-identical to a local render of the same snapshot.
		h, err := wb.History(model.PatientID(*timelineID))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Println(render.Timeline(model.MustCollection(h), render.TimelineOptions{
			Width: 1000, Height: 220, ZoomY: 5, Tooltips: true, Legend: true,
		}))
		return
	}

	var expr query.Expr
	switch {
	case *study:
		expr = core.StudyCriteria(window)
	case *queryFile != "":
		if expr, err = loadQueryExpr(*queryFile); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatal("need -query FILE or -study")
	}

	if explainMode {
		runExplain(wb, expr)
		return
	}

	// Evaluate through the engine directly: the same path works over a
	// local store and over remote shard backends.
	bits, status, err := wb.QueryStatus(expr)
	if err != nil {
		log.Fatal(err)
	}
	// Degradation warnings go to stderr: stdout stays byte-comparable
	// between a degraded run and a healthy one over the same shards.
	warnIncomplete(wb, status)
	count := bits.Count()
	fmt.Printf("query: %s\n", expr)
	fmt.Printf("cohort: %d of %d patients (%.2f%%)\n",
		count, wb.Patients(), 100*float64(count)/float64(wb.Patients()))
	// Resolve only the IDs that will be printed; the -shards path ships
	// them over the wire, so a huge cohort must not be materialized to
	// show -limit of them.
	ids, err := wb.Engine.IDsOf(bits.FirstN(*limit))
	if err != nil {
		log.Fatal(err)
	}
	for _, id := range ids {
		fmt.Printf("  %s\n", id)
	}
	if count > *limit {
		fmt.Printf("  … and %d more\n", count-*limit)
	}

	if *indicators {
		// Aggregates where the histories live: per-shard tallies merged
		// exactly, so -shards prints the same table a local run would.
		ind, istatus, err := wb.IndicatorsStatus(bits)
		if err != nil {
			log.Fatal(err)
		}
		warnIncomplete(wb, istatus)
		fmt.Println()
		fmt.Print(ind.Table())
	}
}

// runExplain prints the cost-annotated plan, then executes it and shows
// the estimate next to reality.
func runExplain(wb *core.Workbench, expr query.Expr) {
	fmt.Printf("query: %s\n\n", expr)
	ex, err := wb.Engine.Explain(expr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(ex)
	if ex.Seed == nil {
		if cs := wb.Cohorts(); len(cs) > 0 {
			fmt.Printf("no saved cohort seeds this plan (%d in the workspace; a refine would run from scratch)\n", len(cs))
		}
	}

	t0 := time.Now()
	bits, err := wb.Engine.Execute(expr)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(t0)
	fmt.Printf("\nactual: %d patients in %s (estimated %.0f rows)\n",
		bits.Count(), elapsed.Round(time.Microsecond), ex.Root.Est.Rows)
	if budget := 100 * time.Millisecond; elapsed > budget {
		fmt.Printf("over the %s interactive budget\n", budget)
	}
	fmt.Printf("backends: %s\n", backendLoad(wb.Engine.ShardStats()))
}

// backendLoad sums the per-shard counters into "8 evaluations, 2 round
// trips": shards of one server group share their round trips, so those
// are counted once per group.
func backendLoad(stats []engine.ShardStat) string {
	var evals, trips uint64
	counted := make(map[int]bool)
	for _, s := range stats {
		evals += s.Queries
		if !counted[s.Group] {
			counted[s.Group] = true
			trips += s.RoundTrips
		}
	}
	return fmt.Sprintf("%d evaluations, %d round trips", evals, trips)
}

// warnIncomplete reports a degraded answer's missing shards on stderr —
// loudly, but out of stdout so result pipelines stay comparable.
func warnIncomplete(wb *core.Workbench, status engine.QueryStatus) {
	if status.Complete() {
		return
	}
	mask := status.IncompleteMask(wb.Engine.NumShards())
	log.Printf("warning: %s (incomplete mask %v)", status, mask.Ones())
}

// sourceFlags registers on fs the flags that say where the population comes
// from, and returns the loader to call once fs is parsed. remote adds
// -shards and -degraded; the subcommands that need the histories locally
// (and spell their own shard *count* -shards) pass false.
func sourceFlags(fs *flag.FlagSet, remote bool) (load func() (*core.Workbench, model.Period, error)) {
	dataDir := fs.String("data", "", "registry extract directory (from datagen)")
	synthN := fs.Int("synth", 0, "generate a synthetic population of this size instead")
	snapshotPath := fs.String("snapshot", "", "reopen a saved snapshot (and its cohort workspace) instead of ingesting")
	shardAddrs, degraded := new(string), new(bool)
	if remote {
		fs.StringVar(shardAddrs, "shards", "", "comma-separated shard-server addresses to run across; \"a|b\" groups replicas serving the same shards")
		fs.BoolVar(degraded, "degraded", false, "with -shards: answer over reachable shards when some are down, reporting which are missing (default: any down shard is an error)")
	}
	return func() (*core.Workbench, model.Period, error) {
		window := model.Period{Start: model.Date(2010, 1, 1), End: model.Date(2012, 1, 1)}
		switch {
		case *shardAddrs != "":
			addrs := strings.Split(*shardAddrs, ",")
			opts := engine.DefaultOptions()
			if *degraded {
				opts.Policy = engine.PolicyDegraded
			}
			t0 := time.Now()
			wb, err := core.Connect(addrs, engine.RemoteOptions{}, opts, window)
			if err != nil {
				return nil, window, err
			}
			fmt.Printf("connected to %d shards on %d servers in %s\n",
				wb.Engine.NumShards(), len(addrs), time.Since(t0).Round(time.Millisecond))
			return wb, window, nil
		case *snapshotPath != "":
			f, err := os.Open(*snapshotPath)
			if err != nil {
				return nil, window, err
			}
			defer f.Close()
			t0 := time.Now()
			wb, err := core.Open(f, window)
			if err != nil {
				return nil, window, err
			}
			fmt.Printf("reopened %s snapshot (%d shards) in %s\n",
				wb.Snapshot.Format(), wb.Snapshot.Shards, time.Since(t0).Round(time.Millisecond))
			return wb, window, nil
		case *dataDir != "":
			bundle, err := sources.ReadDir(*dataDir)
			if err != nil {
				return nil, window, err
			}
			wb, err := core.FromBundle(bundle, integrate.DefaultOptions(), window)
			return wb, window, err
		case *synthN > 0:
			cfg := synth.DefaultConfig(*synthN)
			wb, err := core.Synthesize(cfg)
			return wb, cfg.Window(), err
		default:
			return nil, window, fmt.Errorf("need -data DIR, -synth N, -snapshot FILE or -shards ADDRS")
		}
	}
}

// saveSnapshot writes the workbench to path so that path only ever holds
// a complete snapshot: the bytes go to a temp file next to it, are synced,
// and replace path with one rename. A failed save — or a crash mid-write —
// leaves whatever was at path (for `cohort save|refine` the input snapshot
// itself) untouched, and the temp file is removed on any error. shards 0
// means match the engine.
func saveSnapshot(wb *core.Workbench, path string, shards int) (info *store.SnapshotInfo, err error) {
	// The pid makes the name unique and O_EXCL refuses to reuse a stale one;
	// unlike a CreateTemp file (0600) the snapshot keeps the umask-derived
	// mode it has always had.
	tmp := fmt.Sprintf("%s.tmp-%d", path, os.Getpid())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed one is harmless
			os.Remove(tmp)
		}
	}()
	if info, err = wb.Save(f, core.SnapshotOptions{Shards: shards}); err != nil {
		return nil, err
	}
	if err = f.Sync(); err != nil {
		return nil, err
	}
	if err = f.Close(); err != nil {
		return nil, err
	}
	if err = os.Rename(tmp, path); err != nil {
		return nil, err
	}
	return info, nil
}

// runShardServer serves shards of a snapshot over the wire protocol
// until killed.
func runShardServer(args []string) {
	fs := flag.NewFlagSet("cohortctl shard-server", flag.ExitOnError)
	snapshot := fs.String("snapshot", "", "snapshot file to serve from")
	serve := fs.String("serve", "", "comma-separated shard ids to serve (empty = all)")
	listen := fs.String("listen", "127.0.0.1:7070", "address to listen on")
	fs.Parse(args)
	if *snapshot == "" {
		log.Fatal("need -snapshot FILE")
	}
	var ids []int
	if *serve != "" {
		for _, part := range strings.Split(*serve, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				log.Fatalf("bad shard id %q", part)
			}
			ids = append(ids, id)
		}
	}
	t0 := time.Now()
	srv, err := engine.NewShardServer(*snapshot, ids, engine.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	patients, entries := 0, 0
	for _, m := range srv.Metas() {
		patients += m.Patients
		entries += m.Entries
	}
	lis, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("serving %d shards (%d patients, %d entries) from %s on %s (loaded in %s)\n",
		len(srv.Metas()), patients, entries, *snapshot, lis.Addr(), time.Since(t0).Round(time.Millisecond))

	// Graceful shutdown: SIGINT/SIGTERM closes the listener and drains
	// in-flight RPCs (their responses flush to the clients) instead of
	// dying mid-call — so supervisor teardown, Ctrl-C and the CI e2e
	// job's trap all leave clients with complete answers, never EOF
	// halfway through a bitset.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	err = serveUntil(ctx, func() error { return srv.Serve(lis) }, func() error {
		fmt.Println("shutting down, draining in-flight RPCs")
		return srv.Shutdown(10 * time.Second)
	}, engine.ErrServerClosed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("shard server stopped")
}

// serveUntil runs serve — which blocks until its listener closes — and,
// once ctx ends, drain, which closes the listener and waits for the calls
// in flight. closed is what serve returns for a listener drain closed. It
// returns only after the drain has finished: serve returns as soon as the
// listener closes, and a process that exited then would sever the very
// calls the drain is still flushing.
func serveUntil(ctx context.Context, serve, drain func() error, closed error) error {
	drained := make(chan error, 1)
	stop := context.AfterFunc(ctx, func() { drained <- drain() })
	err := serve()
	if stop() {
		return err // serve failed on its own; ctx never ended
	}
	if derr := <-drained; errors.Is(err, closed) {
		return derr
	}
	return err
}

// runServe runs the personal-timeline web service over any source.
func runServe(args []string) {
	fs := flag.NewFlagSet("cohortctl serve", flag.ExitOnError)
	load := sourceFlags(fs, true)
	addr := fs.String("addr", ":8080", "listen address")
	password := fs.String("password", "tromsø", "sample password ('' = open)")
	fs.Parse(args)
	wb, _, err := load()
	if err != nil {
		log.Fatal(err)
	}
	if wb.Store != nil {
		wb.Store.Pin().Frame() // built before listening: no analyst request pays for it
	}
	lis, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d patients (%d entries)\n", wb.Patients(), wb.Entries())
	fmt.Printf("serving on %s — try /timeline?patient=1&pw=%s\n", lis.Addr(), *password)
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := serveHTTP(ctx, lis, wb, *password); err != nil {
		log.Fatal(err)
	}
	fmt.Println("web server stopped")
}

// serveHTTP answers HTTP on lis until ctx ends, then lets the requests in
// flight finish and closes the workbench (remote connections, replica
// health loops).
func serveHTTP(ctx context.Context, lis net.Listener, wb *core.Workbench, password string) error {
	defer wb.Close()
	hs := &http.Server{
		Handler:           webapp.NewServer(wb, webapp.Config{Password: password, MaxCohortSample: 100}),
		ReadHeaderTimeout: 10 * time.Second,
	}
	return serveUntil(ctx, func() error { return hs.Serve(lis) }, func() error {
		ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 10*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}, http.ErrServerClosed)
}

// runIngest loads a workbench locally, feeds it one or more append-round
// bundle directories (datagen -append emits them), and optionally folds
// the delta and re-saves the result as a snapshot — the command-line face
// of the live-ingest path.
func runIngest(args []string) {
	fs := flag.NewFlagSet("cohortctl ingest", flag.ExitOnError)
	load := sourceFlags(fs, false)
	feed := fs.String("feed", "", "comma-separated bundle directories to append, in order")
	compact := fs.Bool("compact", false, "fold the delta into containerized postings after the feed")
	out := fs.String("out", "", "save the post-ingest workbench as a sharded snapshot")
	shards := fs.Int("shards", 0, "shard count for -out (0 = GOMAXPROCS)")
	fs.Parse(args)
	if *feed == "" {
		log.Fatal("need -feed DIR[,DIR...]")
	}

	wb, _, err := load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d patients, %d entries\n", wb.Patients(), wb.Entries())

	for _, dir := range strings.Split(*feed, ",") {
		dir = strings.TrimSpace(dir)
		bundle, err := sources.ReadDir(dir)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		if err := wb.Append(bundle); err != nil {
			log.Fatalf("%s: %v", dir, err)
		}
		st, _ := wb.IngestStats()
		fmt.Printf("appended %s: %d records in %s (generation %d, delta %d entries / %d patients)\n",
			dir, bundle.TotalRecords(), time.Since(t0).Round(time.Millisecond),
			st.Generation, st.DeltaEntries, st.DeltaPatients)
	}

	if *compact {
		stats, err := wb.Compact()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("compacted %d entries / %d patients (%d lists) in %s\n",
			stats.LastEntries, stats.LastPatients, stats.LastLists,
			stats.LastDuration.Round(time.Millisecond))
	}

	rep := wb.IngestReport()
	fmt.Println(rep.String())
	st, _ := wb.IngestStats()
	fmt.Printf("now %d patients, %d entries (generation %d, %d batches, %d compactions)\n",
		wb.Patients(), wb.Entries(), st.Generation, st.Batches, st.Compactions)

	if *out != "" {
		info, err := saveSnapshot(wb, *out, *shards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %s snapshot (%d shards) to %s\n", info.Format(), info.Shards, *out)
	}
}

// runCohortCmd dispatches the cohort workspace subcommands: save a named
// cohort into a snapshot's workspace, list a snapshot's cohorts, refine
// one incrementally (only the delta executes, masked by the saved
// bitset), and compare two cohorts' profiles. save and refine write the
// updated workspace back as a snapshot (in place unless -out names a
// different file).
func runCohortCmd(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: cohortctl cohort save|list|refine|compare|drop [flags]")
	}
	sub := args[0]
	fs := flag.NewFlagSet("cohortctl cohort "+sub, flag.ExitOnError)
	load := sourceFlags(fs, false)
	var name, queryFile, out, cohortA, cohortB *string
	switch sub {
	case "save", "refine":
		name = fs.String("name", "", "cohort name to save the result under")
		queryFile = fs.String("query", "", "JSON query-spec file")
		out = fs.String("out", "", "snapshot file to write the updated workspace to (default: -snapshot, in place)")
	case "drop":
		name = fs.String("name", "", "cohort name to drop")
		out = fs.String("out", "", "snapshot file to write the updated workspace to (default: -snapshot, in place)")
	case "compare":
		cohortA = fs.String("a", "", "first cohort name")
		cohortB = fs.String("b", "", "second cohort name")
	case "list":
	default:
		log.Fatalf("unknown cohort subcommand %q (want save, list, refine, compare or drop)", sub)
	}
	fs.Parse(args[1:])

	wb, _, err := load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded %d patients, %d entries, %d saved cohorts\n", wb.Patients(), wb.Entries(), len(wb.Cohorts()))

	persist := func() {
		path := ""
		if out != nil {
			path = *out
		}
		if path == "" {
			path = fs.Lookup("snapshot").Value.String()
		}
		if path == "" {
			log.Print("warning: no -out and no -snapshot input; the workspace change was not persisted")
			return
		}
		info, err := saveSnapshot(wb, path, 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %s snapshot (%d shards, %d cohorts) to %s\n", info.Format(), info.Shards, info.Cohorts, path)
	}

	switch sub {
	case "save":
		if *name == "" || *queryFile == "" {
			log.Fatal("need -name NAME and -query FILE")
		}
		expr, err := loadQueryExpr(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		info, err := wb.SaveCohort(*name, expr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cohort %q: %d of %d patients in %s (generation %d)\n",
			info.Name, info.Count, wb.Patients(), time.Since(t0).Round(time.Microsecond), info.Generation)
		persist()
	case "refine":
		if *name == "" || *queryFile == "" {
			log.Fatal("need -name NAME and -query FILE")
		}
		expr, err := loadQueryExpr(*queryFile)
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		info, ref, err := wb.RefineCohort(*name, expr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("refinement: %s\n", ref)
		fmt.Printf("cohort %q: %d of %d patients in %s (generation %d)\n",
			info.Name, info.Count, wb.Patients(), time.Since(t0).Round(time.Microsecond), info.Generation)
		persist()
	case "list":
		cohorts := wb.Cohorts()
		if len(cohorts) == 0 {
			fmt.Println("no saved cohorts")
			return
		}
		for _, c := range cohorts {
			fmt.Printf("  %-24s %8d patients  generation %d  %s\n", c.Name, c.Count, c.Generation, c.Expr)
		}
	case "compare":
		if *cohortA == "" || *cohortB == "" {
			log.Fatal("need -a NAME and -b NAME")
		}
		cmp, err := wb.CompareCohorts(*cohortA, *cohortB)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("overlap: %d in both, %d only in %q, %d only in %q\n\n",
			cmp.Both, cmp.OnlyA, cmp.A.Name, cmp.OnlyB, cmp.B.Name)
		fmt.Printf("── %s (%d patients) ──\n%s\n", cmp.A.Name, cmp.A.Count, cmp.ProfileA.Table())
		fmt.Printf("── %s (%d patients) ──\n%s", cmp.B.Name, cmp.B.Count, cmp.ProfileB.Table())
	case "drop":
		if *name == "" {
			log.Fatal("need -name NAME")
		}
		if !wb.DropCohort(*name) {
			log.Fatalf("no cohort %q", *name)
		}
		fmt.Printf("dropped cohort %q\n", *name)
		persist()
	}
}

// runAnalyze dispatches the cohort-analytics subcommands. Each runs one
// registered analytics kind over a cohort — a saved one named with
// -cohort, or an ad-hoc one defined by -query/-study — through the same
// map-reduce path whatever the topology, so stdout is byte-comparable
// between a -snapshot run and a -shards run over the same data. Load
// progress and degradation warnings go to stderr, results to stdout.
func runAnalyze(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: cohortctl analyze mine|episodes|scenario|cluster [flags]")
	}
	kind := args[0]
	fs := flag.NewFlagSet("cohortctl analyze "+kind, flag.ExitOnError)
	load := sourceFlags(fs, true)
	cohortName := fs.String("cohort", "", "saved cohort to analyze")
	queryFile := fs.String("query", "", "JSON query-spec file defining an ad-hoc cohort")
	study := fs.Bool("study", false, "use the paper's predefined-characteristics selection as the cohort")
	gapDays := fs.Int("gap", 90, "episode gap in days (episodes, scenario)")

	var sequential, chapter *bool
	var maxGap, minCount, top, k *int
	var minSupport *float64
	var system, steps, relations *string
	switch kind {
	case "mine":
		sequential = fs.Bool("sequential", false, "mine A-then-B ordering rules instead of co-occurrence")
		maxGap = fs.Int("max-gap", 0, "max position distance for sequential pairs (0 = unbounded)")
		system = fs.String("system", "", "restrict to one coding system (e.g. ICPC2; empty = all)")
		chapter = fs.Bool("chapter", false, "mine over chapter labels instead of full codes")
		minSupport = fs.Float64("min-support", 0, "minimum support fraction (0 = default)")
		minCount = fs.Int("min-count", 0, "minimum absolute pair count (0 = default)")
		top = fs.Int("top", 20, "rules to print (0 = all)")
	case "episodes":
	case "scenario":
		steps = fs.String("steps", "", "comma-separated step labels (episode chapter labels)")
		relations = fs.String("relations", "", `pairwise constraints "i:j:rel[,rel...]" joined with ";" (e.g. "0:1:before;1:2:before,meets")`)
	case "cluster":
		k = fs.Int("k", 2, "number of clusters")
	default:
		log.Fatalf("unknown analyze subcommand %q (want mine, episodes, scenario or cluster)", kind)
	}
	fs.Parse(args[1:])

	wb, window, err := load()
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("loaded %d patients, %d entries, %d saved cohorts", wb.Patients(), wb.Entries(), len(wb.Cohorts()))

	name := *cohortName
	if name == "" {
		var expr query.Expr
		switch {
		case *study:
			expr = core.StudyCriteria(window)
		case *queryFile != "":
			if expr, err = loadQueryExpr(*queryFile); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatal("need -cohort NAME, -query FILE or -study")
		}
		info, err := wb.SaveCohort("analyze-adhoc", expr)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("ad-hoc cohort: %d of %d patients", info.Count, wb.Patients())
		name = info.Name
	}

	gap := model.Time(*gapDays) * model.Day
	switch kind {
	case "mine":
		p := engine.MineParams{Sequential: *sequential, MaxGap: *maxGap, System: *system, Chapter: *chapter}
		opt := mining.Options{MinSupport: *minSupport, MinCount: *minCount, MaxGap: *maxGap}
		rules, info, status, err := wb.MineRules(name, p, opt)
		if err != nil {
			log.Fatal(err)
		}
		warnIncomplete(wb, status)
		if *top > 0 {
			rules = mining.Top(rules, *top)
		}
		fmt.Printf("cohort %q: %d patients\n", info.Name, info.Count)
		fmt.Printf("rules: %d\n", len(rules))
		for _, r := range rules {
			fmt.Printf("  %s\n", r)
		}
	case "episodes":
		tally, info, status, err := wb.Episodes(name, gap)
		if err != nil {
			log.Fatal(err)
		}
		warnIncomplete(wb, status)
		fmt.Printf("cohort %q: %d patients\n", info.Name, info.Count)
		fmt.Printf("histories: %d  with episodes: %d\n", tally.Histories, tally.WithEpisodes)
		fmt.Printf("episodes: %d over %d entries\n", tally.Episodes, tally.Entries)
		if tally.Episodes > 0 {
			fmt.Printf("mean entries/episode: %.2f  mean span: %.1f days\n",
				float64(tally.Entries)/float64(tally.Episodes),
				float64(tally.SpanTotal)/float64(tally.Episodes)/float64(model.Day))
		}
		keys := make([]string, 0, len(tally.ByDominant))
		for ch := range tally.ByDominant {
			keys = append(keys, ch)
		}
		sort.Strings(keys)
		for _, ch := range keys {
			fmt.Printf("  chapter %-4s %d episodes\n", ch, tally.ByDominant[ch])
		}
	case "scenario":
		sc, err := parseScenario(*steps, *relations)
		if err != nil {
			log.Fatal(err)
		}
		tally, info, status, err := wb.MatchScenario(name, gap, sc)
		if err != nil {
			log.Fatal(err)
		}
		warnIncomplete(wb, status)
		fmt.Printf("cohort %q: %d patients\n", info.Name, info.Count)
		fmt.Printf("histories: %d  bound: %d  matched: %d\n", tally.Histories, tally.Bound, tally.Matched)
		if tally.Histories > 0 {
			fmt.Printf("match rate: %.4f\n", float64(tally.Matched)/float64(tally.Histories))
		}
	case "cluster":
		clusters, info, err := wb.ClusterCohort(name, *k)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cohort %q: %d patients (%d with diagnosis sequences)\n", info.Name, clusters.Histories, clusters.Clustered)
		fmt.Printf("silhouette: %.4f\n", clusters.Silhouette)
		for i, size := range clusters.Sizes {
			fmt.Printf("  cluster %d: %d members", i, size)
			show := clusters.Members[i]
			if len(show) > 8 {
				show = show[:8]
			}
			for _, id := range show {
				fmt.Printf(" %s", id)
			}
			if size > len(show) {
				fmt.Printf(" …")
			}
			fmt.Println()
		}
	}
}

// parseScenario compiles the CLI scenario flags: step labels plus
// "i:j:rel" constraints with temporal.ParseRel relation names.
func parseScenario(steps, relations string) (temporal.Scenario, error) {
	var sc temporal.Scenario
	if steps == "" {
		return sc, fmt.Errorf("need -steps LABEL[,LABEL...]")
	}
	for _, s := range strings.Split(steps, ",") {
		sc.Steps = append(sc.Steps, strings.TrimSpace(s))
	}
	if relations != "" {
		for _, part := range strings.Split(relations, ";") {
			fields := strings.SplitN(strings.TrimSpace(part), ":", 3)
			if len(fields) != 3 {
				return sc, fmt.Errorf("bad relation %q (want i:j:rel)", part)
			}
			i, err1 := strconv.Atoi(strings.TrimSpace(fields[0]))
			j, err2 := strconv.Atoi(strings.TrimSpace(fields[1]))
			if err1 != nil || err2 != nil {
				return sc, fmt.Errorf("bad relation %q (want i:j:rel)", part)
			}
			rel, err := temporal.ParseRel(fields[2])
			if err != nil {
				return sc, err
			}
			sc.Relations = append(sc.Relations, temporal.StepRel{I: i, J: j, Rel: rel})
		}
	}
	return sc, sc.Validate()
}

// loadQueryExpr reads and compiles a JSON query-spec file.
func loadQueryExpr(path string) (query.Expr, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	spec, err := query.ParseSpec(data)
	if err != nil {
		return nil, err
	}
	return spec.Compile()
}

// runSnapshotCmd dispatches the snapshot save/info subcommands.
func runSnapshotCmd(args []string) {
	if len(args) == 0 {
		log.Fatal("usage: cohortctl snapshot save|info [flags]")
	}
	switch args[0] {
	case "save":
		fs := flag.NewFlagSet("cohortctl snapshot save", flag.ExitOnError)
		load := sourceFlags(fs, false)
		out := fs.String("out", "wb.snap", "output snapshot file")
		shards := fs.Int("shards", 0, "shard count (0 = GOMAXPROCS)")
		fs.Parse(args[1:])
		wb, _, err := load()
		if err != nil {
			log.Fatal(err)
		}
		t0 := time.Now()
		info, err := saveSnapshot(wb, *out, *shards)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("saved %d patients, %d entries to %s: %s, %d shards, %d bytes in %s\n",
			info.Patients, info.Entries, *out, info.Format(), info.Shards,
			info.Bytes, time.Since(t0).Round(time.Millisecond))
	case "info":
		fs := flag.NewFlagSet("cohortctl snapshot info", flag.ExitOnError)
		in := fs.String("in", "", "snapshot file to inspect")
		fs.Parse(args[1:])
		path := *in
		if path == "" && fs.NArg() > 0 {
			path = fs.Arg(0)
		}
		if path == "" {
			log.Fatal("need -in FILE")
		}
		f, err := os.Open(path)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		info, err := store.Inspect(f)
		if err != nil {
			log.Fatal(err)
		}
		// One write for the whole report: `snapshot info … | grep -q X`
		// (CI's live-ingest step, under pipefail) closes the pipe at the
		// first match, and a later line's write would die of SIGPIPE.
		out := bufio.NewWriterSize(os.Stdout, 1<<16)
		defer out.Flush()
		fmt.Fprintf(out, "format:   %s\n", info.Format())
		fmt.Fprintf(out, "shards:   %d\n", info.Shards)
		fmt.Fprintf(out, "patients: %d\n", info.Patients)
		fmt.Fprintf(out, "entries:  %d\n", info.Entries)
		fmt.Fprintf(out, "bytes:    %d\n", info.Bytes)
		if info.Generation > 0 {
			fmt.Fprintf(out, "ingest:   generation %d, %d compactions, delta at save: %d entries / %d patients\n",
				info.Generation, info.Compactions, info.DeltaEntries, info.DeltaPatients)
		}
		if info.Cohorts > 0 {
			fmt.Fprintf(out, "cohorts:  %d (%d bytes, crc32c %08x)\n", info.Cohorts, info.CohortBytes, info.CohortChecksum)
		}
		for _, sh := range info.ShardDetail {
			fmt.Fprintf(out, "  shard %d: offset %d, %d bytes, %d patients, %d entries, crc32c %08x\n",
				sh.Shard, sh.Offset, sh.Bytes, sh.Patients, sh.Entries, sh.Checksum)
		}
		if len(info.Postings) > 0 {
			var tb int64
			var tl, ta, tm, tr int
			fmt.Fprintf(out, "postings (containerized indexes):\n")
			for _, pi := range info.Postings {
				fmt.Fprintf(out, "  shard %d: %d bytes, %d lists (%d array / %d bitmap / %d run containers), crc32c %08x\n",
					pi.Shard, pi.Bytes, pi.Lists, pi.Arrays, pi.Bitmaps, pi.Runs, pi.Checksum)
				tb += pi.Bytes
				tl += pi.Lists
				ta += pi.Arrays
				tm += pi.Bitmaps
				tr += pi.Runs
			}
			fmt.Fprintf(out, "  total:   %d bytes, %d lists (%d array / %d bitmap / %d run containers)\n",
				tb, tl, ta, tm, tr)
		}
	default:
		log.Fatalf("unknown snapshot subcommand %q (want save or info)", args[0])
	}
}
