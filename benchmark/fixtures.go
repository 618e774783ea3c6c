package main

// Fixtures and topologies. Everything is built from scratch on every run
// — there is no on-disk fixture cache, because a stale cache would hide
// set-up regressions — and the fixture seed is fixed: it is the dataset.

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pastas/internal/core"
	"pastas/internal/engine"
	"pastas/internal/integrate"
	"pastas/internal/model"
	"pastas/internal/store"
	"pastas/internal/synth"
)

const (
	richPatients = 168000  // the paper's population
	thinPatients = 1000000 // the E12 hand-built collection
	snapShards   = 8
)

// fanOutWorkers is how many per-shard calls the engine keeps in flight: as
// many as the box has cores, up to four.
var fanOutWorkers = min(runtime.NumCPU(), 4)

// engineOptions pins the engine instead of taking engine.DefaultOptions,
// which reads GOMAXPROCS: eight shards, fanOutWorkers, and the cache size
// the workload asks for (128 is the shipped default).
func engineOptions(cacheSize int) engine.Options {
	return engine.Options{Shards: snapShards, Workers: fanOutWorkers, CacheSize: cacheSize}
}

// serverOptions is what each shard server's per-shard engines run with:
// cohortctl shard-server's defaults on the two-core reference box.
func serverOptions() engine.Options {
	return engine.Options{Shards: 2, Workers: 2, CacheSize: 128}
}

// phases records how long each named part of set-up took.
type phases map[string]float64

func (p phases) timed(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	p[name] += time.Since(t0).Seconds()
	return err
}

// buildRich is core.Synthesize(synth.DefaultConfig(168000)) with its
// three phases timed apart and the engine options pinned.
func buildRich(ph phases) (*core.Workbench, error) {
	cfg := synth.DefaultConfig(richPatients)
	t0 := time.Now()
	bundle := synth.Generate(cfg)
	ph["synth.generate_s"] = time.Since(t0).Seconds()
	var col *model.Collection
	var rep *integrate.Report
	err := ph.timed("integrate.build_s", func() error {
		var err error
		col, rep, err = integrate.Build(bundle, integrate.DefaultOptions())
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("rich fixture: %w", err)
	}
	t0 = time.Now()
	st := store.New(col)
	ph["store.new_s"] = time.Since(t0).Seconds()
	return &core.Workbench{
		Store:  st,
		Engine: engine.New(st, engineOptions(128)),
		Report: rep,
		Window: cfg.Window(),
	}, nil
}

// thinStore is the E12 collection at n patients: every patient carries two
// measurements, i%100 and 1000+(37i)%100, so ValueBetween bands have
// exactly controlled and perfectly correlated selectivities.
func thinStore(n int) *store.Store {
	base := model.Date(2010, 6, 1)
	hs := make([]*model.History, n)
	for i := range hs {
		h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1955, 1, 1)})
		h.Add(model.Entry{
			ID: uint64(2 * i), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: float64(i % 100),
		})
		h.Add(model.Entry{
			ID: uint64(2*i + 1), Kind: model.Point, Start: base, End: base,
			Type: model.TypeMeasurement, Source: model.Source(1), Value: 1000 + float64((i*37)%100),
		})
		hs[i] = h
	}
	return store.New(model.MustCollection(hs...))
}

// vocabOf reads the spec templates' vocabulary off a store.
func vocabOf(st *store.Store) vocab {
	stats := st.Stats()
	var v vocab
	for _, c := range st.DistinctCodes() {
		v.codes = append(v.codes, vocabCode{System: c.System, Value: c.Value, Card: stats.CodeCard(c.System, c.Value)})
	}
	sort.Slice(v.codes, func(i, j int) bool {
		a, b := v.codes[i], v.codes[j]
		if a.System != b.System {
			return a.System < b.System
		}
		return a.Value < b.Value
	})
	return v
}

// workDir is the run's scratch directory, inside the checkout the
// benchmark was started from (it must not write anywhere else).
func newWorkDir() (string, error) {
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "run-")
}

// saveSnapshot writes the workbench as an 8-shard snapshot and returns
// its path and size.
func saveSnapshot(wb *core.Workbench, dir, name string) (string, *store.SnapshotInfo, error) {
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", nil, err
	}
	info, err := wb.Save(f, core.SnapshotOptions{Shards: snapShards})
	if err != nil {
		f.Close()
		return "", nil, fmt.Errorf("save snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", nil, fmt.Errorf("save snapshot: %w", err)
	}
	return path, info, nil
}

// openSnapshot reopens a snapshot into a mutable local workbench with the
// pinned engine options.
func openSnapshot(path string, window model.Period) (*core.Workbench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	wb, err := core.Open(f, window)
	if err != nil {
		return nil, err
	}
	wb.Engine = engine.New(wb.Store, engineOptions(128))
	return wb, nil
}

// countingListener counts the bytes every accepted connection moves — the
// only way to see wire volume without touching the program.
type countingListener struct {
	net.Listener
	bytes *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: c, bytes: l.bytes}, nil
}

type countingConn struct {
	net.Conn
	bytes *atomic.Int64
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.bytes.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.bytes.Add(int64(n))
	return n, err
}

// cluster is two in-process loopback shard servers (shards 0–3 and 4–7 of
// one snapshot) and a coordinator connected to them: real TCP, real
// net/rpc, no child processes — with two cores, extra processes would
// measure the scheduler.
type cluster struct {
	servers []*engine.ShardServer
	lis     []net.Listener
	addrs   []string
	served  sync.WaitGroup
	wire    atomic.Int64 // bytes in both directions, all connections
	wb      *core.Workbench
}

func startCluster(path string, window model.Period, ph phases) (*cluster, error) {
	c := &cluster{}
	for _, ids := range [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}} {
		var srv *engine.ShardServer
		err := ph.timed("store.openshards_s", func() error {
			var err error
			srv, err = engine.NewShardServer(path, ids, serverOptions())
			return err
		})
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("shard server %v: %w", ids, err)
		}
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			c.stop()
			return nil, err
		}
		c.servers = append(c.servers, srv)
		c.lis = append(c.lis, lis)
		c.addrs = append(c.addrs, lis.Addr().String())
		c.served.Add(1)
		go func() {
			defer c.served.Done()
			_ = srv.Serve(countingListener{Listener: lis, bytes: &c.wire}) // returns ErrServerClosed on Shutdown
		}()
	}
	wb, err := core.Connect(c.addrs, engine.RemoteOptions{}, engineOptions(128), window)
	if err != nil {
		c.stop()
		return nil, fmt.Errorf("connect: %w", err)
	}
	c.wb = wb
	return c, nil
}

// stop closes the coordinator's connections, shuts the servers down and
// waits for their accept loops; a hang here fails the run instead of
// leaking into the next one's set-up time.
func (c *cluster) stop() error {
	var first error
	if c.wb != nil {
		if err := c.wb.Close(); err != nil {
			first = err
		}
		c.wb = nil
	}
	for _, srv := range c.servers {
		if err := srv.Shutdown(5 * time.Second); err != nil && first == nil {
			first = err
		}
	}
	// Shutdown closes the listeners Serve has registered; close them here
	// too, so a server stopped before its accept loop started still ends.
	for _, lis := range c.lis {
		lis.Close()
	}
	c.servers, c.lis = nil, nil
	c.served.Wait()
	return first
}
