package engine

// The remote shard transport: a net/rpc wire protocol (gob-framed over
// TCP) between a coordinating engine and shard servers. A shard server
// pages its assigned shards out of a snapshot with
// store.OpenShards — only those segments are ever read — indexes each as
// a dedicated store, and answers plan evaluations through a per-shard
// engine, re-optimized against the shard's own statistics. The client
// side wraps each served shard as a ShardBackend over its server group —
// one server, or replicas of it — whose one attempt loop (rpcCall) bounds
// every call by a per-call timeout and redials, retries or fails over;
// server-side evaluation errors are returned verbatim and never retried
// (they are deterministic), while transport errors reset the connection.
//
// There is one framing: plans (wire.go's tagged form), analyzer parameters
// and partials are typed fields of the RPC structs on the connection's own
// gob stream; only what the store checksums and validates with its own
// codecs — bitsets, statistics, history segments — crosses as bytes. Every
// cohort operation is one call per server: Eval, Analyze, Fetch and IDs
// list the server's shards they concern as items.

import (
	"context"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"net/rpc"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pastas/internal/model"
	"pastas/internal/store"
)

// rpcServiceName is the registered net/rpc service.
const rpcServiceName = "PastasShard"

// maskCRCTable checksums container-encoded masks shipped to shards
// (crc32c, the same polynomial the snapshot format uses). The bitset
// codec validates structure; the checksum catches the corruption class
// structure validation can miss — a bit flip inside a container payload
// that still decodes to a plausible bitset would silently evaluate the
// delta over the wrong candidates.
var maskCRCTable = crc32.MakeTable(crc32.Castagnoli)

// encodeMask container-encodes a shard-local mask for the wire, with the
// checksum the server validates it against.
func encodeMask(mask *store.Bitset) ([]byte, uint32, error) {
	data, err := mask.MarshalBinary()
	if err != nil {
		return nil, 0, err
	}
	return data, crc32.Checksum(data, maskCRCTable), nil
}

// decodeMask is the one validate path for a shipped mask, shared by every
// mask-carrying RPC: checksum before any decode work (crc 0 with a
// non-empty mask means the client predates the checksum, which no
// supported client does — refuse loudly), then structure, then the shard's
// population. Empty data is "no mask" (nil, nil).
func decodeMask(data []byte, crc uint32, patients int) (*store.Bitset, error) {
	if len(data) == 0 {
		return nil, nil
	}
	if got := crc32.Checksum(data, maskCRCTable); got != crc {
		return nil, fmt.Errorf("engine: mask checksum mismatch (got %08x, want %08x): corrupt or truncated mask", got, crc)
	}
	mask := new(store.Bitset)
	if err := mask.UnmarshalBinary(data); err != nil {
		return nil, err
	}
	if mask.Len() != patients {
		return nil, fmt.Errorf("engine: mask covers %d patients, shard has %d", mask.Len(), patients)
	}
	return mask, nil
}

// servedShard is one shard a server answers for.
type servedShard struct {
	meta ShardMeta
	eng  *Engine
}

// ShardServer serves one or more shards of a snapshot over net/rpc.
type ShardServer struct {
	rpc    *rpc.Server
	shards map[int]*servedShard
	metas  []ShardMeta
	// totalPatients is the snapshot's full population — what every
	// server of the same snapshot reports, so a client can verify its
	// assembled topology covers the whole ordinal space.
	totalPatients int
	// workers bounds how many items of one call run at once (spread), and
	// the goroutines each item's scan or tally runs on.
	workers int

	// Graceful-shutdown state: Shutdown flips closing, closes the
	// listeners Serve registered, and drains the in-flight RPCs so a
	// SIGTERM mid-call finishes the call instead of killing it.
	closing   atomic.Bool
	inflight  sync.WaitGroup
	mu        sync.Mutex
	listeners []net.Listener
}

// NewShardServer opens the given shards of a sharded snapshot (no ids
// = every shard) and builds a per-shard engine over each. Only the
// header and the assigned segments are read from the file; each shard's
// indexes are restored from its postings segment instead of being
// rebuilt from the entries.
func NewShardServer(snapshotPath string, ids []int, opts Options) (*ShardServer, error) {
	opened, info, err := store.OpenShards(snapshotPath, ids...)
	if err != nil {
		return nil, err
	}
	s := &ShardServer{
		rpc:           rpc.NewServer(),
		shards:        make(map[int]*servedShard, len(opened)),
		totalPatients: info.Patients,
		workers:       normalizeWorkers(opts.Workers),
	}
	for _, sh := range opened {
		st, err := sh.Store()
		if err != nil {
			return nil, fmt.Errorf("engine: shard server: shard %d: %w", sh.Shard, err)
		}
		st.Pin().Frame() // a shard server analyses: built before it listens
		served := &servedShard{
			meta: ShardMeta{
				Shard:    sh.Shard,
				Offset:   sh.Offset,
				Patients: st.Len(),
				Entries:  sh.Col.TotalEntries(),
			},
			eng: New(st, opts),
		}
		s.shards[sh.Shard] = served
		s.metas = append(s.metas, served.meta)
	}
	if err := s.rpc.RegisterName(rpcServiceName, &ShardRPC{s: s}); err != nil {
		return nil, fmt.Errorf("engine: shard server: %w", err)
	}
	return s, nil
}

// Metas returns the served shards' metadata (offsets are global patient
// ordinals from the snapshot's shard table).
func (s *ShardServer) Metas() []ShardMeta { return append([]ShardMeta(nil), s.metas...) }

// ErrServerClosed is what Serve returns after Shutdown closed its
// listener — the clean-exit signal, mirroring net/http.ErrServerClosed.
var ErrServerClosed = errors.New("engine: shard server closed")

// Serve accepts connections until the listener closes; each connection
// gets its own goroutine. After Shutdown, Serve returns ErrServerClosed
// instead of the listener's close error.
func (s *ShardServer) Serve(lis net.Listener) error {
	s.mu.Lock()
	s.listeners = append(s.listeners, lis)
	s.mu.Unlock()
	for {
		conn, err := lis.Accept()
		if err != nil {
			if s.closing.Load() {
				return ErrServerClosed
			}
			return err
		}
		go s.rpc.ServeConn(conn)
	}
}

// Shutdown stops the server gracefully: no new connections are accepted
// (every listener Serve registered is closed), RPCs arriving after the
// call are refused, and in-flight RPCs get up to `timeout` to finish so
// their responses are flushed to the client. Returns an error if the
// drain deadline passes with calls still running.
func (s *ShardServer) Shutdown(timeout time.Duration) error {
	// closing is flipped under the same mutex serve takes, so once this
	// critical section ends no new inflight.Add can ever happen — the
	// Wait below can never race an Add from a zero counter (the
	// documented WaitGroup misuse).
	s.mu.Lock()
	s.closing.Store(true)
	for _, lis := range s.listeners {
		lis.Close()
	}
	s.listeners = nil
	s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(timeout):
		return fmt.Errorf("engine: shutdown: in-flight RPCs still running after %s", timeout)
	}
}

// serve is every RPC's preamble. The call is refused once Shutdown began
// and counted in flight until it returns: the check-and-Add runs under the
// mutex Shutdown flips closing under, so every Add strictly precedes
// Shutdown's Wait. A call that lists items (shard non-nil) is refused next
// when malformed as a whole (checkItems), before any work.
func (s *ShardServer) serve(op string, n int, shard func(k int) int, fn func() error) error {
	s.mu.Lock()
	if s.closing.Load() {
		s.mu.Unlock()
		// The distinct drain refusal: clients match drainingMarker in the
		// flattened rpc.ServerError and fail over instead of erroring —
		// an RPC racing Shutdown gets a clean redirect, not a torn
		// connection.
		return fmt.Errorf("engine: shard %s (shutting down)", drainingMarker)
	}
	s.inflight.Add(1)
	s.mu.Unlock()
	defer s.inflight.Done()
	if shard != nil {
		if err := s.checkItems(op, n, shard); err != nil {
			return err
		}
	}
	return fn()
}

func (s *ShardServer) shard(id int) (*servedShard, error) {
	sh, ok := s.shards[id]
	if !ok {
		return nil, fmt.Errorf("engine: shard server does not serve shard %d", id)
	}
	return sh, nil
}

// ShardItem is one shard's share of a mask-carrying call — Eval, Analyze,
// IDs: the shard and, when Mask is non-empty, a container-encoded
// shard-local bitset with MaskCRC its crc32c — checked before the mask is
// decoded, so a corrupted mask is a loud error, never a wrong answer.
type ShardItem struct {
	Shard   int
	Mask    []byte
	MaskCRC uint32
}

// checkItems refuses a call that is malformed as a whole, before any work:
// no items, more items than served shards, a shard listed twice.
func (s *ShardServer) checkItems(op string, n int, shard func(k int) int) error {
	if n == 0 || n > len(s.shards) {
		return fmt.Errorf("engine: %s lists %d items, server serves %d shards", op, n, len(s.shards))
	}
	seen := make(map[int]bool, n)
	for k := 0; k < n; k++ {
		if seen[shard(k)] {
			return fmt.Errorf("engine: %s lists shard %d twice", op, shard(k))
		}
		seen[shard(k)] = true
	}
	return nil
}

// open is the one validate path of an item: the shard must be served and
// the mask pass decodeMask against its population; the error names it.
func (s *ShardServer) open(it ShardItem) (*servedShard, *store.Bitset, error) {
	sh, err := s.shard(it.Shard)
	if err != nil {
		return nil, nil, err
	}
	mask, err := decodeMask(it.Mask, it.MaskCRC, sh.meta.Patients)
	if err != nil {
		return nil, nil, fmt.Errorf("engine: shard %d: %w", it.Shard, err)
	}
	return sh, mask, nil
}

// ShardRPC is the net/rpc service surface of a ShardServer.
type ShardRPC struct{ s *ShardServer }

// DescribeArgs/DescribeReply: topology handshake. TotalPatients is the
// full population of the snapshot the server loads from — not just its
// own shards — so a client assembling servers can detect incomplete
// coverage.
type DescribeArgs struct{}
type DescribeReply struct {
	Shards        []ShardMeta
	TotalPatients int
}

// Describe lists the shards this server answers for.
func (r *ShardRPC) Describe(_ *DescribeArgs, reply *DescribeReply) error {
	return r.s.serve("describe", 0, nil, func() error {
		reply.Shards = r.s.Metas()
		reply.TotalPatients = r.s.totalPatients
		return nil
	})
}

// StatsArgs/StatsReply: per-shard planner statistics.
type StatsArgs struct{ Shard int }
type StatsReply struct{ Stats []byte }

// Stats returns one shard's marshaled exact cardinalities.
func (r *ShardRPC) Stats(args *StatsArgs, reply *StatsReply) error {
	return r.s.serve("stats", 0, nil, func() error {
		sh, err := r.s.shard(args.Shard)
		if err != nil {
			return err
		}
		reply.Stats, err = sh.eng.Stats().MarshalBinary()
		return err
	})
}

// EvalArgs/EvalReply: plan evaluation over some of the server's shards in
// one round trip. The plan crosses once however many shards evaluate it;
// each item names a shard and the mask restricting its candidates. The
// reply answers item k in Results[k]: the matches, or the error that item
// alone failed with.
type EvalArgs struct {
	Plan  wirePlan
	Items []ShardItem
}
type EvalReply struct{ Results []EvalResult }
type EvalResult struct {
	Bits []byte
	Err  string
}

// Eval rebuilds the plan once and runs it over every listed shard. A
// request that is malformed as a whole (checkItems, a plan that does not
// re-validate) is refused; a fault confined to one item (unknown shard,
// hostile mask, failed evaluation) is that item's error and leaves its
// neighbours' results intact.
func (r *ShardRPC) Eval(args *EvalArgs, reply *EvalReply) error {
	return r.s.serve("eval", len(args.Items), func(k int) int { return args.Items[k].Shard }, func() error {
		p, err := planFromWire(args.Plan)
		if err != nil {
			return err
		}
		reply.Results = make([]EvalResult, len(args.Items))
		spread(context.Background(), r.s.workers, len(args.Items), func(int) func(int) {
			return func(k int) {
				bits, err := r.s.evalShard(p, args.Items[k])
				if err != nil {
					reply.Results[k].Err = err.Error()
					return
				}
				reply.Results[k].Bits = bits
			}
		})
		return nil
	})
}

// evalShard re-optimizes the plan against one shard's own statistics and
// walks it over the shard's engine, returning the encoded matches in
// shard-local ordinal space. A shipped candidate mask is validated before
// any evaluation work and walked with the plan, so the server exploits it
// to skip non-candidates (the ShardBackend contract) instead of paying
// for the full shard and intersecting after.
func (s *ShardServer) evalShard(p Plan, it ShardItem) ([]byte, error) {
	sh, mask, err := s.open(it)
	if err != nil {
		return nil, err
	}
	t := sh.eng.topoNow()
	bits, err := sh.eng.localTree(context.Background(), t).eval(OptimizeWithStats(p, t.stats), mask)
	if err != nil {
		return nil, err
	}
	return bits.MarshalBinary()
}

// IDsArgs/IDsReply: ordinal → patient ID resolution over some of the
// server's shards; item k's mask selects the ordinals IDs[k] answers.
type IDsArgs struct{ Items []ShardItem }
type IDsReply struct{ IDs [][]model.PatientID }

// IDs resolves each item's shard-local bitset to patient IDs in ordinal
// order. Unlike Eval's, an item's fault fails the call, naming the shard: a
// listing with a hole in it is no listing.
func (r *ShardRPC) IDs(args *IDsArgs, reply *IDsReply) error {
	return r.s.serve("ids", len(args.Items), func(k int) int { return args.Items[k].Shard }, func() error {
		reply.IDs = make([][]model.PatientID, len(args.Items))
		for k, it := range args.Items {
			sh, mask, err := r.s.open(it)
			if err != nil {
				return err
			}
			if mask == nil {
				return fmt.Errorf("engine: shard %d: ids item carries no mask", it.Shard)
			}
			reply.IDs[k] = sh.eng.Store().IDsOf(mask)
		}
		return nil
	})
}

// FetchArgs/FetchReply: history materialization over some of the server's
// shards. Item k's ordinals are strictly increasing shard-local positions,
// answered by Segments[k]: the histories in the snapshot segment codec
// (store.EncodeHistories) with a crc32c, so the client's defensive decoder
// validates structure and integrity before a single history is built.
type FetchArgs struct{ Items []FetchItem }
type FetchItem struct {
	Shard    int
	Ordinals []int
}
type FetchReply struct{ Segments []FetchSegment }
type FetchSegment struct {
	Histories []byte
	Checksum  uint32
}

// Fetch materializes the histories at the given shard-local ordinals —
// the wire behind timelines, details-on-demand and a cohort view's rows.
// Ordinals are validated against the shard bounds before any encoding
// work, and the histories are read off a pinned view by position: the
// store's collection is an ID → history map rebuilt after every append.
func (r *ShardRPC) Fetch(args *FetchArgs, reply *FetchReply) error {
	return r.s.serve("fetch", len(args.Items), func(k int) int { return args.Items[k].Shard }, func() error {
		reply.Segments = make([]FetchSegment, len(args.Items))
		for k, it := range args.Items {
			sh, err := r.s.shard(it.Shard)
			if err != nil {
				return err
			}
			if err := validateOrdinals(it.Ordinals, sh.meta.Patients); err != nil {
				return fmt.Errorf("engine: shard %d: %w", it.Shard, err)
			}
			view := sh.eng.Store().Pin()
			hs := make([]*model.History, len(it.Ordinals))
			for i, o := range it.Ordinals {
				hs[i] = view.HistoryAt(o)
			}
			reply.Segments[k].Histories, reply.Segments[k].Checksum = store.EncodeHistories(hs)
		}
		return nil
	})
}

// LocateArgs/LocateReply: patient ID → (shard, shard-local ordinal)
// resolution across every shard the server holds.
type LocateArgs struct{ ID model.PatientID }
type LocateReply struct {
	Shard   int
	Ordinal int
	Found   bool
}

// Locate reports which of the server's shards holds the patient, and at
// which local ordinal; a coordinator probes every server and fetches from
// the shard that answers.
func (r *ShardRPC) Locate(args *LocateArgs, reply *LocateReply) error {
	return r.s.serve("locate", 0, nil, func() error {
		for _, m := range r.s.metas {
			o, ok := r.s.shards[m.Shard].eng.Store().Ordinal(args.ID)
			if !ok {
				continue
			}
			if reply.Found {
				return fmt.Errorf("engine: patient %s claimed by shards %d and %d", args.ID, reply.Shard, m.Shard)
			}
			*reply = LocateReply{Shard: m.Shard, Ordinal: o, Found: true}
		}
		return nil
	})
}

// AnalyzeRPCArgs/AnalyzeRPCReply: the generic map-reduce RPC — the one
// server-side aggregation, whatever is tallied — over some of the server's
// shards. Kind names a registered analyzer, Params is its parameter value
// (the kind's own registered type, checked server-side before any map
// work), and each item names a shard and its slice of the cohort mask. The
// reply is one mergeable partial for all the items: integer tallies whose
// size is fixed or follows the code vocabulary, never the cohort, so the
// map step ships no history to the coordinator.
type AnalyzeRPCArgs struct {
	Kind   string
	Params any
	Items  []ShardItem
}
type AnalyzeRPCReply struct{ Partial Partial }

// Analyze runs the registered map step over each listed shard's slice of
// the cohort and merges the partials, in item order, with the kind's own
// merge — the coordinator's reduce, one round trip earlier. A hostile
// request — unknown kind, another kind's params, corrupt mask — is refused
// loudly, a faulty item naming its shard.
func (r *ShardRPC) Analyze(args *AnalyzeRPCArgs, reply *AnalyzeRPCReply) error {
	return r.s.serve("analyze", len(args.Items), func(k int) int { return args.Items[k].Shard }, func() error {
		spec, err := analyzerFor(args.Kind, args.Params)
		if err != nil {
			return err
		}
		parts := make([]Partial, len(args.Items))
		errs := make([]error, len(args.Items))
		ctx := context.Background()
		spread(ctx, r.s.workers, len(args.Items), func(int) func(int) {
			return func(k int) {
				sh, mask, err := r.s.open(args.Items[k])
				if err != nil {
					errs[k] = err
					return
				}
				parts[k], errs[k] = spec.tally(ctx, sh.eng.Store().Pin().Frame(), args.Params, mask, r.s.workers)
			}
		})
		for k, err := range errs {
			if err == nil && k > 0 {
				err = spec.merge(parts[0], parts[k])
			}
			if err != nil {
				return err
			}
		}
		reply.Partial = parts[0]
		return nil
	})
}

// RemoteOptions tunes the client side of the shard transport. Replication
// has no options: its timing is the named constants of health.go.
type RemoteOptions struct {
	// Timeout bounds each dial and each RPC round trip. 0 means
	// DefaultRemoteTimeout.
	Timeout time.Duration
	// Retries is how many extra attempts a transport-failed call to an
	// unreplicated server gets (each after a redial). Negative means none;
	// 0 means DefaultRemoteRetries.
	Retries int
}

// DefaultRemoteTimeout bounds one RPC round trip unless overridden.
const DefaultRemoteTimeout = 10 * time.Second

// DefaultRemoteRetries is the redial-retry budget unless overridden.
const DefaultRemoteRetries = 1

func (o RemoteOptions) timeout() time.Duration {
	if o.Timeout <= 0 {
		return DefaultRemoteTimeout
	}
	return o.Timeout
}

func (o RemoteOptions) retries() int {
	if o.Retries < 0 {
		return 0
	}
	if o.Retries == 0 {
		return DefaultRemoteRetries
	}
	return o.Retries
}

// remoteConn is one server group — what one DialShards address reaches —
// shared by every RemoteBackend of the shards it serves. A plain address
// is a group of one member; "a|b" names replicas, servers loading the same
// snapshot and serving the same shards, between which every call fails
// over (rpcCall). Each member is (re)dialed lazily and is safe for
// concurrent calls — net/rpc multiplexes by sequence number.
type remoteConn struct {
	addr    string // the members' addresses, joined by "|"
	label   string // the backends' transport label
	opts    RemoteOptions
	members []*member
	// ident is, once a replicated group is assembled, the shard table a
	// member must advertise on every fresh dial (verifyIdentity): a member
	// that comes back serving a different snapshot is refused, not trusted.
	ident *DescribeReply

	// Failover timing: the constants of health.go, shortened by tests. A
	// probe interval ≤ 0 starts no health loop.
	probeInterval, backoffBase, backoffMax time.Duration

	stopOnce sync.Once
	stop     chan struct{}  // closed by close: ends the health loop
	loop     sync.WaitGroup // the health loop, which close waits for
}

// member is one server of a group: its address, its client, and its
// health record (health.go).
type member struct {
	replicaState
	addr string

	mu     sync.Mutex
	client *rpc.Client
	closed bool
}

// newRemoteConn parses a DialShards address — "addr" or "addr|addr|…",
// whitespace around members ignored — into a group, nothing dialed yet.
func newRemoteConn(addr string, opts RemoteOptions) (*remoteConn, error) {
	c := &remoteConn{opts: opts, probeInterval: DefaultProbeInterval,
		backoffBase: DefaultBackoffBase, backoffMax: DefaultBackoffMax, stop: make(chan struct{})}
	var addrs, labels []string
	for _, a := range strings.Split(addr, "|") {
		a = strings.TrimSpace(a)
		if a == "" {
			return nil, fmt.Errorf("engine: replica group %q: empty member (want \"addr\" or \"addr|addr\")", addr)
		}
		m := &member{addr: a}
		m.healthy.Store(true)
		c.members = append(c.members, m)
		addrs, labels = append(addrs, a), append(labels, "remote("+a+")")
	}
	c.addr, c.label = strings.Join(addrs, "|"), labels[0]
	if len(labels) > 1 {
		c.label = "replicas(" + strings.Join(labels, " | ") + ")"
	}
	return c, nil
}

// dial returns the member's client, dialing it first if it has none.
func (c *remoteConn) dial(m *member, budget time.Duration) (*rpc.Client, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, fmt.Errorf("engine: connection to %s is closed: %w", m.addr, ErrUnavailable)
	}
	if m.client != nil {
		return m.client, nil
	}
	conn, err := net.DialTimeout("tcp", m.addr, budget)
	if err != nil {
		return nil, fmt.Errorf("engine: dial %s: %w: %w", m.addr, ErrUnavailable, err)
	}
	client := rpc.NewClient(conn)
	if c.ident != nil {
		if err := verifyIdentity(client, budget, m.addr, c.ident); err != nil {
			client.Close()
			return nil, err
		}
	}
	m.client = client
	return client, nil
}

// verifyIdentity performs the Describe handshake on a freshly dialed
// connection and checks the server still advertises exactly the shard
// table its group was assembled with. Mismatches are wrapped as
// ErrUnavailable on purpose: to the group a wrong-snapshot member is
// indistinguishable from a down one — fail over, keep probing, and let it
// rejoin only once it advertises the right data again.
func verifyIdentity(client *rpc.Client, budget time.Duration, addr string, want *DescribeReply) error {
	var reply DescribeReply
	call := client.Go(rpcServiceName+".Describe", &DescribeArgs{}, &reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case done := <-call.Done:
		if done.Error != nil {
			return fmt.Errorf("engine: describe %s: %w: %w", addr, ErrUnavailable, done.Error)
		}
	case <-timer.C:
		return fmt.Errorf("engine: describe %s: %w: timeout after %s", addr, ErrUnavailable, budget)
	}
	if diff := identityDiff(&reply, want); diff != "" {
		return fmt.Errorf("engine: %s: %w: identity mismatch: %s", addr, ErrUnavailable, diff)
	}
	return nil
}

// identityDiff says how a server's advertised table differs from want, ""
// when it is the same table: the same population, the same shards, each at
// the same offset with the same patient and entry counts.
func identityDiff(got, want *DescribeReply) string {
	if got.TotalPatients != want.TotalPatients {
		return fmt.Sprintf("server population %d, expected %d (different snapshot?)", got.TotalPatients, want.TotalPatients)
	}
	byShard := make(map[int]ShardMeta, len(got.Shards))
	for _, m := range got.Shards {
		byShard[m.Shard] = m
	}
	for _, w := range want.Shards {
		g, ok := byShard[w.Shard]
		if !ok {
			return fmt.Sprintf("server does not serve shard %d", w.Shard)
		}
		if g.Offset != w.Offset || g.Patients != w.Patients || g.Entries != w.Entries {
			return fmt.Sprintf("shard %d advertised as offset %d, %d patients, %d entries; expected offset %d, %d patients, %d entries",
				w.Shard, g.Offset, g.Patients, g.Entries, w.Offset, w.Patients, w.Entries)
		}
	}
	if len(got.Shards) != len(want.Shards) {
		return fmt.Sprintf("server serves %d shards, expected %d", len(got.Shards), len(want.Shards))
	}
	return ""
}

// reset discards a member's client after a transport failure so the next
// call redials. Only the failed client is discarded: a concurrent call may
// already have replaced it.
func (m *member) reset(failed *rpc.Client) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.client == failed && m.client != nil {
		m.client.Close()
		m.client = nil
	}
}

func (m *member) close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.client == nil {
		return nil
	}
	err := m.client.Close()
	m.client = nil
	return err
}

// close stops the group's health loop and closes every member, returning
// once the loop has exited (closed members fail a probe in flight fast).
func (c *remoteConn) close() error {
	c.stopOnce.Do(func() { close(c.stop) })
	var errs []error
	for _, m := range c.members {
		if err := m.close(); err != nil {
			errs = append(errs, err)
		}
	}
	c.loop.Wait()
	return errors.Join(errs...)
}

// attemptBudget bounds one attempt (dial or RPC round trip): the
// per-call option, shrunk to whatever remains of the caller's context
// deadline. Returns 0 when the deadline already passed.
func (c *remoteConn) attemptBudget(ctx context.Context) time.Duration {
	budget := c.opts.timeout()
	if deadline, ok := ctx.Deadline(); ok {
		if remaining := time.Until(deadline); remaining < budget {
			budget = remaining
		}
	}
	if budget < 0 {
		return 0
	}
	return budget
}

// attempt sends one RPC to one member, dialing it first if needed, and
// waits for the reply, the attempt budget or the caller's context. A
// server-side error (rpc.ServerError) is deterministic and returned as is —
// except the drain refusal, which comes back as ErrDraining. A transport
// error or an expired budget resets the member's client and is marked
// ErrUnavailable (safe to retry elsewhere: every RPC is read-only and
// idempotent); the caller's own context ending abandons just this call and
// leaves the shared client alone. Each attempt decodes into its own fresh
// reply value — an abandoned attempt's response may still be mid-decode
// when the retry runs (or after the caller has gone), so sharing one reply
// across attempts would race (and gob's skip-zero-fields decoding could
// blend stale bytes into the retried answer).
func attempt[R any](ctx context.Context, c *remoteConn, m *member, method string, args any) (*R, error) {
	budget := c.attemptBudget(ctx)
	client, err := c.dial(m, budget)
	if err != nil {
		return nil, err
	}
	reply := new(R)
	call := client.Go(rpcServiceName+"."+method, args, reply, make(chan *rpc.Call, 1))
	timer := time.NewTimer(budget)
	defer timer.Stop()
	select {
	case done := <-call.Done:
		if done.Error == nil {
			return reply, nil
		}
		var serverErr rpc.ServerError
		if errors.As(done.Error, &serverErr) {
			if strings.Contains(string(serverErr), drainingMarker) {
				m.reset(client) // the listener is closing; force a redial next time
				return nil, fmt.Errorf("engine: %s: %w", m.addr, ErrDraining)
			}
			return nil, fmt.Errorf("engine: %s: %s", m.addr, serverErr)
		}
		m.reset(client)
		return nil, fmt.Errorf("engine: call %s: %w: %w", m.addr, ErrUnavailable, done.Error)
	case <-timer.C:
		m.reset(client)
		return nil, fmt.Errorf("engine: call %s: %w: timeout after %s", m.addr, ErrUnavailable, budget)
	case <-ctx.Done():
		// Abandon this call only: the connection is healthy as far as
		// anyone knows, and every other in-flight query to the server is
		// multiplexed on it. The late response decodes into reply, which
		// nobody reads.
		return nil, fmt.Errorf("engine: call %s: %w: %w", m.addr, ErrUnavailable, ctx.Err())
	}
}

// rpcCall is the one attempt loop every RPC goes through, bounded by the
// caller's context: the coordinator threads its query budget through ctx,
// so a slow server can never pin a caller past it, and an expired context
// stops the loop outright. An unavailability error retries; any other
// error is deterministic — every member would answer the same — and
// returns at once.
//
// A group of one redials and retries its server up to RemoteOptions'
// Retries, back to back, and returns a drain refusal as it is. A replicated
// group fails over: each attempt picks a member by power-of-two-choices
// over the latency EWMA (pick), an unavailable or draining member is marked
// down, and the next attempt waits a full-jitter backoff, up to two
// attempts per member; only when they all fail does the call, with "all N
// replicas failed".
func rpcCall[R any](ctx context.Context, c *remoteConn, method string, args any) (*R, error) {
	n := len(c.members)
	attempts, tried := c.opts.retries()+1, []bool(nil)
	if n > 1 {
		attempts, tried = 2*n, make([]bool, n)
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			lastErr = fmt.Errorf("engine: call %s: %w: %w", c.addr, ErrUnavailable, err)
			break
		}
		m := c.members[0]
		if n > 1 {
			m = c.pick(tried)
		}
		t0 := time.Now()
		reply, err := attempt[R](ctx, c, m, method, args)
		if err == nil {
			if n > 1 {
				m.observe(time.Since(t0))
			}
			return reply, nil
		}
		if !IsUnavailable(err) {
			return nil, err
		}
		lastErr = err
		if ctx.Err() != nil || n == 1 && errors.Is(err, ErrDraining) {
			break
		}
		if n > 1 {
			m.markFailed()
			if a < attempts-1 && c.backoff(ctx, a) != nil {
				break
			}
		}
	}
	if n > 1 {
		return nil, fmt.Errorf("engine: %s: all %d replicas failed: %w", c.addr, n, lastErr)
	}
	return nil, lastErr
}

// RemoteBackend is the client stub for one shard of a server group.
type RemoteBackend struct {
	conn *remoteConn
	meta ShardMeta
}

// DialShards connects to a shard server — or to a replica group, "a|b",
// of servers serving the same shards from the same snapshot — and returns
// one backend per shard it serves, all sharing the group's connections,
// plus the total population of the snapshot the servers load from. The
// returned backends' metadata carries the servers' global ordinal offsets,
// so they plug straight into NewFromBackends; the total lets a caller
// assembling several groups verify the shards cover the whole population
// (see core.Connect) rather than silently answering over a prefix of it.
//
// The advertised shard identities are validated here, at dial time: a
// server announcing duplicate shard ids, negative sizes, overlapping
// ordinal ranges or shards outside the snapshot's population is a
// misconfiguration (or a different snapshot), and the error names it now
// instead of surfacing as a confusing per-query failure later. The
// reachable members of a group must advertise identical tables; a member
// that is merely unreachable joins deferred — replication exists so that a
// down server is survivable — and proves its identity on its first dial.
// Only a group with no reachable member is an error.
func DialShards(addr string, opts RemoteOptions) ([]ShardBackend, int, error) {
	c, err := newRemoteConn(addr, opts)
	if err != nil {
		return nil, 0, err
	}
	return c.connect()
}

// connect runs DialShards over a parsed group. Each member dials as a
// group of one, with its redial-retry; a replicated group then starts its
// health loop.
func (c *remoteConn) connect() ([]ShardBackend, int, error) {
	var ref *DescribeReply
	var refAddr string
	var down []error
	for _, m := range c.members {
		solo := &remoteConn{addr: m.addr, opts: c.opts, members: []*member{m}}
		reply, err := rpcCall[DescribeReply](context.Background(), solo, "Describe", &DescribeArgs{})
		if err == nil {
			if err = validateShardMetas(reply.Shards, reply.TotalPatients); err != nil {
				err = fmt.Errorf("engine: %s: %w", m.addr, err)
			}
		}
		switch {
		case err != nil && len(c.members) > 1 && IsUnavailable(err):
			down = append(down, err)
		case err != nil:
			c.close() // the dial may have succeeded even though the call failed
			return nil, 0, err
		case ref == nil:
			ref, refAddr = reply, m.addr
		default:
			if diff := identityDiff(reply, ref); diff != "" {
				c.close()
				return nil, 0, fmt.Errorf("engine: replica group %q: %s: identity mismatch with %s: %s", c.addr, m.addr, refAddr, diff)
			}
		}
	}
	if ref == nil {
		c.close()
		return nil, 0, fmt.Errorf("engine: replica group %q: no member reachable: %w", c.addr, errors.Join(down...))
	}
	if len(c.members) > 1 {
		c.ident = ref
		if c.probeInterval > 0 {
			c.loop.Add(1)
			go c.healthLoop()
		}
	}
	backends := make([]ShardBackend, len(ref.Shards))
	for i, m := range ref.Shards {
		m.Backend = c.label
		backends[i] = &RemoteBackend{conn: c, meta: m}
	}
	return backends, ref.TotalPatients, nil
}

// validateShardMetas sanity-checks one server's advertised shard table
// against the snapshot total it reports.
func validateShardMetas(metas []ShardMeta, total int) error {
	if len(metas) == 0 {
		return errors.New("serves no shards")
	}
	if total < 0 {
		return fmt.Errorf("server reports negative population %d", total)
	}
	seen := make(map[int]bool, len(metas))
	ordered := append([]ShardMeta(nil), metas...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].Offset < ordered[j].Offset })
	prevEnd, prevShard := -1, -1
	for _, m := range ordered {
		if m.Shard < 0 {
			return fmt.Errorf("server advertises negative shard id %d", m.Shard)
		}
		if seen[m.Shard] {
			return fmt.Errorf("server advertises shard %d twice", m.Shard)
		}
		seen[m.Shard] = true
		if m.Patients < 0 || m.Entries < 0 || m.Offset < 0 {
			return fmt.Errorf("server advertises shard %d with negative geometry (offset %d, %d patients, %d entries)",
				m.Shard, m.Offset, m.Patients, m.Entries)
		}
		if m.Offset+m.Patients > total {
			return fmt.Errorf("server advertises shard %d covering ordinals [%d, %d) beyond its own population of %d",
				m.Shard, m.Offset, m.Offset+m.Patients, total)
		}
		if m.Offset < prevEnd {
			return fmt.Errorf("server advertises overlapping shards %d and %d (shard %d starts at ordinal %d, before shard %d ends at %d)",
				prevShard, m.Shard, m.Shard, m.Offset, prevShard, prevEnd)
		}
		prevEnd, prevShard = m.Offset+m.Patients, m.Shard
	}
	return nil
}

// Meta implements ShardBackend.
func (b *RemoteBackend) Meta() ShardMeta { return b.meta }

// Probe implements Prober with the Describe handshake — a payload-free
// round trip through the group's attempt loop.
func (b *RemoteBackend) Probe(ctx context.Context) error {
	_, err := rpcCall[DescribeReply](ctx, b.conn, "Describe", &DescribeArgs{})
	return err
}

// Stats implements ShardBackend by fetching the shard's marshaled
// cardinalities.
func (b *RemoteBackend) Stats(ctx context.Context) (*store.Stats, error) {
	reply, err := rpcCall[StatsReply](ctx, b.conn, "Stats", &StatsArgs{Shard: b.meta.Shard})
	if err != nil {
		return nil, err
	}
	st := new(store.Stats)
	if err := st.UnmarshalBinary(reply.Stats); err != nil {
		return nil, err
	}
	return st, nil
}

// maskItems lists some of a server's shards as items: masks[k] (nil = none)
// restricts metas[k].
func maskItems(metas []ShardMeta, masks []*store.Bitset) ([]ShardItem, error) {
	items := make([]ShardItem, len(metas))
	for k, m := range metas {
		it := &items[k]
		it.Shard = m.Shard
		if masks[k] != nil {
			var err error
			if it.Mask, it.MaskCRC, err = encodeMask(masks[k]); err != nil {
				return nil, err
			}
		}
	}
	return items, nil
}

// eval is the Eval RPC for some of this server's shards: masks[k] (nil =
// none) restricts metas[k], and the matches come back in shard-local
// ordinal space, bits[k] or errs[k] per shard. A failure of the call as a
// whole is every shard's error.
func (c *remoteConn) eval(ctx context.Context, plan wirePlan, metas []ShardMeta, masks []*store.Bitset) ([]*store.Bitset, []error) {
	bits := make([]*store.Bitset, len(metas))
	items, err := maskItems(metas, masks)
	if err != nil {
		return bits, repeatErr(err, len(metas))
	}
	reply, err := rpcCall[EvalReply](ctx, c, "Eval", &EvalArgs{Plan: plan, Items: items})
	if err != nil {
		return bits, repeatErr(err, len(metas))
	}
	if len(reply.Results) != len(metas) {
		return bits, repeatErr(fmt.Errorf("engine: %s: eval answered %d results for %d shards",
			c.addr, len(reply.Results), len(metas)), len(metas))
	}
	errs := make([]error, len(metas))
	for k, res := range reply.Results {
		if res.Err != "" {
			errs[k] = fmt.Errorf("engine: %s: %s", c.addr, res.Err)
			continue
		}
		bits[k] = new(store.Bitset)
		if errs[k] = bits[k].UnmarshalBinary(res.Bits); errs[k] != nil {
			bits[k] = nil
		}
	}
	return bits, errs
}

// EvalPlan implements ShardBackend: the grouped fan-out's Eval RPC with
// this shard as its one item.
func (b *RemoteBackend) EvalPlan(ctx context.Context, p Plan, mask *store.Bitset) (*store.Bitset, error) {
	plan, err := planToWire(p)
	if err != nil {
		return nil, err
	}
	bits, errs := b.conn.eval(ctx, plan, []ShardMeta{b.meta}, []*store.Bitset{mask})
	return bits[0], errs[0]
}

// fetch is the Fetch RPC for some of this server's shards: the histories
// at ordinals[k] of metas[k] come back one checksummed segment per shard,
// and the defensive decoder (store.DecodeHistories) holds a hostile or
// corrupt reply to an error — a server cannot answer with more or fewer
// segments, or histories in one, than asked.
func (c *remoteConn) fetch(ctx context.Context, metas []ShardMeta, ordinals [][]int) ([][]*model.History, error) {
	args := FetchArgs{Items: make([]FetchItem, len(metas))}
	for k, m := range metas {
		if err := validateOrdinals(ordinals[k], m.Patients); err != nil {
			return nil, err
		}
		args.Items[k] = FetchItem{Shard: m.Shard, Ordinals: ordinals[k]}
	}
	reply, err := rpcCall[FetchReply](ctx, c, "Fetch", &args)
	if err != nil {
		return nil, err
	}
	if len(reply.Segments) != len(metas) {
		return nil, fmt.Errorf("engine: %s: fetch answered %d segments for %d shards", c.addr, len(reply.Segments), len(metas))
	}
	out := make([][]*model.History, len(metas))
	for k, seg := range reply.Segments {
		if out[k], err = store.DecodeHistories(seg.Histories, seg.Checksum, len(ordinals[k])); err != nil {
			return nil, fmt.Errorf("engine: %s: shard %d: %w", c.addr, metas[k].Shard, err)
		}
	}
	return out, nil
}

// FetchHistories implements ShardBackend: the grouped fan-out's Fetch RPC
// with this shard as its one item.
func (b *RemoteBackend) FetchHistories(ctx context.Context, ordinals []int) ([]*model.History, error) {
	hs, err := b.conn.fetch(ctx, []ShardMeta{b.meta}, [][]int{ordinals})
	if err != nil {
		return nil, err
	}
	return hs[0], nil
}

// locate is the Locate RPC: which of metas — this server's shards the
// caller is interested in — holds the patient, and at which shard-local
// ordinal. k is -1 when none does (a hit on a shard outside metas is not
// the caller's patient).
func (c *remoteConn) locate(ctx context.Context, id model.PatientID, metas []ShardMeta) (k, ordinal int, err error) {
	reply, err := rpcCall[LocateReply](ctx, c, "Locate", &LocateArgs{ID: id})
	if err != nil {
		return -1, 0, err
	}
	if !reply.Found {
		return -1, 0, nil
	}
	for k, m := range metas {
		if m.Shard != reply.Shard {
			continue
		}
		if reply.Ordinal < 0 || reply.Ordinal >= m.Patients {
			return -1, 0, fmt.Errorf("engine: %s: located ordinal %d outside shard of %d patients",
				c.addr, reply.Ordinal, m.Patients)
		}
		return k, reply.Ordinal, nil
	}
	return -1, 0, nil
}

// LocateID implements ShardBackend.
func (b *RemoteBackend) LocateID(ctx context.Context, id model.PatientID) (int, bool, error) {
	k, ordinal, err := b.conn.locate(ctx, id, []ShardMeta{b.meta})
	return ordinal, k == 0, err
}

// analyze is the Analyze RPC for some of this server's shards: the server
// runs the map step over each shard's slice of the mask and merges, and one
// partial comes back — checked against the kind and bounded by the listed
// shards' patients before anyone merges it.
func (c *remoteConn) analyze(ctx context.Context, kind string, params any, metas []ShardMeta, masks []*store.Bitset) (Partial, error) {
	spec, err := analyzerFor(kind, params)
	if err != nil {
		return nil, err
	}
	items, err := maskItems(metas, masks)
	if err != nil {
		return nil, err
	}
	reply, err := rpcCall[AnalyzeRPCReply](ctx, c, "Analyze", &AnalyzeRPCArgs{Kind: kind, Params: params, Items: items})
	if err != nil {
		return nil, err
	}
	if err := spec.checkPartial(reply.Partial); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", c.addr, err)
	}
	held := 0
	for _, m := range metas {
		held += m.Patients
	}
	if got := reply.Partial.HistoryCount(); got < 0 || got > held {
		return nil, fmt.Errorf("engine: %s: analyze partial covers %d histories, the %d shards asked hold %d",
			c.addr, got, len(metas), held)
	}
	return reply.Partial, nil
}

// Analyze implements ShardBackend: the grouped fan-out's Analyze RPC with
// this shard as its one item.
func (b *RemoteBackend) Analyze(ctx context.Context, a AnalyzeArgs) (Partial, error) {
	return b.conn.analyze(ctx, a.Kind, a.Params, []ShardMeta{b.meta}, []*store.Bitset{a.Mask})
}

// ids is the IDs RPC for some of this server's shards. The reply must
// carry one ID per set bit of every slice: the coordinator concatenates the
// shards' listings by position, so a server answering more or fewer would
// misalign the whole cohort listing.
func (c *remoteConn) ids(ctx context.Context, metas []ShardMeta, slices []*store.Bitset) ([][]model.PatientID, error) {
	items, err := maskItems(metas, slices)
	if err != nil {
		return nil, err
	}
	reply, err := rpcCall[IDsReply](ctx, c, "IDs", &IDsArgs{Items: items})
	if err != nil {
		return nil, err
	}
	if len(reply.IDs) != len(metas) {
		return nil, fmt.Errorf("engine: %s: ids answered %d listings for %d shards", c.addr, len(reply.IDs), len(metas))
	}
	for k, ids := range reply.IDs {
		if want := slices[k].Count(); len(ids) != want {
			return nil, fmt.Errorf("engine: %s: shard %d: ids reply carries %d patients for %d selected",
				c.addr, metas[k].Shard, len(ids), want)
		}
	}
	return reply.IDs, nil
}

// IDsOf implements ShardBackend: the grouped fan-out's IDs RPC with this
// shard as its one item.
func (b *RemoteBackend) IDsOf(ctx context.Context, bits *store.Bitset) ([]model.PatientID, error) {
	ids, err := b.conn.ids(ctx, []ShardMeta{b.meta}, []*store.Bitset{bits})
	if err != nil {
		return nil, err
	}
	return ids[0], nil
}

// Close implements ShardBackend. The connection is shared by every
// backend from the same DialShards call; the first Close closes it and
// the rest are no-ops.
func (b *RemoteBackend) Close() error { return b.conn.close() }
