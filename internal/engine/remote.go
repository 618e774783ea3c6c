package engine

// The remote shard transport: a net/rpc wire protocol (gob-framed over
// TCP) between a coordinating engine and shard servers. A shard server
// pages its assigned shards out of a snapshot with
// store.OpenShards — only those segments are ever read — indexes each as
// a dedicated store, and answers plan evaluations through a per-shard
// engine, re-optimized against the shard's own statistics. The client
// side wraps each served shard as a ShardBackend with per-call timeout
// and bounded redial-retry; server-side evaluation errors are returned
// verbatim and never retried (they are deterministic), while transport
// errors reset the connection.
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
	// workers bounds how many items of one Eval call run at once.
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
	// closing is flipped under the same mutex begin takes, so once this
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

// begin gates one RPC against shutdown; end must be deferred when it
// returns nil. The check-and-Add runs under the mutex Shutdown flips
// closing under, so every Add strictly precedes Shutdown's Wait.
func (s *ShardServer) begin() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closing.Load() {
		// The distinct drain refusal: clients match drainingMarker in the
		// flattened rpc.ServerError and fail over instead of erroring —
		// an RPC racing Shutdown gets a clean redirect, not a torn
		// connection.
		return fmt.Errorf("engine: shard %s (shutting down)", drainingMarker)
	}
	s.inflight.Add(1)
	return nil
}

func (s *ShardServer) end() { s.inflight.Done() }

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

// eachItem runs fn over a call's n items, at most Workers at a time, item
// 0 on the handler's own goroutine: a one-shard call spawns nothing.
func (s *ShardServer) eachItem(n int, fn func(k int)) {
	sem := make(chan struct{}, s.workers)
	run := func(k int) {
		sem <- struct{}{}
		defer func() { <-sem }()
		fn(k)
	}
	var wg sync.WaitGroup
	for k := 1; k < n; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			run(k)
		}()
	}
	run(0)
	wg.Wait()
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
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
	reply.Shards = r.s.Metas()
	reply.TotalPatients = r.s.totalPatients
	return nil
}

// StatsArgs/StatsReply: per-shard planner statistics.
type StatsArgs struct{ Shard int }
type StatsReply struct{ Stats []byte }

// Stats returns one shard's marshaled exact cardinalities.
func (r *ShardRPC) Stats(args *StatsArgs, reply *StatsReply) error {
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
	sh, err := r.s.shard(args.Shard)
	if err != nil {
		return err
	}
	data, err := sh.eng.Stats().MarshalBinary()
	if err != nil {
		return err
	}
	reply.Stats = data
	return nil
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
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
	if err := r.s.checkItems("eval", len(args.Items), func(k int) int { return args.Items[k].Shard }); err != nil {
		return err
	}
	p, err := planFromWire(args.Plan)
	if err != nil {
		return err
	}
	reply.Results = make([]EvalResult, len(args.Items))
	r.s.eachItem(len(args.Items), func(k int) {
		bits, err := r.s.evalShard(p, args.Items[k])
		if err != nil {
			reply.Results[k].Err = err.Error()
			return
		}
		reply.Results[k].Bits = bits
	})
	return nil
}

// evalShard re-optimizes the plan against one shard's own statistics and
// executes it over the shard's engine, returning the encoded matches in
// shard-local ordinal space. A shipped candidate mask is validated before
// any evaluation work and fed through the engine's masked path, so the
// server exploits it to skip non-candidates (the ShardBackend contract)
// instead of paying for the full shard and intersecting after.
func (s *ShardServer) evalShard(p Plan, it ShardItem) ([]byte, error) {
	sh, mask, err := s.open(it)
	if err != nil {
		return nil, err
	}
	t := sh.eng.topoNow()
	p = sh.eng.optimize(t, p)
	var bits *store.Bitset
	if mask != nil {
		bits, err = sh.eng.evalMasked(context.Background(), t, p, mask)
	} else {
		bits, err = sh.eng.ExecutePlan(p)
	}
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
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
	if err := r.s.checkItems("ids", len(args.Items), func(k int) int { return args.Items[k].Shard }); err != nil {
		return err
	}
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
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
	if err := r.s.checkItems("fetch", len(args.Items), func(k int) int { return args.Items[k].Shard }); err != nil {
		return err
	}
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
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
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
	if err := r.s.begin(); err != nil {
		return err
	}
	defer r.s.end()
	if err := r.s.checkItems("analyze", len(args.Items), func(k int) int { return args.Items[k].Shard }); err != nil {
		return err
	}
	spec, err := analyzerFor(args.Kind, args.Params)
	if err != nil {
		return err
	}
	parts := make([]Partial, len(args.Items))
	errs := make([]error, len(args.Items))
	r.s.eachItem(len(args.Items), func(k int) {
		sh, mask, err := r.s.open(args.Items[k])
		if err != nil {
			errs[k] = err
			return
		}
		parts[k], errs[k] = spec.tally(sh.eng.Store().Pin().Frame(), args.Params, mask)
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
}

// RemoteOptions tunes the client side of the shard transport.
type RemoteOptions struct {
	// Timeout bounds each dial and each RPC round trip. 0 means
	// DefaultRemoteTimeout.
	Timeout time.Duration
	// Retries is how many extra attempts a transport-failed call gets
	// (each after a redial). Negative means none; 0 means
	// DefaultRemoteRetries.
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

// remoteConn is one client connection to a shard server, shared by every
// RemoteBackend the server's shards map to. It lazily (re)dials and is
// safe for concurrent calls — net/rpc multiplexes by sequence number.
type remoteConn struct {
	addr string
	opts RemoteOptions

	// expect, when non-nil, is the shard table this server must
	// advertise before any RPC is allowed through. It is set for
	// connections built without a live handshake (DeferredShards):
	// every fresh dial re-runs the Describe validation DialShards
	// would have done, so a server that comes back serving a
	// different snapshot is refused, not trusted.
	expect      []ShardMeta
	expectTotal int

	mu     sync.Mutex
	client *rpc.Client
	closed bool
}

func (c *remoteConn) get(budget time.Duration) (*rpc.Client, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, fmt.Errorf("engine: connection to %s is closed: %w", c.addr, ErrUnavailable)
	}
	if c.client != nil {
		return c.client, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, budget)
	if err != nil {
		return nil, fmt.Errorf("engine: dial %s: %w: %w", c.addr, ErrUnavailable, err)
	}
	client := rpc.NewClient(conn)
	if c.expect != nil {
		if err := verifyIdentity(client, budget, c.addr, c.expect, c.expectTotal); err != nil {
			client.Close()
			return nil, err
		}
	}
	c.client = client
	return c.client, nil
}

// verifyIdentity performs the Describe handshake on a freshly dialed
// connection and checks the server still advertises exactly the shard
// geometry the replica set was assembled with. Mismatches are wrapped as
// ErrUnavailable on purpose: to the replica set a wrong-snapshot member
// is indistinguishable from a down one — fail over, keep probing, and
// let it rejoin only once it advertises the right data again.
func verifyIdentity(client *rpc.Client, budget time.Duration, addr string, expect []ShardMeta, total int) error {
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
	if reply.TotalPatients != total {
		return fmt.Errorf("engine: %s: %w: identity mismatch: server population %d, expected %d (different snapshot?)",
			addr, ErrUnavailable, reply.TotalPatients, total)
	}
	byShard := make(map[int]ShardMeta, len(reply.Shards))
	for _, m := range reply.Shards {
		byShard[m.Shard] = m
	}
	for _, want := range expect {
		got, ok := byShard[want.Shard]
		if !ok {
			return fmt.Errorf("engine: %s: %w: identity mismatch: server no longer serves shard %d",
				addr, ErrUnavailable, want.Shard)
		}
		if got.Offset != want.Offset || got.Patients != want.Patients || got.Entries != want.Entries {
			return fmt.Errorf("engine: %s: %w: identity mismatch: shard %d advertised as offset %d, %d patients, %d entries; expected offset %d, %d patients, %d entries",
				addr, ErrUnavailable, want.Shard, got.Offset, got.Patients, got.Entries, want.Offset, want.Patients, want.Entries)
		}
	}
	return nil
}

// reset discards a client after a transport failure so the next call
// redials. Only the failed client is discarded: a concurrent call may
// already have replaced it.
func (c *remoteConn) reset(failed *rpc.Client) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client == failed && c.client != nil {
		c.client.Close()
		c.client = nil
	}
}

func (c *remoteConn) close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil
	}
	c.closed = true
	if c.client != nil {
		err := c.client.Close()
		c.client = nil
		return err
	}
	return nil
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

// rpcCall performs one RPC under the caller's context deadline with
// bounded redial-retry. The coordinator threads its query budget through
// ctx, so a slow replica can never pin a worker past it: each attempt is
// bounded by min(per-call timeout, remaining deadline), and an expired
// context stops the retry loop outright. Server-side errors
// (rpc.ServerError) are deterministic and returned immediately — except
// the drain refusal, which comes back as ErrDraining so replica sets fail
// over on it. Transport errors and per-attempt timeouts reset the
// connection, are marked ErrUnavailable (safe to retry elsewhere: every
// RPC is read-only and idempotent), and retry up to the budget; the
// caller's own context ending abandons just this call and leaves the
// shared connection alone. Each attempt decodes into its own fresh reply
// value — an abandoned attempt's response may still be mid-decode when
// the retry runs (or after the caller has gone), so sharing one reply
// across attempts would race (and gob's skip-zero-fields decoding could
// blend stale bytes into the retried answer). The winning attempt's reply
// is the one returned.
func rpcCall[R any](ctx context.Context, c *remoteConn, method string, args any) (*R, error) {
	var lastErr error
	for attempt := 0; attempt <= c.opts.retries(); attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: call %s: %w: %w", c.addr, ErrUnavailable, err)
		}
		budget := c.attemptBudget(ctx)
		client, err := c.get(budget)
		if err != nil {
			lastErr = err
			continue
		}
		reply := new(R)
		call := client.Go(rpcServiceName+"."+method, args, reply, make(chan *rpc.Call, 1))
		timer := time.NewTimer(budget)
		select {
		case done := <-call.Done:
			timer.Stop()
			if done.Error == nil {
				return reply, nil
			}
			var serverErr rpc.ServerError
			if errors.As(done.Error, &serverErr) {
				if strings.Contains(string(serverErr), drainingMarker) {
					c.reset(client) // the listener is closing; force a redial next time
					return nil, fmt.Errorf("engine: %s: %w", c.addr, ErrDraining)
				}
				return nil, fmt.Errorf("engine: %s: %s", c.addr, serverErr)
			}
			lastErr = fmt.Errorf("engine: call %s: %w: %w", c.addr, ErrUnavailable, done.Error)
			c.reset(client)
		case <-timer.C:
			lastErr = fmt.Errorf("engine: call %s: %w: timeout after %s", c.addr, ErrUnavailable, budget)
			c.reset(client)
		case <-ctx.Done():
			// Abandon this call only: the connection is healthy as far as
			// anyone knows, and every other in-flight query to the server is
			// multiplexed on it. The late response decodes into reply, which
			// nobody reads.
			timer.Stop()
			return nil, fmt.Errorf("engine: call %s: %w: %w", c.addr, ErrUnavailable, ctx.Err())
		}
	}
	return nil, lastErr
}

// RemoteBackend is the client stub for one shard on one shard server.
type RemoteBackend struct {
	conn *remoteConn
	meta ShardMeta
}

// DialShards connects to a shard server and returns one backend per
// shard it serves, all sharing the connection, plus the total population
// of the snapshot the server loads from. The returned backends' metadata
// carries the server's global ordinal offsets, so they plug straight
// into NewFromBackends; the total lets a caller assembling several
// servers verify the shards cover the whole population (see
// core.Connect) rather than silently answering over a prefix of it.
//
// The advertised shard identities are validated here, at dial time: a
// server announcing duplicate shard ids, negative sizes, overlapping
// ordinal ranges or shards outside the snapshot's population is a
// misconfiguration (or a different snapshot), and the error names it now
// instead of surfacing as a confusing per-query failure later.
func DialShards(addr string, opts RemoteOptions) ([]ShardBackend, int, error) {
	conn := &remoteConn{addr: addr, opts: opts}
	reply, err := rpcCall[DescribeReply](context.Background(), conn, "Describe", &DescribeArgs{})
	if err != nil {
		conn.close() // the dial may have succeeded even though the call failed
		return nil, 0, err
	}
	if len(reply.Shards) == 0 {
		conn.close()
		return nil, 0, fmt.Errorf("engine: %s serves no shards", addr)
	}
	if err := validateShardMetas(reply.Shards, reply.TotalPatients); err != nil {
		conn.close()
		return nil, 0, fmt.Errorf("engine: %s: %w", addr, err)
	}
	backends := make([]ShardBackend, len(reply.Shards))
	for i, m := range reply.Shards {
		m.Backend = fmt.Sprintf("remote(%s)", addr)
		backends[i] = &RemoteBackend{conn: conn, meta: m}
	}
	return backends, reply.TotalPatients, nil
}

// DeferredShards builds backends for a replica-group member that is
// unreachable right now, cloning the already-validated shard table of a
// live sibling (group members serve identical shard sets by contract).
// Nothing is dialed here: the member joins its replica sets marked
// healthy, fails fast on first contact, and rejoins via health probes
// once it is back — at which point the first successful dial re-runs
// the identity validation DialShards would have done (see verifyIdentity),
// so a member resurrected with a different snapshot stays out.
func DeferredShards(addr string, opts RemoteOptions, like []ShardBackend, total int) []ShardBackend {
	expect := make([]ShardMeta, len(like))
	for i, b := range like {
		expect[i] = b.Meta()
	}
	conn := &remoteConn{addr: addr, opts: opts, expect: expect, expectTotal: total}
	out := make([]ShardBackend, len(expect))
	for i, m := range expect {
		m.Backend = fmt.Sprintf("remote(%s)", addr)
		out[i] = &RemoteBackend{conn: conn, meta: m}
	}
	return out
}

// validateShardMetas sanity-checks one server's advertised shard table
// against the snapshot total it reports.
func validateShardMetas(metas []ShardMeta, total int) error {
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
// round trip the replica set's health checker can afford to send every
// interval.
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
