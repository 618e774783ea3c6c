package engine

import (
	"context"
	"errors"
	"hash/crc32"
	"net/rpc"
	"strings"
	"testing"
	"time"

	"pastas/internal/model"
	"pastas/internal/query"
	"pastas/internal/store"
)

// TestRemoteCohortRefineParity: on a coordinator over remote shard
// servers, a narrowing refinement must push the parent mask down to the
// shards (Pushed=true) and still return exactly the bits a from-scratch
// execution and the per-history scan produce — at shard counts
// {1, 4, 16}.
func TestRemoteCohortRefineParity(t *testing.T) {
	col, st, _ := parityEngines(t)
	parent := query.Has{Pred: query.TypeIs(model.TypeDiagnosis)}
	narrow := query.And{parent, query.SexIs(model.SexFemale)}
	widen := query.Or{parent, query.Has{Pred: query.TypeIs(model.TypeMedication)}}

	for _, shards := range []int{1, 4, 16} {
		fix := startShardServers(t, col, shards, 2, RemoteOptions{Timeout: 30 * time.Second})
		ctx := context.Background()
		if _, err := fix.eng.Materialize(ctx, "diag", parent); err != nil {
			t.Fatalf("shards=%d Materialize: %v", shards, err)
		}
		for name, tc := range map[string]struct {
			q    query.Expr
			mode string
		}{
			"narrow": {narrow, RefineNarrow},
			"widen":  {widen, RefineWiden},
		} {
			_, ref, err := fix.eng.Refine(ctx, name, tc.q)
			if err != nil {
				t.Fatalf("shards=%d Refine(%s): %v", shards, name, err)
			}
			if ref.Mode != tc.mode || ref.Seed != "diag" {
				t.Fatalf("shards=%d Refine(%s) = %+v, want %s seeded by \"diag\"", shards, name, ref, tc.mode)
			}
			if !ref.Pushed {
				t.Errorf("shards=%d Refine(%s): Pushed=false — the mask was not shipped to the remote shards", shards, name)
			}
			bits, _, err := fix.eng.CohortBits(name)
			if err != nil {
				t.Fatal(err)
			}
			want := scanBits(col, st, tc.q)
			if !bits.Equal(want) {
				t.Errorf("shards=%d remote refine %s diverges from scan: %d vs %d",
					shards, name, bits.Count(), want.Count())
			}
			fresh, err := fix.eng.Execute(tc.q)
			if err != nil {
				t.Fatal(err)
			}
			if !bits.Equal(fresh) {
				t.Errorf("shards=%d remote refine %s diverges from from-scratch Execute", shards, name)
			}
		}

		// Remote profile merge: per-shard partial tallies over the RPC
		// must merge to the local engine's aggregate.
		window := model.Period{Start: model.Date(2005, 1, 1), End: model.Date(2015, 1, 1)}
		bits := scanBits(col, st, parent)
		remoteProf, err := fix.eng.Profile(bits, window)
		if err != nil {
			t.Fatalf("shards=%d remote Profile: %v", shards, err)
		}
		localProf, err := New(st, Options{Workers: 2}).Profile(bits, window)
		if err != nil {
			t.Fatal(err)
		}
		if remoteProf != localProf {
			t.Errorf("shards=%d remote profile diverges from local:\n remote %+v\n local  %+v",
				shards, remoteProf, localProf)
		}
	}
}

// TestRemoteCohortMaskWireHardening drives hostile masks straight at a
// shard server over raw RPC: wrong checksum, truncated container
// stream, garbage bytes, wrong population. Every one must come back as
// a loud error — never a panic, never a silently wrong bitset.
func TestRemoteCohortMaskWireHardening(t *testing.T) {
	col, _, _ := parityEngines(t)
	fix := startShardServers(t, col, 1, 1, RemoteOptions{Timeout: 30 * time.Second})
	client, err := rpc.Dial("tcp", fix.listeners[0].Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	plan, err := Compile(query.TrueExpr{})
	if err != nil {
		t.Fatal(err)
	}
	wired, err := planToWire(plan)
	if err != nil {
		t.Fatal(err)
	}
	crcOf := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }

	mask := store.NewBitset(col.Len())
	for i := 0; i < col.Len(); i += 3 {
		mask.Set(i)
	}
	good, err := mask.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	// evalMasked sends a one-item Eval; the call's error and the item's
	// own are both "the server refused".
	evalMasked := func(it ShardItem) ([]byte, error) {
		var reply EvalReply
		if err := client.Call("PastasShard.Eval", &EvalArgs{Plan: wired, Items: []ShardItem{it}}, &reply); err != nil {
			return nil, err
		}
		if reply.Results[0].Err != "" {
			return nil, errors.New(reply.Results[0].Err)
		}
		return reply.Results[0].Bits, nil
	}

	// Baseline: a well-formed mask is accepted.
	bits, err := evalMasked(ShardItem{Mask: good, MaskCRC: crcOf(good)})
	if err != nil {
		t.Fatalf("well-formed masked Eval rejected: %v", err)
	}
	got := new(store.Bitset)
	if err := got.UnmarshalBinary(bits); err != nil {
		t.Fatal(err)
	}
	if !got.Equal(mask) {
		t.Fatalf("masked TrueExpr returned %d patients, want the mask's %d", got.Count(), mask.Count())
	}

	flipped := append([]byte(nil), good...)
	flipped[len(flipped)/2] ^= 0xff
	// Wrong-population mask: valid container stream, valid crc, wrong
	// patient count for the shard.
	short, err := store.NewBitset(10).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	hostile := []struct {
		name string
		item ShardItem
		want string
	}{
		{"wrong crc", ShardItem{Mask: good, MaskCRC: crcOf(good) ^ 0xdeadbeef}, "mask checksum mismatch"},
		{"flipped byte, stale crc", ShardItem{Mask: flipped, MaskCRC: crcOf(good)}, "mask checksum mismatch"},
		{"truncated, recomputed crc", ShardItem{Mask: good[:len(good)-3], MaskCRC: crcOf(good[:len(good)-3])}, ""},
		{"garbage, recomputed crc", ShardItem{Mask: []byte{0xff, 0x01, 0x02}, MaskCRC: crcOf([]byte{0xff, 0x01, 0x02})}, ""},
		{"wrong population", ShardItem{Mask: short, MaskCRC: crcOf(short)}, "mask covers 10 patients"},
	}
	// Every mask-carrying RPC shares the one item envelope and its one
	// validate path, so each must refuse each hostile mask the same way:
	// Eval, IDs, and Analyze under every registered kind.
	ids := func(it ShardItem) error {
		var reply IDsReply
		if err := client.Call("PastasShard.IDs", &IDsArgs{Items: []ShardItem{it}}, &reply); err != nil {
			return err
		}
		if len(reply.IDs) != 1 || len(reply.IDs[0]) != mask.Count() {
			t.Errorf("IDs answered %d listings, the first of %d patients, for a mask of %d", len(reply.IDs), len(reply.IDs[0]), mask.Count())
		}
		return nil
	}
	calls := map[string]func(ShardItem) error{
		"Eval": func(it ShardItem) error { _, err := evalMasked(it); return err },
		"IDs":  ids,
	}
	for _, tc := range analyzeCases(t) {
		calls["Analyze("+tc.name+")"] = func(it ShardItem) error {
			return client.Call("PastasShard.Analyze",
				&AnalyzeRPCArgs{Kind: tc.req.Kind, Params: tc.req.params, Items: []ShardItem{it}}, new(AnalyzeRPCReply))
		}
	}
	for rpcName, call := range calls {
		for _, tc := range hostile {
			err := call(tc.item)
			if err == nil {
				t.Errorf("%s(%s): accepted a hostile mask", rpcName, tc.name)
				continue
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s(%s): error %q does not mention %q", rpcName, tc.name, err, tc.want)
			}
		}
		// And each accepts the same well-formed mask afterwards.
		if err := call(ShardItem{Mask: good, MaskCRC: crcOf(good)}); err != nil {
			t.Errorf("well-formed masked %s rejected: %v", rpcName, err)
		}
	}
}

// TestCohortRefineUnderConcurrentIngest races refinements against a
// sustained ingest stream. Every successful refinement reports the
// generation it evaluated at; its cardinality must equal the reference
// interpreter's count over that exact frozen generation — a stale seed
// or a torn mask would produce a count matching no generation. Run with
// -race in CI.
func TestCohortRefineUnderConcurrentIngest(t *testing.T) {
	const basePop = 200
	const rounds = 10
	st := store.New(fbCollection(basePop))
	e := New(st, Options{Workers: 4, CacheSize: 32})

	parent := valueScan(0, 94)
	narrow := query.And{parent, valueScan(40, 60)}

	refs := make([]int, rounds+1)
	record := func(g uint64) error {
		frozen := st.Freeze()
		bits, err := query.EvalIndexed(frozen, narrow)
		if err != nil {
			return err
		}
		refs[g] = bits.Count()
		return nil
	}
	if err := record(0); err != nil {
		t.Fatal(err)
	}

	type obs struct {
		gen   uint64
		count int
	}
	var samples []obs
	errCh := make(chan error, 2)
	done := make(chan struct{})

	go func() {
		defer close(done)
		for round := 1; round <= rounds; round++ {
			i := basePop + round - 1
			h := model.NewHistory(model.Patient{ID: model.PatientID(i + 1), Birth: model.Date(1960, 1, 1)})
			h.Add(model.Entry{
				ID: uint64(2 * i), Kind: model.Point, Start: model.Date(2012, 1, 1), End: model.Date(2012, 1, 1),
				Type: model.TypeMeasurement, Source: model.Source(1), Value: float64(i % 100),
			})
			if _, err := st.Append(store.AppendBatch{NewHistories: []*model.History{h}}); err != nil {
				errCh <- err
				return
			}
			if err := record(uint64(round)); err != nil {
				errCh <- err
				return
			}
		}
	}()

	ctx := context.Background()
	for {
		if _, err := e.Materialize(ctx, "p", parent); err != nil {
			errCh <- err
			break
		}
		info, _, err := e.Refine(ctx, "n", narrow)
		if err != nil {
			errCh <- err
			break
		}
		samples = append(samples, obs{info.Generation, info.Count})
		select {
		case <-done:
		default:
			continue
		}
		break
	}
	<-done
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}

	if len(samples) == 0 {
		t.Fatal("no refinement samples collected")
	}
	for _, o := range samples {
		if o.gen > rounds {
			t.Fatalf("refinement reports generation %d beyond the %d appends", o.gen, rounds)
		}
		if o.count != refs[o.gen] {
			t.Fatalf("refinement at generation %d returned %d patients, reference says %d — stale seed or torn mask",
				o.gen, o.count, refs[o.gen])
		}
	}
}
