package store

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pastas/internal/model"
)

// writeShardedSnapshot saves a snapshot of n pristine patients to a temp
// file and returns its path along with the layout written.
func writeShardedSnapshot(t *testing.T, n, shards int) (string, *SnapshotInfo) {
	t.Helper()
	snap, info := saveSnap(t, New(snapCollection(n)), shards, nil)
	return writeTemp(t, snap), info
}

// TestOpenShardsSubsetRoundTrip: a subset-open store answers subset
// queries identically to the full store restricted to those shards.
func TestOpenShardsSubsetRoundTrip(t *testing.T) {
	const n, shards = 61, 4
	path, _ := writeShardedSnapshot(t, n, shards)
	full := New(snapCollection(n))

	opened, info, err := OpenShards(path, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if info.Shards != shards || len(opened) != 2 {
		t.Fatalf("opened %d of %d shards, info %+v", len(opened), shards, info)
	}
	for _, sh := range opened {
		view := full.Pin().Sub(sh.Offset, sh.Offset+sh.Col.Len())
		// Per-history identity against the full store's slice.
		want := view.Histories()
		got := sh.Col.Histories()
		if len(got) != len(want) {
			t.Fatalf("shard %d: %d histories, want %d", sh.Shard, len(got), len(want))
		}
		for i := range got {
			if got[i].Patient != want[i].Patient {
				t.Fatalf("shard %d history %d: patient differs", sh.Shard, i)
			}
			ge, we := got[i].SortedEntries(), want[i].SortedEntries()
			if len(ge) != len(we) {
				t.Fatalf("shard %d history %d: %d entries, want %d", sh.Shard, i, len(ge), len(we))
			}
			for j := range ge {
				if !reflect.DeepEqual(ge[j], we[j]) {
					t.Fatalf("shard %d history %d entry %d differs", sh.Shard, i, j)
				}
			}
		}
		// Query identity: a dedicated store over the opened shard answers
		// the same bitsets as the full store's view of that ordinal range.
		sub := New(sh.Col)
		for _, pattern := range []string{"T90", `E11(\..*)?`, `A.*|X.*`} {
			got, err := sub.WithCodeRegex("", pattern)
			if err != nil {
				t.Fatal(err)
			}
			want, err := view.WithCodeRegex("", pattern)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Errorf("shard %d: WithCodeRegex(%q) = %d patients, view says %d",
					sh.Shard, pattern, got.Count(), want.Count())
			}
		}
		for _, typ := range []int{1, 2, 3, 4, 5, 6} {
			if got, want := sub.WithType(model.Type(typ)), view.WithType(model.Type(typ)); !got.Equal(want) {
				t.Errorf("shard %d: WithType(%d) differs", sh.Shard, typ)
			}
		}
	}
}

func TestOpenShardsRefusesBadIDs(t *testing.T) {
	path, _ := writeShardedSnapshot(t, 40, 4)
	if _, _, err := OpenShards(path, 4); err == nil {
		t.Error("out-of-range shard id accepted")
	}
	if _, _, err := OpenShards(path, -1); err == nil {
		t.Error("negative shard id accepted")
	}
	if _, _, err := OpenShards(path, 1, 1); err == nil {
		t.Error("duplicate shard id accepted")
	}
}

// TestOpenShardsTruncatedErrorsAtHeaderTime: the shard table is checked
// against the file size before any segment read, even when the truncation
// only affects a shard that was not requested.
func TestOpenShardsTruncatedErrorsAtHeaderTime(t *testing.T) {
	path, _ := writeShardedSnapshot(t, 40, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trunc := filepath.Join(t.TempDir(), "trunc.snap")
	// Cut the last segment short; shard 0 itself is intact.
	if err := os.WriteFile(trunc, data[:len(data)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShards(trunc, 0); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestOpenShardsCorruptSegment(t *testing.T) {
	path, info := writeShardedSnapshot(t, 40, 4)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte inside shard 2's segment.
	si := info.ShardDetail[2]
	data[int(info.headerLen())+int(si.Offset)] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.snap")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShards(bad, 2); err == nil {
		t.Error("corrupt segment accepted")
	}
	// Other shards remain loadable: corruption is contained per segment.
	if _, _, err := OpenShards(bad, 0, 1, 3); err != nil {
		t.Errorf("intact shards refused: %v", err)
	}
}

// TestHeaderRejectsOverflowingShardTable: a hostile shard table whose
// segment sizes sum past int64 must error at header time — it can
// neither wrap info.Bytes negative (slipping past size validation) nor
// reach a 2^62-byte allocation.
func TestHeaderRejectsOverflowingShardTable(t *testing.T) {
	snap := shardedSnapshot(t, 40, 2)
	bad := append([]byte{}, snap...)
	huge := uint64(1) << 62
	const table = shardTableOff
	binary.BigEndian.PutUint64(bad[table+8:], huge)                  // row 0 bytes
	binary.BigEndian.PutUint64(bad[table+snapshotShardRow:], huge)   // row 1 offset (contiguous)
	binary.BigEndian.PutUint64(bad[table+snapshotShardRow+8:], huge) // row 1 bytes
	if _, _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("overflowing shard table accepted by Load")
	}
	if _, err := Inspect(bytes.NewReader(bad)); err == nil {
		t.Error("overflowing shard table accepted by Inspect")
	}
	path := filepath.Join(t.TempDir(), "overflow.snap")
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenShards(path, 0); err == nil {
		t.Error("overflowing shard table accepted by OpenShards")
	}
}

func TestBitsetFirstN(t *testing.T) {
	b := NewBitset(200)
	for _, i := range []int{3, 64, 65, 130, 199} {
		b.Set(i)
	}
	got := b.FirstN(3)
	if got.Len() != 200 || got.Count() != 3 {
		t.Fatalf("FirstN(3): len %d count %d", got.Len(), got.Count())
	}
	for _, i := range []int{3, 64, 65} {
		if !got.Get(i) {
			t.Errorf("bit %d missing", i)
		}
	}
	if got.Get(130) || got.Get(199) {
		t.Error("FirstN kept bits past the cutoff")
	}
	if b.FirstN(0).Count() != 0 || b.FirstN(-1).Count() != 0 {
		t.Error("FirstN(≤0) kept bits")
	}
	if b.FirstN(100).Count() != 5 {
		t.Error("FirstN larger than population lost bits")
	}
}

// TestBitsetWireRoundTrip covers the shard protocol's bitset codec,
// including odd capacities and hostile payloads.
func TestBitsetWireRoundTrip(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 200} {
		b := NewBitset(n)
		for i := 0; i < n; i += 3 {
			b.Set(i)
		}
		data, err := b.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Bitset
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !got.Equal(b) {
			t.Fatalf("n=%d: round-trip differs", n)
		}
	}
	var b Bitset
	if err := b.UnmarshalBinary(nil); err == nil {
		t.Error("empty payload accepted")
	}
	if err := b.UnmarshalBinary([]byte{wireEmpty, 200, 200, 200, 200, 200, 200, 200, 200, 200, 1}); err == nil {
		t.Error("huge capacity with no payload accepted")
	}
	good, _ := NewBitset(100).MarshalBinary()
	if err := b.UnmarshalBinary(good[:len(good)-3]); err == nil {
		t.Error("truncated payload accepted")
	}
	// Set bits beyond the declared capacity must be rejected: 65 bits,
	// one bitmap container with every word full.
	evil := append([]byte{wireEmpty, 65, wireBitmap}, bytes.Repeat([]byte{0xFF}, bitmapWireBytes)...)
	if err := b.UnmarshalBinary(evil); err == nil {
		t.Error("bits beyond capacity accepted")
	}
}

// TestStatsWireAndMerge: shard stats marshal losslessly, and merging the
// shards' stats reproduces the global store's exact cardinalities.
func TestStatsWireAndMerge(t *testing.T) {
	col := snapCollection(83)
	full := New(col)
	global := full.Stats()

	var parts []*Stats
	for _, b := range [][2]int{{0, 20}, {20, 55}, {55, 83}} {
		st := full.Pin().Sub(b[0], b[1]).Stats()
		data, err := st.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var rt Stats
		if err := rt.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(&rt, st) {
			t.Fatalf("stats round-trip differs: %+v vs %+v", rt, st)
		}
		parts = append(parts, &rt)
	}
	merged := MergeStats(parts...)
	if merged.Patients != global.Patients || merged.Entries != global.Entries {
		t.Fatalf("merged %d patients %d entries, global %d/%d",
			merged.Patients, merged.Entries, global.Patients, global.Entries)
	}
	if merged.DistinctCodes != global.DistinctCodes {
		t.Fatalf("merged %d distinct codes, global %d", merged.DistinctCodes, global.DistinctCodes)
	}
	for _, c := range full.DistinctCodes() {
		if got, want := merged.CodeCard(c.System, c.Value), global.CodeCard(c.System, c.Value); got != want {
			t.Errorf("code %v: merged %d, global %d", c, got, want)
		}
	}
	for i := 0; i < 8; i++ {
		if got, want := merged.TypeCard(model.Type(i)), global.TypeCard(model.Type(i)); got != want {
			t.Errorf("type %d: merged %d, global %d", i, got, want)
		}
	}
	if got, want := merged.AvgEntries(), global.AvgEntries(); got != want {
		t.Errorf("avg entries: merged %v, global %v", got, want)
	}
	// Pattern cardinalities drive the planner; they must agree too.
	for _, pattern := range []string{"T90", `E11(\..*)?`, `.*9`} {
		got, err := merged.CodePatternCard("", pattern)
		if err != nil {
			t.Fatal(err)
		}
		want, err := global.CodePatternCard("", pattern)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("pattern %q: merged %d, global %d", pattern, got, want)
		}
	}
	// So must value and birth buckets: the bands and years of the rows.
	for _, band := range [][2]float64{{0, 0}, {120, 123}, {126, 126}, {-1, 1e9}, {200, 100}} {
		if got, want := merged.ValueBandCard(band[0], band[1]), global.ValueBandCard(band[0], band[1]); got != want {
			t.Errorf("value band %v: merged %d, global %d", band, got, want)
		}
	}
	for _, years := range [][2]int64{{-60, -50}, {-45, -45}, {math.MinInt64, math.MaxInt64}, {1, 0}} {
		if got, want := merged.BirthCard(years[0], years[1]), global.BirthCard(years[0], years[1]); got != want {
			t.Errorf("birth years %v: merged %d, global %d", years, got, want)
		}
	}
	if !reflect.DeepEqual(merged.valueCard, global.valueCard) || !reflect.DeepEqual(merged.birthCard, global.birthCard) {
		t.Errorf("merged buckets differ from the global store's")
	}
}
