package store

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"pastas/internal/model"
)

// storesEquivalent asserts two stores over the same collection answer
// every index lookup identically: the postings-restored store must be
// indistinguishable from one built by walking the entries.
func storesEquivalent(t *testing.T, want, got *Store) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len = %d, want %d", got.Len(), want.Len())
	}
	wc, gc := want.DistinctCodes(), got.DistinctCodes()
	if !reflect.DeepEqual(wc, gc) {
		t.Fatalf("DistinctCodes = %v, want %v", gc, wc)
	}
	for _, c := range wc {
		if !want.WithCode(c.System, c.Value).Equal(got.WithCode(c.System, c.Value)) {
			t.Errorf("WithCode(%q, %q) differs", c.System, c.Value)
		}
	}
	for ty := 0; ty < 16; ty++ {
		if !want.WithType(model.Type(ty)).Equal(got.WithType(model.Type(ty))) {
			t.Errorf("WithType(%d) differs", ty)
		}
	}
	for src := 0; src < 16; src++ {
		if !want.WithSource(model.Source(src)).Equal(got.WithSource(model.Source(src))) {
			t.Errorf("WithSource(%d) differs", src)
		}
	}
	if !reflect.DeepEqual(want.Stats(), got.Stats()) {
		t.Errorf("Stats differ:\n got %+v\nwant %+v", got.Stats(), want.Stats())
	}
	for i := 0; i < want.Len(); i++ {
		if want.PatientAt(i) != got.PatientAt(i) {
			t.Fatalf("PatientAt(%d) = %v, want %v", i, got.PatientAt(i), want.PatientAt(i))
		}
	}
}

// TestOpenShardsPostingsHistogram: the header's per-shard container
// histogram is the decoded block's histogram (the restored indexes
// themselves are compared with a rebuilt store in TestSaveLoadRoundTrip).
func TestOpenShardsPostingsHistogram(t *testing.T) {
	path, info := writeShardedSnapshot(t, 73, 4)
	opened, _, err := OpenShards(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, sh := range opened {
		pi := info.Postings[sh.Shard]
		st := sh.Postings.Stats()
		if lists := len(sh.Postings.Codes) + len(sh.Postings.Types) + len(sh.Postings.Sources); pi.Lists != lists {
			t.Errorf("shard %d: table says %d lists, block has %d", sh.Shard, pi.Lists, lists)
		}
		if pi.Arrays != st.Arrays || pi.Bitmaps != st.Bitmaps || pi.Runs != st.Runs {
			t.Errorf("shard %d: table histogram %d/%d/%d, block %d/%d/%d",
				sh.Shard, pi.Arrays, pi.Bitmaps, pi.Runs, st.Arrays, st.Bitmaps, st.Runs)
		}
	}
}

// TestSnapshotPostingsCorruption: a flipped bit in a postings segment is
// caught by its checksum — by the streaming loader and by OpenShards for
// the owning shard — while other shards stay loadable.
func TestSnapshotPostingsCorruption(t *testing.T) {
	snap, info := saveSnap(t, New(snapCollection(73)), 4, nil)
	last := info.ShardDetail[info.Shards-1]
	postBase := info.headerLen() + last.Offset + last.Bytes

	// Corrupt shard 2's postings segment.
	off := postBase + info.Postings[0].Bytes + info.Postings[1].Bytes
	bad := append([]byte{}, snap...)
	bad[off] ^= 0x10
	if _, _, _, err := Load(bytes.NewReader(bad)); err == nil {
		t.Error("streaming loader accepted a corrupt postings segment")
	}
	path := writeTemp(t, bad)
	if _, _, err := OpenShards(path, 2); err == nil {
		t.Error("OpenShards accepted a corrupt postings segment")
	}
	if _, _, err := OpenShards(path, 0, 1, 3); err != nil {
		t.Errorf("intact shards refused: %v", err)
	}

	// A postings table claiming more bytes than the file holds must fail
	// size validation at header time.
	huge := append([]byte{}, snap...)
	binary.BigEndian.PutUint64(huge[postingsTableOff(info.Shards):], 1<<40)
	if _, _, err := OpenShards(writeTemp(t, huge)); err == nil {
		t.Error("postings table byte-count lie accepted")
	}
}

// TestDecodePostingsHostile: crafted postings payloads — truncations,
// ordering violations, duplicates, capacity lies — error instead of
// decoding to a wrong index.
func TestDecodePostingsHostile(t *testing.T) {
	hs := snapCollection(40).Histories()
	sp := buildShardPostings(hs)
	good, _, err := encodePostings(sp)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodePostings(good, 40); err != nil {
		t.Fatalf("good payload refused: %v", err)
	}

	if _, err := decodePostings(good, 41); err == nil {
		t.Error("capacity mismatch accepted")
	}
	if _, err := decodePostings(good[:len(good)-1], 40); err == nil {
		t.Error("truncated payload accepted")
	}
	if _, err := decodePostings(append(append([]byte{}, good...), 0x00), 40); err == nil {
		t.Error("trailing byte accepted")
	}
	if _, err := decodePostings([]byte{}, 40); err == nil {
		t.Error("empty payload accepted")
	}
	// List count exceeding the payload.
	lie := binary.AppendUvarint(nil, 1<<20)
	if _, err := decodePostings(lie, 40); err == nil {
		t.Error("list-count lie accepted")
	}

	encBits := func(bs *Bitset) []byte {
		data, err := bs.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		out := binary.AppendUvarint(nil, uint64(len(data)))
		return append(out, data...)
	}
	str := func(s string) []byte {
		return append(binary.AppendUvarint(nil, uint64(len(s))), s...)
	}
	bs := NewBitset(40)
	bs.Set(3)

	// Codes out of vocabulary order.
	var ooo []byte
	ooo = binary.AppendUvarint(ooo, 2)
	for _, v := range []string{"B", "A"} {
		ooo = append(ooo, postCode)
		ooo = append(ooo, str("ICD10")...)
		ooo = append(ooo, str(v)...)
		ooo = append(ooo, encBits(bs)...)
	}
	if _, err := decodePostings(ooo, 40); err == nil {
		t.Error("out-of-order code vocabulary accepted")
	}

	// Duplicate type key.
	var dup []byte
	dup = binary.AppendUvarint(dup, 2)
	for i := 0; i < 2; i++ {
		dup = append(dup, postType, 1)
		dup = append(dup, encBits(bs)...)
	}
	if _, err := decodePostings(dup, 40); err == nil {
		t.Error("duplicate type list accepted")
	}

	// Unknown list kind.
	var unk []byte
	unk = binary.AppendUvarint(unk, 1)
	unk = append(unk, 0x7F)
	unk = append(unk, encBits(bs)...)
	if _, err := decodePostings(unk, 40); err == nil {
		t.Error("unknown list kind accepted")
	}
}
