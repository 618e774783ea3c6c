package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"maps"
	"reflect"
	"slices"
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
	if want.MaxEntryID() != got.MaxEntryID() {
		t.Errorf("MaxEntryID = %d, want %d", got.MaxEntryID(), want.MaxEntryID())
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
		var st ContainerStats
		addStats(&st, sh.post.byCodeValue)
		addStats(&st, sh.post.byType)
		addStats(&st, sh.post.bySource)
		if lists := sh.post.lists(); pi.Lists != lists {
			t.Errorf("shard %d: table says %d lists, block has %d", sh.Shard, pi.Lists, lists)
		}
		if pi.Arrays != st.Arrays || pi.Bitmaps != st.Bitmaps || pi.Runs != st.Runs {
			t.Errorf("shard %d: table histogram %d/%d/%d, block %d/%d/%d",
				sh.Shard, pi.Arrays, pi.Bitmaps, pi.Runs, st.Arrays, st.Bitmaps, st.Runs)
		}
	}
}

func addStats[K comparable](st *ContainerStats, m map[K]*Bitset) {
	for _, bs := range m {
		st.Add(bs.ContainerStats())
	}
}

// TestSavePostingsMatchHistories: with appends still in the delta, each
// shard's saved postings segment decodes to exactly the code, type and
// source lists a walk over that shard's histories finds, and the shard's
// view counts the stats a store built on those histories does — on a
// store whose shards start inside a container, and one whose last shard
// crosses a container boundary and whose delta holds a type, a source and
// a value bucket its base lacks.
func TestSavePostingsMatchHistories(t *testing.T) {
	pages := pageHistories(1<<16 + 300)
	paged := New(model.MustCollection(pages...))
	next := uint64(1 << 40)
	b := edgeUpdates(pages, 0xf, &next)
	b.NewHistories = newPatients(&pages, 50, &next).NewHistories
	day := model.Date(2012, 1, 1)
	b.NewHistories[7].Add(model.Entry{ID: 1 << 50, Kind: model.Point, Start: day, End: day,
		Source: model.SourcePhysio, Type: model.TypeContact, Value: 1e6})
	if _, err := paged.Append(b); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		s      *Store
		shards int
	}{"ingested": {ingestedStore(t, 90, 103), 4}, "paged": {paged, 3}} {
		if c.s.Ingest().DeltaEntries == 0 {
			t.Fatalf("%s: no delta pending", name)
		}
		snap, _ := saveSnap(t, c.s, c.shards, nil)
		opened, _, err := OpenShards(writeTemp(t, snap))
		if err != nil {
			t.Fatal(err)
		}
		for _, sh := range opened {
			want := map[string][]int{}
			add := func(key string, i int) {
				if l := want[key]; len(l) == 0 || l[len(l)-1] != i {
					want[key] = append(l, i)
				}
			}
			v := c.s.Pin().Sub(sh.Offset, sh.Offset+sh.Col.Len())
			if !reflect.DeepEqual(v.Stats(), New(model.MustCollection(v.Histories()...)).Stats()) {
				t.Errorf("%s: shard %d: the view's stats differ from a store built on its histories", name, sh.Shard)
			}
			var codes []model.Code
			for i, h := range v.Histories() {
				for _, e := range h.Entries {
					if !e.Code.IsZero() {
						if _, seen := want["code "+e.Code.String()]; !seen {
							codes = append(codes, e.Code)
						}
						add("code "+e.Code.String(), i)
					}
					add(fmt.Sprintf("type %d", e.Type), i)
					add(fmt.Sprintf("source %d", e.Source), i)
				}
			}
			sortCodes(codes)
			got := map[string][]int{}
			for k, bs := range sh.post.byCodeValue {
				got["code "+model.Code{System: k.system, Value: k.value}.String()] = bs.Ones()
			}
			for k, bs := range sh.post.byType {
				got[fmt.Sprintf("type %d", k)] = bs.Ones()
			}
			for k, bs := range sh.post.bySource {
				got[fmt.Sprintf("source %d", k)] = bs.Ones()
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: shard %d: decoded postings differ from its histories'", name, sh.Shard)
			}
			if !reflect.DeepEqual(sh.codes, codes) {
				t.Errorf("%s: shard %d: codes %v, histories hold %v", name, sh.Shard, sh.codes, codes)
			}
		}
	}
}

// postingsSegments returns the postings segments Save writes for s at
// the shard count, back to back.
func postingsSegments(t testing.TB, s *Store, shards int) []byte {
	snap, info := saveSnap(t, s, shards, nil)
	last := info.ShardDetail[info.Shards-1]
	at := info.headerLen() + last.Offset + last.Bytes
	end := at
	for _, pi := range info.Postings {
		end += pi.Bytes
	}
	return snap[at:end]
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

// postingsCase is one postings segment for a shard of patients patients.
type postingsCase struct {
	name     string
	data     []byte
	patients int
}

// postingsCases returns a real 40-patient postings segment, sliced from a
// wider store, and the crafted variations of it that decodePostings must
// refuse: truncations, ordering violations, duplicates, capacity lies and
// an empty list.
func postingsCases(t testing.TB) (postingsCase, []postingsCase) {
	p, codes := New(snapCollection(50)).Pin().Sub(5, 45).postings()
	good, _, err := encodePostings(p, codes)
	if err != nil {
		t.Fatal(err)
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
	ooo := binary.AppendUvarint(nil, 2)
	for _, v := range []string{"B", "A"} {
		ooo = append(ooo, postCode)
		ooo = append(ooo, str("ICD10")...)
		ooo = append(ooo, str(v)...)
		ooo = append(ooo, encBits(bs)...)
	}
	// Duplicate type key.
	dup := binary.AppendUvarint(nil, 2)
	for range 2 {
		dup = append(dup, postType, 1)
		dup = append(dup, encBits(bs)...)
	}
	// Unknown list kind.
	unk := append(binary.AppendUvarint(nil, 1), 0x7F)
	unk = append(unk, encBits(bs)...)
	// One more code, last in vocabulary order, that no patient carries.
	p.byCodeValue[codeKey{"ZZZ", "0"}] = NewBitset(40)
	empty, _, err := encodePostings(p, append(codes, model.Code{System: "ZZZ", Value: "0"}))
	if err != nil {
		t.Fatal(err)
	}
	return postingsCase{"good payload", good, 40}, []postingsCase{
		{"capacity mismatch", good, 41},
		{"truncated payload", good[:len(good)-1], 40},
		{"trailing byte", append(append([]byte{}, good...), 0x00), 40},
		{"empty payload", []byte{}, 40},
		{"list-count lie", binary.AppendUvarint(nil, 1<<20), 40},
		{"out-of-order code vocabulary", ooo, 40},
		{"duplicate type list", dup, 40},
		{"unknown list kind", unk, 40},
		{"empty posting list", empty, 40},
	}
}

// TestDecodePostingsHostile: crafted postings payloads — truncations,
// ordering violations, duplicates, capacity lies, empty lists — error
// instead of decoding to a wrong index.
func TestDecodePostingsHostile(t *testing.T) {
	good, hostile := postingsCases(t)
	if _, _, err := decodePostings(good.data, good.patients); err != nil {
		t.Fatalf("good payload refused: %v", err)
	}
	for _, c := range hostile {
		if _, _, err := decodePostings(c.data, c.patients); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// FuzzDecodePostings: any payload of up to 4 KB, for a shard of 0–200
// patients, errors or decodes to non-empty lists of the shard's capacity
// with codes strictly ascending, one per code list; encoding the decoded
// layer and decoding it again gives the same layer.
func FuzzDecodePostings(f *testing.F) {
	good, hostile := postingsCases(f)
	for _, c := range append(hostile, good) {
		f.Add(c.data, uint8(c.patients))
	}
	f.Fuzz(func(t *testing.T, data []byte, n uint8) {
		patients := int(n) % 201
		if len(data) > 4096 {
			return
		}
		p, codes, err := decodePostings(data, patients)
		if err != nil {
			return
		}
		for i, c := range codes {
			if i > 0 && !(codes[i-1].System < c.System || codes[i-1].System == c.System && codes[i-1].Value < c.Value) {
				t.Fatalf("codes %v not strictly ascending", codes)
			}
			if p.byCodeValue[codeKey{c.System, c.Value}] == nil {
				t.Fatalf("code %v has no list", c)
			}
		}
		if len(p.byCodeValue) != len(codes) || p.byValue != nil {
			t.Fatalf("%d code lists for %d codes, value lists %v", len(p.byCodeValue), len(codes), p.byValue)
		}
		for _, bs := range slices.Concat(slices.Collect(maps.Values(p.byCodeValue)),
			slices.Collect(maps.Values(p.byType)), slices.Collect(maps.Values(p.bySource))) {
			if bs.Len() != patients || bs.Count() == 0 {
				t.Fatalf("a list of capacity %d holds %d patients, shard has %d", bs.Len(), bs.Count(), patients)
			}
		}
		again, _, err := encodePostings(p, codes)
		if err != nil {
			t.Fatal(err)
		}
		q, codes2, err := decodePostings(again, patients)
		if err != nil {
			t.Fatalf("re-encoded layer refused: %v", err)
		}
		if !reflect.DeepEqual(codes2, codes) || !sameLists(q.byCodeValue, p.byCodeValue) ||
			!sameLists(q.byType, p.byType) || !sameLists(q.bySource, p.bySource) {
			t.Fatal("re-encoded layer decodes to another layer")
		}
	})
}

// sameLists reports whether two posting maps hold the same keys and sets.
func sameLists[K comparable](a, b map[K]*Bitset) bool {
	return maps.EqualFunc(a, b, (*Bitset).Equal)
}
