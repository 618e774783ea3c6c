package store

// Snapshot postings block. A snapshot carries, after the history
// segments, one postings segment per shard: the shard's inverted indexes
// (code/type/source → patients) in the containerized bitset wire
// encoding. The header's postings table stores each segment's size,
// checksum, and container-type histogram, so `snapshot info` can report
// per-shard compression without decoding anything, and a shard server can
// restore its indexes from the file instead of re-walking every entry.

import (
	"encoding/binary"
	"fmt"
	"sort"

	"pastas/internal/model"
)

// PostingsInfo describes one shard's postings segment: its size and
// checksum, and the container composition of its bitset encodings — the
// per-shard compression stats `snapshot info` reports.
type PostingsInfo struct {
	Shard    int    `json:"shard"`
	Bytes    int64  `json:"bytes"`
	Lists    int    `json:"lists"` // posting lists (codes + types + sources)
	Arrays   int    `json:"arrays"`
	Bitmaps  int    `json:"bitmaps"`
	Runs     int    `json:"runs"`
	Checksum uint32 `json:"checksum"`
}

// postings list kinds on the wire.
const (
	postCode   = 0x00
	postType   = 0x01
	postSource = 0x02
)

// maxPostingLists bounds the list count one postings segment may claim.
const maxPostingLists = 1 << 24

// ShardPostings holds one shard's decoded inverted indexes in shard-local
// ordinal space.
type ShardPostings struct {
	Patients int
	Codes    []CodePosting // sorted by system, then value
	Types    map[model.Type]*Bitset
	Sources  map[model.Source]*Bitset
}

// CodePosting is one code's patient set.
type CodePosting struct {
	Code model.Code
	Bits *Bitset
}

// Stats aggregates the container composition across every posting list.
func (sp *ShardPostings) Stats() ContainerStats {
	var st ContainerStats
	for _, cp := range sp.Codes {
		st.Add(cp.Bits.ContainerStats())
	}
	for _, bs := range sp.Types {
		st.Add(bs.ContainerStats())
	}
	for _, bs := range sp.Sources {
		st.Add(bs.ContainerStats())
	}
	return st
}

// buildShardPostings walks a shard's histories once and builds its
// inverted indexes — the same index semantics as New (entries with a zero
// code contribute no code posting), in shard-local ordinal space.
func buildShardPostings(hs []*model.History) *ShardPostings {
	n := len(hs)
	sp := &ShardPostings{
		Patients: n,
		Types:    make(map[model.Type]*Bitset),
		Sources:  make(map[model.Source]*Bitset),
	}
	byCode := make(map[codeKey]*Bitset)
	for i, h := range hs {
		for j := range h.Entries {
			e := &h.Entries[j]
			if !e.Code.IsZero() {
				setIn(byCode, codeKey{e.Code.System, e.Code.Value}, n, i)
			}
			setIn(sp.Types, e.Type, n, i)
			setIn(sp.Sources, e.Source, n, i)
		}
	}
	sp.Codes = make([]CodePosting, 0, len(byCode))
	for k, bs := range byCode {
		sp.Codes = append(sp.Codes, CodePosting{Code: model.Code{System: k.system, Value: k.value}, Bits: bs})
	}
	sort.Slice(sp.Codes, func(i, j int) bool {
		if sp.Codes[i].Code.System != sp.Codes[j].Code.System {
			return sp.Codes[i].Code.System < sp.Codes[j].Code.System
		}
		return sp.Codes[i].Code.Value < sp.Codes[j].Code.Value
	})
	return sp
}

// encodePostings serializes a shard's postings deterministically: codes
// in vocabulary order, then types, then sources in ascending scalar
// order, each list as kind + key + length-prefixed container-encoded
// bitset. Returns the segment and its PostingsInfo histogram (Checksum
// left for the caller).
func encodePostings(sp *ShardPostings) ([]byte, PostingsInfo, error) {
	var pi PostingsInfo
	lists := len(sp.Codes) + len(sp.Types) + len(sp.Sources)
	out := binary.AppendUvarint(nil, uint64(lists))
	appendBits := func(bs *Bitset) error {
		data, err := bs.MarshalBinary()
		if err != nil {
			return err
		}
		st := bs.ContainerStats()
		pi.Arrays += st.Arrays
		pi.Bitmaps += st.Bitmaps
		pi.Runs += st.Runs
		out = binary.AppendUvarint(out, uint64(len(data)))
		out = append(out, data...)
		return nil
	}
	appendString := func(s string) {
		out = binary.AppendUvarint(out, uint64(len(s)))
		out = append(out, s...)
	}
	for _, cp := range sp.Codes {
		out = append(out, postCode)
		appendString(cp.Code.System)
		appendString(cp.Code.Value)
		if err := appendBits(cp.Bits); err != nil {
			return nil, pi, err
		}
	}
	for _, t := range sortedKeys(sp.Types) {
		out = append(out, postType, byte(t))
		if err := appendBits(sp.Types[t]); err != nil {
			return nil, pi, err
		}
	}
	for _, s := range sortedKeys(sp.Sources) {
		out = append(out, postSource, byte(s))
		if err := appendBits(sp.Sources[s]); err != nil {
			return nil, pi, err
		}
	}
	pi.Lists = lists
	pi.Bytes = int64(len(out))
	return out, pi, nil
}

// sortedKeys returns a map's uint8-valued keys in ascending order.
func sortedKeys[K ~uint8, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// decode verifies the postings segment this table row describes against
// its checksum and decodes it for a shard of `patients` patients.
func (pi PostingsInfo) decode(seg []byte, patients int) (*ShardPostings, error) {
	if err := verifySegment(seg, pi.Checksum); err != nil {
		return nil, err
	}
	return decodePostings(seg, patients)
}

// decodePostings decodes a postings segment for a shard of `patients`
// patients. Every length is bounded by the bytes present and every bitset
// must declare exactly the shard's capacity, so a corrupt or hostile
// segment errors instead of allocating from a lie.
func decodePostings(data []byte, patients int) (*ShardPostings, error) {
	lists, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, fmt.Errorf("store: postings: truncated list count")
	}
	data = data[k:]
	if lists > maxPostingLists || lists > uint64(len(data)) {
		return nil, fmt.Errorf("store: postings: %d lists exceed %d payload bytes", lists, len(data))
	}
	readString := func() (string, error) {
		l, k := binary.Uvarint(data)
		if k <= 0 || l > uint64(len(data)-k) {
			return "", fmt.Errorf("store: postings: truncated string")
		}
		s := string(data[k : k+int(l)])
		data = data[k+int(l):]
		return s, nil
	}
	readBits := func() (*Bitset, error) {
		l, k := binary.Uvarint(data)
		if k <= 0 || l > uint64(len(data)-k) {
			return nil, fmt.Errorf("store: postings: truncated bitset")
		}
		var bs Bitset
		if err := bs.UnmarshalBinary(data[k : k+int(l)]); err != nil {
			return nil, err
		}
		data = data[k+int(l):]
		if bs.Len() != patients {
			return nil, fmt.Errorf("store: postings: bitset capacity %d, shard has %d patients", bs.Len(), patients)
		}
		return &bs, nil
	}
	sp := &ShardPostings{
		Patients: patients,
		Types:    make(map[model.Type]*Bitset),
		Sources:  make(map[model.Source]*Bitset),
	}
	for i := uint64(0); i < lists; i++ {
		if len(data) == 0 {
			return nil, fmt.Errorf("store: postings: truncated at list %d of %d", i, lists)
		}
		kind := data[0]
		data = data[1:]
		switch kind {
		case postCode:
			system, err := readString()
			if err != nil {
				return nil, err
			}
			value, err := readString()
			if err != nil {
				return nil, err
			}
			bs, err := readBits()
			if err != nil {
				return nil, err
			}
			if n := len(sp.Codes); n > 0 {
				prev := sp.Codes[n-1].Code
				if prev.System > system || (prev.System == system && prev.Value >= value) {
					return nil, fmt.Errorf("store: postings: code vocabulary out of order")
				}
			}
			sp.Codes = append(sp.Codes, CodePosting{Code: model.Code{System: system, Value: value}, Bits: bs})
		case postType:
			if len(data) == 0 {
				return nil, fmt.Errorf("store: postings: truncated type key")
			}
			t := model.Type(data[0])
			data = data[1:]
			if _, dup := sp.Types[t]; dup {
				return nil, fmt.Errorf("store: postings: duplicate type %d", t)
			}
			bs, err := readBits()
			if err != nil {
				return nil, err
			}
			sp.Types[t] = bs
		case postSource:
			if len(data) == 0 {
				return nil, fmt.Errorf("store: postings: truncated source key")
			}
			s := model.Source(data[0])
			data = data[1:]
			if _, dup := sp.Sources[s]; dup {
				return nil, fmt.Errorf("store: postings: duplicate source %d", s)
			}
			bs, err := readBits()
			if err != nil {
				return nil, err
			}
			sp.Sources[s] = bs
		default:
			return nil, fmt.Errorf("store: postings: unknown list kind 0x%02x", kind)
		}
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("store: postings: %d trailing bytes", len(data))
	}
	return sp, nil
}

// NewFromPostings indexes a collection using a snapshot's code, type and
// source postings, so a loaded shard skips New's per-entry index work
// except the value buckets, which a snapshot does not carry (finishStore
// walks the entries once for them). The postings must cover exactly this
// collection — decodePostings has already enforced capacity; cardinality
// statistics are read off the container metadata.
func NewFromPostings(col *model.Collection, sp *ShardPostings) (*Store, error) {
	n := col.Len()
	if sp.Patients != n {
		return nil, fmt.Errorf("store: postings cover %d patients, collection has %d", sp.Patients, n)
	}
	base := &postings{
		byCodeValue: make(map[codeKey]*Bitset, len(sp.Codes)),
		byType:      sp.Types,
		bySource:    sp.Sources,
	}
	codes := make([]model.Code, len(sp.Codes))
	for i, cp := range sp.Codes {
		codes[i] = cp.Code
		base.byCodeValue[codeKey{cp.Code.System, cp.Code.Value}] = cp.Bits
	}
	return finishStore(col, base, codes), nil
}
