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

// encodePostings serializes a shard's code, type and source postings
// deterministically: codes in the order given (the layer's codes,
// sorted), then types, then sources in ascending scalar order, each list
// as kind + key + length-prefixed container-encoded bitset. Returns the
// segment and its PostingsInfo histogram (Checksum left for the caller).
func encodePostings(p *postings, codes []model.Code) ([]byte, PostingsInfo, error) {
	var pi PostingsInfo
	lists := len(codes) + len(p.byType) + len(p.bySource)
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
	for _, c := range codes {
		out = append(out, postCode)
		appendString(c.System)
		appendString(c.Value)
		if err := appendBits(p.byCodeValue[codeKey{c.System, c.Value}]); err != nil {
			return nil, pi, err
		}
	}
	for _, t := range sortedKeys(p.byType) {
		out = append(out, postType, byte(t))
		if err := appendBits(p.byType[t]); err != nil {
			return nil, pi, err
		}
	}
	for _, s := range sortedKeys(p.bySource) {
		out = append(out, postSource, byte(s))
		if err := appendBits(p.bySource[s]); err != nil {
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
func (pi PostingsInfo) decode(seg []byte, patients int) (*postings, []model.Code, error) {
	if err := verifySegment(seg, pi.Checksum); err != nil {
		return nil, nil, err
	}
	return decodePostings(seg, patients)
}

// decodePostings decodes a postings segment for a shard of `patients`
// patients into a postings layer (value postings left nil) and its
// codes, sorted. Every length is bounded by the bytes present, every
// bitset must declare exactly the shard's capacity and hold a patient —
// Save writes no empty list, and one would add a code to the vocabulary
// that no patient carries — so a corrupt or hostile segment errors
// instead of allocating from a lie or decoding to a wrong index.
func decodePostings(data []byte, patients int) (*postings, []model.Code, error) {
	lists, k := binary.Uvarint(data)
	if k <= 0 {
		return nil, nil, fmt.Errorf("store: postings: truncated list count")
	}
	data = data[k:]
	if lists > maxPostingLists || lists > uint64(len(data)) {
		return nil, nil, fmt.Errorf("store: postings: %d lists exceed %d payload bytes", lists, len(data))
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
		if bs.Count() == 0 {
			return nil, fmt.Errorf("store: postings: empty posting list")
		}
		return &bs, nil
	}
	p := &postings{
		byCodeValue: make(map[codeKey]*Bitset),
		byType:      make(map[model.Type]*Bitset),
		bySource:    make(map[model.Source]*Bitset),
	}
	codes := []model.Code{}
	for i := uint64(0); i < lists; i++ {
		if len(data) == 0 {
			return nil, nil, fmt.Errorf("store: postings: truncated at list %d of %d", i, lists)
		}
		kind := data[0]
		data = data[1:]
		switch kind {
		case postCode:
			system, err := readString()
			if err != nil {
				return nil, nil, err
			}
			value, err := readString()
			if err != nil {
				return nil, nil, err
			}
			bs, err := readBits()
			if err != nil {
				return nil, nil, err
			}
			if n := len(codes); n > 0 {
				prev := codes[n-1]
				if prev.System > system || (prev.System == system && prev.Value >= value) {
					return nil, nil, fmt.Errorf("store: postings: code vocabulary out of order")
				}
			}
			codes = append(codes, model.Code{System: system, Value: value})
			p.byCodeValue[codeKey{system, value}] = bs
		case postType:
			if len(data) == 0 {
				return nil, nil, fmt.Errorf("store: postings: truncated type key")
			}
			t := model.Type(data[0])
			data = data[1:]
			if _, dup := p.byType[t]; dup {
				return nil, nil, fmt.Errorf("store: postings: duplicate type %d", t)
			}
			bs, err := readBits()
			if err != nil {
				return nil, nil, err
			}
			p.byType[t] = bs
		case postSource:
			if len(data) == 0 {
				return nil, nil, fmt.Errorf("store: postings: truncated source key")
			}
			s := model.Source(data[0])
			data = data[1:]
			if _, dup := p.bySource[s]; dup {
				return nil, nil, fmt.Errorf("store: postings: duplicate source %d", s)
			}
			bs, err := readBits()
			if err != nil {
				return nil, nil, err
			}
			p.bySource[s] = bs
		default:
			return nil, nil, fmt.Errorf("store: postings: unknown list kind 0x%02x", kind)
		}
	}
	if len(data) != 0 {
		return nil, nil, fmt.Errorf("store: postings: %d trailing bytes", len(data))
	}
	return p, codes, nil
}
