package store

// The cohort segment: materialized cohorts persisted inside the snapshot,
// after the postings segments. Each record is a name,
// an opaque expression blob (the engine's wire codec; the store never
// interprets it) and a container-encoded bitset over the full
// population. The header carries the record count, the segment size and
// a crc32c over the whole segment, so a truncated or tampered segment is
// refused before a single record is parsed — and every inner length is
// re-validated against the remaining bytes, so a hostile header can
// never drive an allocation or a slice past the payload. A snapshot
// without cohorts has an empty segment and an all-zero header extension.

import (
	"encoding/binary"
	"fmt"
)

// maxSnapshotCohorts bounds the cohort count a header may claim.
const maxSnapshotCohorts = 1 << 12

// maxCohortNameLen bounds one persisted cohort name; the engine enforces
// 200 bytes at save time, the decoder allows a little slack but never an
// attacker-sized allocation.
const maxCohortNameLen = 1 << 10

// CohortRecord is one persisted cohort: the saved expression in the
// engine's wire codec (opaque to the store) and the materialized bitset
// over the snapshot's full population.
type CohortRecord struct {
	Name string
	Expr []byte
	Bits *Bitset
}

// encodeCohortSegment renders the records back to back:
// uvarint name length + name, uvarint expr length + expr, uvarint bits
// length + container-encoded bits.
func encodeCohortSegment(cohorts []CohortRecord) ([]byte, error) {
	var out []byte
	for _, c := range cohorts {
		if c.Name == "" || len(c.Name) > maxCohortNameLen {
			return nil, fmt.Errorf("store: cohort name length %d out of range [1, %d]", len(c.Name), maxCohortNameLen)
		}
		if c.Bits == nil {
			return nil, fmt.Errorf("store: cohort %q has no bitset", c.Name)
		}
		bits, err := c.Bits.MarshalBinary()
		if err != nil {
			return nil, fmt.Errorf("store: cohort %q: %w", c.Name, err)
		}
		out = binary.AppendUvarint(out, uint64(len(c.Name)))
		out = append(out, c.Name...)
		out = binary.AppendUvarint(out, uint64(len(c.Expr)))
		out = append(out, c.Expr...)
		out = binary.AppendUvarint(out, uint64(len(bits)))
		out = append(out, bits...)
	}
	return out, nil
}

// decodeCohortSegment parses a crc-verified cohort segment. count and
// patients come from the (already sanity-checked) header; every record
// field is still validated against the bytes actually present, duplicate
// names and trailing bytes are refused, and each bitset must cover the
// population exactly.
func decodeCohortSegment(data []byte, count, patients int) ([]CohortRecord, error) {
	out := make([]CohortRecord, 0, count)
	seen := make(map[string]bool, count)
	for i := 0; i < count; i++ {
		name, rest, err := readCohortField(data, maxCohortNameLen, "name")
		if err != nil {
			return nil, fmt.Errorf("store: cohort segment: record %d: %w", i, err)
		}
		if len(name) == 0 {
			return nil, fmt.Errorf("store: cohort segment: record %d: empty name", i)
		}
		expr, rest, err := readCohortField(rest, len(rest), "expression")
		if err != nil {
			return nil, fmt.Errorf("store: cohort segment: record %d (%q): %w", i, name, err)
		}
		bits, rest, err := readCohortField(rest, len(rest), "bitset")
		if err != nil {
			return nil, fmt.Errorf("store: cohort segment: record %d (%q): %w", i, name, err)
		}
		b := new(Bitset)
		if err := b.UnmarshalBinary(bits); err != nil {
			return nil, fmt.Errorf("store: cohort segment: record %d (%q): %w", i, name, err)
		}
		if b.Len() != patients {
			return nil, fmt.Errorf("store: cohort segment: record %d (%q): bitset covers %d patients, snapshot has %d",
				i, name, b.Len(), patients)
		}
		if seen[string(name)] {
			return nil, fmt.Errorf("store: cohort segment: duplicate cohort %q", name)
		}
		seen[string(name)] = true
		out = append(out, CohortRecord{
			Name: string(name),
			Expr: append([]byte(nil), expr...),
			Bits: b,
		})
		data = rest
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("store: cohort segment: %d trailing bytes after last record", len(data))
	}
	return out, nil
}

// readCohortField reads one uvarint-length-prefixed field, bounding the
// claimed length by both the caller's cap and the bytes remaining.
func readCohortField(data []byte, maxLen int, what string) (field, rest []byte, err error) {
	n, used := binary.Uvarint(data)
	if used <= 0 {
		return nil, nil, fmt.Errorf("%s length: truncated varint", what)
	}
	data = data[used:]
	if n > uint64(maxLen) || n > uint64(len(data)) {
		return nil, nil, fmt.Errorf("%s length %d exceeds remaining %d bytes", what, n, len(data))
	}
	return data[:n], data[n:], nil
}
