package store

// Snapshot persistence. Loading 168k patients from the raw registry files
// takes orders of magnitude longer than decoding a pre-integrated
// snapshot; the workbench saves the integrated collection (and the
// analyst's materialized cohorts) once and reopens instantly.
//
// There is one format, and this comment is its authoritative layout. The
// collection is split on the same ordinal-contiguous boundaries the engine
// shards on; each chunk is written as an independently decodable history
// segment (segment.go) and a postings segment holding the chunk's inverted
// indexes (snapshot_postings.go), and the cohorts ride in one trailing
// cohort segment (snapshot_cohorts.go). The file leads with a header whose
// size depends on the shard count S alone, so version and integrity are
// checked before a single payload byte is decoded. Integers are
// big-endian, checksums crc32c (Castagnoli) over the segment bytes:
//
//	offset   field
//	0        magic "PASTSNP2" (8 bytes)
//	8        version  uint32 (= 5)
//	12       shards   uint32 (S ≥ 1)
//	16       patients uint64 (total)
//	24       entries  uint64 (total)
//	32       ingest extension: the store revision the snapshot was taken
//	         from; all zero for a store that never ingested
//	           generation     uint64
//	           delta entries  uint64 (pending compaction at save)
//	           delta patients uint64
//	           compactions    uint64
//	64       cohort extension; all zero with no cohorts
//	           cohorts uint32
//	           bytes   uint64 (cohort segment size)
//	           crc32c  uint32
//	80       shard table, S rows:
//	           offset   uint64 (from the end of the header)
//	           bytes    uint64
//	           patients uint64
//	           entries  uint64
//	           crc32c   uint32
//	80+36·S  postings table, S rows:
//	           bytes   uint64
//	           crc32c  uint32
//	           lists, arrays, bitmaps, runs  uint32 each
//	80+64·S  S history segments, then S postings segments, then the
//	         cohort segment, back to back
//
// Histories are saved fully merged (base ∪ delta), so the ingest counters
// are provenance, not reconstruction state: a reload starts a fresh
// generation 0 over the merged data.
//
// The version is 5 because four shorter layouts preceded it (a gob stream,
// then headers without the postings table or the extensions). Nothing
// reads or writes them any more: a snapshot is a cache, and `cohortctl
// snapshot save -data …` / `ingest -feed …` rebuild it from the registry
// extracts.
//
// Save encodes segments concurrently; Load reads the segments off the
// stream sequentially (it only needs an io.Reader) but decodes them on a
// worker pool and merges in fixed shard order, so the result is
// deterministic regardless of which decode finishes first.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"runtime"
	"sync"

	"pastas/internal/model"
)

// snapshotMagic leads every snapshot.
const snapshotMagic = "PASTSNP2"

// snapshotVersion is the one layout Save writes and readHeader accepts.
const snapshotVersion = 5

// snapshotBufSize is the bufio buffer for streaming snapshot reads.
const snapshotBufSize = 1 << 20

// maxSnapshotShards bounds the shard count a header may claim, so a
// corrupt or hostile header cannot demand a gigantic shard table.
const maxSnapshotShards = 1 << 16

const (
	snapshotHeaderFixed = 8 + 4 + 4 + 8 + 8     // magic, version, shards, patients, entries
	snapshotIngestExt   = 8 + 8 + 8 + 8         // generation, delta entries, delta patients, compactions
	snapshotCohortExt   = 4 + 8 + 4             // cohorts, segment bytes, crc
	snapshotShardRow    = 8 + 8 + 8 + 8 + 4     // offset, bytes, patients, entries, crc
	snapshotPostingsRow = 8 + 4 + 4 + 4 + 4 + 4 // bytes, crc, lists, arrays, bitmaps, runs
)

// crcTable is the Castagnoli polynomial (hardware-accelerated on amd64/arm64).
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// ShardInfo describes one history segment of a snapshot.
type ShardInfo struct {
	Shard    int    `json:"shard"`
	Offset   int64  `json:"offset"` // from the end of the header
	Bytes    int64  `json:"bytes"`
	Patients int    `json:"patients"`
	Entries  int    `json:"entries"`
	Checksum uint32 `json:"checksum"`
}

// SnapshotInfo is the provenance of a saved, decoded or inspected snapshot.
type SnapshotInfo struct {
	Version  int `json:"version"`
	Shards   int `json:"shards"`
	Patients int `json:"patients"`
	Entries  int `json:"entries"`
	// Bytes is the total snapshot size (header + segments).
	Bytes       int64       `json:"bytes"`
	ShardDetail []ShardInfo `json:"shard_detail,omitempty"`
	// Postings describes the per-shard containerized postings segments:
	// sizes, checksums, and container histograms.
	Postings []PostingsInfo `json:"postings,omitempty"`
	// Live-ingest provenance: the generation of the store revision the
	// snapshot was taken from, the delta still pending compaction at that
	// moment, and how many compactions had run. The snapshot payload is
	// always fully merged; these are informational.
	Generation    uint64 `json:"generation,omitempty"`
	DeltaEntries  int    `json:"delta_entries,omitempty"`
	DeltaPatients int    `json:"delta_patients,omitempty"`
	Compactions   uint64 `json:"compactions,omitempty"`
	// Materialized cohorts persisted with the snapshot: record count,
	// segment size, and the segment's crc32c.
	Cohorts        int    `json:"cohorts,omitempty"`
	CohortBytes    int64  `json:"cohort_bytes,omitempty"`
	CohortChecksum uint32 `json:"cohort_checksum,omitempty"`
}

// headerLen returns the full header size: fixed part, both extensions,
// shard table and postings table. Segment offsets are relative to this
// point.
func (si *SnapshotInfo) headerLen() int64 {
	return snapshotHeaderFixed + snapshotIngestExt + snapshotCohortExt +
		int64(si.Shards)*(snapshotShardRow+snapshotPostingsRow)
}

// Format names the wire format for display.
func (si *SnapshotInfo) Format() string {
	return fmt.Sprintf("sharded-v%d", si.Version)
}

// shardBounds splits n patients into the engine's ordinal-contiguous
// chunks: ceil(n/shards) per shard, clamped to [1, min(n,
// maxSnapshotShards)] — the upper clamp guarantees Save can never write
// a shard count Load refuses. A zero-patient collection still gets one
// (empty) shard so the header stays regular.
func shardBounds(n, shards int) [][2]int {
	if shards < 1 {
		shards = 1
	}
	if shards > n {
		shards = n
	}
	if shards > maxSnapshotShards {
		shards = maxSnapshotShards
	}
	if n == 0 {
		return [][2]int{{0, 0}}
	}
	chunk := (n + shards - 1) / shards
	var bounds [][2]int
	for off := 0; off < n; off += chunk {
		bounds = append(bounds, [2]int{off, min(off+chunk, n)})
	}
	return bounds
}

// Save snapshots a store with the given shard count (clamped to
// [1, patients]) and returns the layout it wrote. The current revision is
// pinned once and its histories are written fully merged, with the
// revision's ingest provenance in the header, so saving is safe while
// appends and queries run: the pinned revision is immutable, and entries
// are serialized through SortedEntries, which copies before sorting, so a
// history a concurrent query is scanning is never reordered. cohorts are
// persisted in the cohort segment; a record that does not cover the pinned
// population — exported just before a concurrent append, which has already
// invalidated it in the workspace — is dropped rather than failing the
// save. Segments are encoded concurrently on a worker pool.
func Save(w io.Writer, s *Store, shards int, cohorts []CohortRecord) (*SnapshotInfo, error) {
	r := s.loadRev()
	col := r.collection()
	hs := col.Histories()
	kept := make([]CohortRecord, 0, len(cohorts))
	for _, c := range cohorts {
		if c.Bits != nil && c.Bits.Len() == len(hs) {
			kept = append(kept, c)
		}
	}
	if len(kept) > maxSnapshotCohorts {
		return nil, fmt.Errorf("store: save snapshot: %d cohorts exceeds limit %d", len(kept), maxSnapshotCohorts)
	}
	cohortSeg, err := encodeCohortSegment(kept)
	if err != nil {
		return nil, fmt.Errorf("store: save snapshot: %w", err)
	}

	bounds := shardBounds(len(hs), shards)
	segs := make([][]byte, len(bounds))
	postSegs := make([][]byte, len(bounds))
	postInfos := make([]PostingsInfo, len(bounds))
	postErrs := make([]error, len(bounds))

	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, b := range bounds {
		wg.Add(1)
		go func(i int, lo, hi int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			segs[i] = encodeSegment(hs[lo:hi])
			seg, pi, err := encodePostings(buildShardPostings(hs[lo:hi]))
			if err != nil {
				postErrs[i] = err
				return
			}
			pi.Shard = i
			pi.Checksum = crc32.Checksum(seg, crcTable)
			postSegs[i], postInfos[i] = seg, pi
		}(i, b[0], b[1])
	}
	wg.Wait()
	for _, err := range postErrs {
		if err != nil {
			return nil, fmt.Errorf("store: save snapshot: postings: %w", err)
		}
	}

	info := &SnapshotInfo{
		Version:  snapshotVersion,
		Shards:   len(bounds),
		Patients: len(hs),
		Entries:  col.TotalEntries(),
		Postings: postInfos,

		Generation:    r.gen,
		DeltaEntries:  r.deltaEntries,
		DeltaPatients: r.deltaPatients,
		Compactions:   r.compaction.Runs,

		Cohorts:        len(kept),
		CohortBytes:    int64(len(cohortSeg)),
		CohortChecksum: crc32.Checksum(cohortSeg, crcTable),
	}
	header := make([]byte, 0, info.headerLen())
	header = append(header, snapshotMagic...)
	header = binary.BigEndian.AppendUint32(header, snapshotVersion)
	header = binary.BigEndian.AppendUint32(header, uint32(len(bounds)))
	header = binary.BigEndian.AppendUint64(header, uint64(info.Patients))
	header = binary.BigEndian.AppendUint64(header, uint64(info.Entries))
	header = binary.BigEndian.AppendUint64(header, info.Generation)
	header = binary.BigEndian.AppendUint64(header, uint64(info.DeltaEntries))
	header = binary.BigEndian.AppendUint64(header, uint64(info.DeltaPatients))
	header = binary.BigEndian.AppendUint64(header, info.Compactions)
	header = binary.BigEndian.AppendUint32(header, uint32(info.Cohorts))
	header = binary.BigEndian.AppendUint64(header, uint64(info.CohortBytes))
	header = binary.BigEndian.AppendUint32(header, info.CohortChecksum)
	offset := int64(0)
	for i, b := range bounds {
		entries := 0
		for _, h := range hs[b[0]:b[1]] {
			entries += h.Len()
		}
		si := ShardInfo{
			Shard:    i,
			Offset:   offset,
			Bytes:    int64(len(segs[i])),
			Patients: b[1] - b[0],
			Entries:  entries,
			Checksum: crc32.Checksum(segs[i], crcTable),
		}
		info.ShardDetail = append(info.ShardDetail, si)
		header = binary.BigEndian.AppendUint64(header, uint64(si.Offset))
		header = binary.BigEndian.AppendUint64(header, uint64(si.Bytes))
		header = binary.BigEndian.AppendUint64(header, uint64(si.Patients))
		header = binary.BigEndian.AppendUint64(header, uint64(si.Entries))
		header = binary.BigEndian.AppendUint32(header, si.Checksum)
		offset += si.Bytes
	}
	postBytes := int64(0)
	for _, pi := range postInfos {
		header = binary.BigEndian.AppendUint64(header, uint64(pi.Bytes))
		header = binary.BigEndian.AppendUint32(header, pi.Checksum)
		header = binary.BigEndian.AppendUint32(header, uint32(pi.Lists))
		header = binary.BigEndian.AppendUint32(header, uint32(pi.Arrays))
		header = binary.BigEndian.AppendUint32(header, uint32(pi.Bitmaps))
		header = binary.BigEndian.AppendUint32(header, uint32(pi.Runs))
		postBytes += pi.Bytes
	}
	info.Bytes = int64(len(header)) + offset + postBytes + info.CohortBytes

	parts := append(append([][]byte{header}, segs...), postSegs...)
	for _, part := range append(parts, cohortSeg) {
		if _, err := w.Write(part); err != nil {
			return nil, fmt.Errorf("store: save snapshot: %w", err)
		}
	}
	return info, nil
}

// readHeader reads and validates the header: magic and version first —
// anything but snapshotVersion is refused before another byte is read —
// then the extensions and both tables.
func readHeader(r io.Reader) (*SnapshotInfo, error) {
	fixed := make([]byte, snapshotHeaderFixed)
	if _, err := io.ReadFull(r, fixed); err != nil {
		return nil, fmt.Errorf("store: load snapshot: header: %w", err)
	}
	if string(fixed[:len(snapshotMagic)]) != snapshotMagic {
		return nil, fmt.Errorf("store: load snapshot: bad magic %q", fixed[:len(snapshotMagic)])
	}
	if version := binary.BigEndian.Uint32(fixed[8:]); version != snapshotVersion {
		return nil, fmt.Errorf("store: load snapshot: unsupported version %d (only version %d is read; rebuild the snapshot with `cohortctl snapshot save` or `ingest`)", version, snapshotVersion)
	}
	shards := binary.BigEndian.Uint32(fixed[12:])
	if shards == 0 {
		return nil, fmt.Errorf("store: load snapshot: shard count 0")
	}
	if shards > maxSnapshotShards {
		return nil, fmt.Errorf("store: load snapshot: shard count %d exceeds limit %d", shards, maxSnapshotShards)
	}
	patients := binary.BigEndian.Uint64(fixed[16:])
	entries := binary.BigEndian.Uint64(fixed[24:])

	ext := make([]byte, snapshotIngestExt)
	if _, err := io.ReadFull(r, ext); err != nil {
		return nil, fmt.Errorf("store: load snapshot: ingest header: %w", err)
	}
	deltaEntries := binary.BigEndian.Uint64(ext[8:])
	deltaPatients := binary.BigEndian.Uint64(ext[16:])
	if deltaEntries > entries || deltaPatients > patients {
		return nil, fmt.Errorf("store: load snapshot: ingest header claims delta %d/%d larger than totals %d/%d",
			deltaEntries, deltaPatients, entries, patients)
	}
	info := &SnapshotInfo{
		Version:       snapshotVersion,
		Shards:        int(shards),
		Patients:      int(patients),
		Entries:       int(entries),
		Generation:    binary.BigEndian.Uint64(ext[0:]),
		DeltaEntries:  int(deltaEntries),
		DeltaPatients: int(deltaPatients),
		Compactions:   binary.BigEndian.Uint64(ext[24:]),
	}

	ext = make([]byte, snapshotCohortExt)
	if _, err := io.ReadFull(r, ext); err != nil {
		return nil, fmt.Errorf("store: load snapshot: cohort header: %w", err)
	}
	cohortCount := binary.BigEndian.Uint32(ext[0:])
	cohortBytes := binary.BigEndian.Uint64(ext[4:])
	if cohortCount > maxSnapshotCohorts {
		return nil, fmt.Errorf("store: load snapshot: cohort count %d exceeds limit %d", cohortCount, maxSnapshotCohorts)
	}
	if (cohortCount == 0) != (cohortBytes == 0) {
		return nil, fmt.Errorf("store: load snapshot: cohort header claims %d cohorts in %d bytes", cohortCount, cohortBytes)
	}
	info.Cohorts = int(cohortCount)
	info.CohortChecksum = binary.BigEndian.Uint32(ext[12:])

	table := make([]byte, int(shards)*snapshotShardRow)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("store: load snapshot: shard table: %w", err)
	}
	// maxPayload caps the summed segment sizes so info.Bytes (header +
	// payload) can never overflow int64 — a hostile shard table claiming
	// 2^63-scale segments must error here, not wrap negative and slip
	// past the size validation into a giant allocation.
	headerLen := info.headerLen()
	maxPayload := uint64(1<<63-1) - uint64(headerLen)
	sumPatients, sumEntries, offset := uint64(0), uint64(0), uint64(0)
	for i := 0; i < int(shards); i++ {
		row := table[i*snapshotShardRow:]
		si := ShardInfo{
			Shard:    i,
			Offset:   int64(binary.BigEndian.Uint64(row[0:])),
			Bytes:    int64(binary.BigEndian.Uint64(row[8:])),
			Patients: int(binary.BigEndian.Uint64(row[16:])),
			Entries:  int(binary.BigEndian.Uint64(row[24:])),
			Checksum: binary.BigEndian.Uint32(row[32:]),
		}
		if uint64(si.Offset) != offset {
			return nil, fmt.Errorf("store: load snapshot: shard %d: offset %d, want %d (segments must be contiguous)", i, si.Offset, offset)
		}
		if si.Bytes < 0 || si.Patients < 0 || si.Entries < 0 {
			return nil, fmt.Errorf("store: load snapshot: shard %d: negative size", i)
		}
		if uint64(si.Bytes) > maxPayload-offset {
			return nil, fmt.Errorf("store: load snapshot: shard %d: segment sizes overflow", i)
		}
		offset += uint64(si.Bytes)
		sumPatients += uint64(si.Patients)
		sumEntries += uint64(si.Entries)
		info.ShardDetail = append(info.ShardDetail, si)
	}
	if sumPatients != patients {
		return nil, fmt.Errorf("store: load snapshot: shard table sums to %d patients, header says %d", sumPatients, patients)
	}
	if sumEntries != entries {
		return nil, fmt.Errorf("store: load snapshot: shard table sums to %d entries, header says %d", sumEntries, entries)
	}

	table = make([]byte, int(shards)*snapshotPostingsRow)
	if _, err := io.ReadFull(r, table); err != nil {
		return nil, fmt.Errorf("store: load snapshot: postings table: %w", err)
	}
	for i := 0; i < int(shards); i++ {
		row := table[i*snapshotPostingsRow:]
		pi := PostingsInfo{
			Shard:    i,
			Bytes:    int64(binary.BigEndian.Uint64(row[0:])),
			Checksum: binary.BigEndian.Uint32(row[8:]),
			Lists:    int(binary.BigEndian.Uint32(row[12:])),
			Arrays:   int(binary.BigEndian.Uint32(row[16:])),
			Bitmaps:  int(binary.BigEndian.Uint32(row[20:])),
			Runs:     int(binary.BigEndian.Uint32(row[24:])),
		}
		if pi.Bytes < 0 {
			return nil, fmt.Errorf("store: load snapshot: postings %d: negative size", i)
		}
		if uint64(pi.Bytes) > maxPayload-offset {
			return nil, fmt.Errorf("store: load snapshot: postings %d: segment sizes overflow", i)
		}
		offset += uint64(pi.Bytes)
		info.Postings = append(info.Postings, pi)
	}
	if cohortBytes > maxPayload-offset {
		return nil, fmt.Errorf("store: load snapshot: cohort segment size overflows")
	}
	info.CohortBytes = int64(cohortBytes)
	info.Bytes = headerLen + int64(offset+cohortBytes)
	return info, nil
}

// readSegment reads the next n bytes of the stream — a length the header
// claimed, so untrusted. Where the input's size is known and the header
// was checked against it (sized), n is trusted and read into an exactly
// sized buffer. Otherwise CopyN grows the buffer only as bytes actually
// arrive (the up-front Grow is capped at 4 MiB), so a crafted length over
// a short stream is a read error, never a giant allocation.
func readSegment(r io.Reader, n int64, sized bool) ([]byte, error) {
	if sized {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return nil, fmt.Errorf("read %d bytes: %w", n, err)
		}
		return buf, nil
	}
	var buf bytes.Buffer
	buf.Grow(int(min(n, 4<<20)))
	if _, err := io.CopyN(&buf, r, n); err != nil {
		return nil, fmt.Errorf("read %d bytes: %w", n, err)
	}
	return buf.Bytes(), nil
}

// verifySegment checks a segment against the crc32c its header row holds.
func verifySegment(seg []byte, want uint32) error {
	if got := crc32.Checksum(seg, crcTable); got != want {
		return fmt.Errorf("checksum mismatch (got %08x, want %08x)", got, want)
	}
	return nil
}

// decode verifies and decodes the history segment this table row
// describes: checksum first, then a decode bounded by the row's patient
// count and checked against its entry count. The histories come back
// chronologically sorted.
func (si ShardInfo) decode(seg []byte) ([]*model.History, error) {
	if err := verifySegment(seg, si.Checksum); err != nil {
		return nil, err
	}
	hs, entries, err := decodeSegment(seg, si.Patients)
	if err != nil {
		return nil, err
	}
	if entries != si.Entries {
		return nil, fmt.Errorf("%d entries, header promised %d", entries, si.Entries)
	}
	for _, h := range hs {
		h.Sort() // no-op for well-formed snapshots
	}
	return hs, nil
}

// Load reads a snapshot back into its collection and cohort records. The
// header is validated first — magic, version, shard count, table
// consistency, and, when the reader's size is known (regular files,
// in-memory readers), the tables against that size, so a truncated file
// errors at header time — before any payload decode. Segment bytes are read
// sequentially — io.Reader has no random access — but each history
// segment's checksum + decode is handed to the worker pool the moment its
// bytes arrive, so decode overlaps both the remaining reads and the other
// shards' decodes. The indexes are rebuilt by the caller from the merged
// collection, but every byte the header promises — postings and cohort
// segments included — must be present and match its checksum.
func Load(r io.Reader) (*model.Collection, []CohortRecord, *SnapshotInfo, error) {
	size, sized := readerSize(r)
	r = bufio.NewReaderSize(r, snapshotBufSize)
	info, err := readHeader(r)
	if err != nil {
		return nil, nil, nil, err
	}
	if sized {
		if err := validateSnapshotSize(info, size); err != nil {
			return nil, nil, nil, err
		}
	}
	type result struct {
		hs  []*model.History
		err error
	}
	results := make([]result, info.Shards)
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	fail := func(err error) (*model.Collection, []CohortRecord, *SnapshotInfo, error) {
		wg.Wait()
		return nil, nil, nil, err
	}
	for i, si := range info.ShardDetail {
		seg, err := readSegment(r, si.Bytes, sized)
		if err != nil {
			return fail(fmt.Errorf("store: load snapshot: shard %d: %w", i, err))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i].hs, results[i].err = si.decode(seg)
		}()
	}
	for i, pi := range info.Postings {
		seg, err := readSegment(r, pi.Bytes, sized)
		if err == nil {
			err = verifySegment(seg, pi.Checksum)
		}
		if err != nil {
			return fail(fmt.Errorf("store: load snapshot: postings %d: %w", i, err))
		}
	}
	seg, err := readSegment(r, info.CohortBytes, sized)
	if err == nil {
		err = verifySegment(seg, info.CohortChecksum)
	}
	if err != nil {
		return fail(fmt.Errorf("store: load snapshot: cohort segment: %w", err))
	}
	cohorts, err := decodeCohortSegment(seg, info.Cohorts, info.Patients)
	if err != nil {
		return fail(err)
	}
	wg.Wait()

	// Surface decode failures before sizing the merge: the header's
	// patient total is untrusted, so the merge slice is allocated from
	// what the segments actually decoded to (per-shard counts were
	// already verified against the header), never from the header alone
	// — a hostile patient count must error, not OOM.
	total := 0
	for i := range results {
		if results[i].err != nil {
			return fail(fmt.Errorf("store: load snapshot: shard %d: %w", i, results[i].err))
		}
		total += len(results[i].hs)
	}
	// Deterministic fixed-order merge: shard 0's histories first, then
	// shard 1's, … — exactly the ordinal order they were saved in.
	all := make([]*model.History, 0, total)
	for i := range results {
		all = append(all, results[i].hs...)
	}
	col, err := model.NewCollection(all...)
	if err != nil {
		return fail(fmt.Errorf("store: load snapshot: %w", err))
	}
	return col, cohorts, info, nil
}

// Inspect reads a snapshot's provenance from its header alone, without
// touching the payload. When the reader's total size is discoverable
// (files, in-memory readers), the tables are validated against it, so a
// truncated file is reported here — at header time — rather than by a
// mid-read failure in OpenShards or Load.
func Inspect(r io.Reader) (*SnapshotInfo, error) {
	info, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	if size, sized := readerSize(r); sized {
		if err := validateSnapshotSize(info, size); err != nil {
			return nil, err
		}
	}
	return info, nil
}
