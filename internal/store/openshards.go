package store

// Random access into snapshots. The header's shard and postings tables
// carry every segment's offset and size, so a process that is assigned a
// subset of the shards — a shard server in a distributed deployment — can
// page in exactly its segments with io.ReaderAt instead of streaming the
// whole file: the on-disk half of cross-process shard distribution.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync"

	"pastas/internal/model"
)

// OpenedShard is one shard of a sharded snapshot, read and decoded.
type OpenedShard struct {
	// Shard is the shard id (its index in the snapshot's shard table).
	Shard int
	// Offset is the global patient ordinal of the shard's first history:
	// local ordinal i within the shard is global ordinal Offset+i.
	Offset int
	// Col holds the shard's histories, in the order they were saved.
	Col *model.Collection
	// post and codes are the shard's code, type and source postings and
	// its sorted codes, decoded from its postings segment.
	post  *postings
	codes []model.Code
}

// Store indexes the opened shard around its decoded postings: its one
// walk over the entries builds only what a snapshot does not carry (value
// postings, birth counts, the max entry ID). It does not fail: OpenShards
// checked the postings against the shard's patient count.
func (os *OpenedShard) Store() (*Store, error) {
	post := *os.post // finishStore adds the value postings to its own copy
	return finishStore(os.Col.Histories(), &post, os.codes), nil
}

// OpenShards opens the given shards of a snapshot, reading only the
// header and those shards' history and postings segments (checksummed,
// decoded in parallel) — never the rest of the file. No ids means every
// shard. The tables are validated against the file size up front, so a
// truncated file errors at header time instead of mid-read; out-of-range
// or duplicate shard ids are refused.
func OpenShards(path string, ids ...int) ([]*OpenedShard, *SnapshotInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, fmt.Errorf("store: open shards: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: open shards: %w", err)
	}
	size := fi.Size()
	info, err := readHeader(io.NewSectionReader(f, 0, size))
	if err != nil {
		return nil, nil, err
	}
	if err := validateSnapshotSize(info, size); err != nil {
		return nil, nil, err
	}
	if len(ids) == 0 {
		ids = make([]int, info.Shards)
		for i := range ids {
			ids[i] = i
		}
	}
	seen := make(map[int]bool, len(ids))
	for _, id := range ids {
		if id < 0 || id >= info.Shards {
			return nil, nil, fmt.Errorf("store: open shards: shard %d out of range [0, %d)", id, info.Shards)
		}
		if seen[id] {
			return nil, nil, fmt.Errorf("store: open shards: shard %d requested twice", id)
		}
		seen[id] = true
	}

	// Global patient offsets come from the shard table: each shard starts
	// where the patients of all preceding shards end.
	starts := make([]int, info.Shards)
	for i := 1; i < info.Shards; i++ {
		starts[i] = starts[i-1] + info.ShardDetail[i-1].Patients
	}

	payload := info.headerLen()

	// Postings segments follow the last history segment, packed in shard
	// order; their offsets are the running sum of the table's sizes.
	last := info.ShardDetail[info.Shards-1]
	postBase := payload + last.Offset + last.Bytes
	postOff := make([]int64, info.Shards)
	for i := 1; i < info.Shards; i++ {
		postOff[i] = postOff[i-1] + info.Postings[i-1].Bytes
	}

	out := make([]*OpenedShard, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			si := info.ShardDetail[id]
			sh, err := openShard(f, si, info.Postings[id], payload+si.Offset, postBase+postOff[id])
			if err != nil {
				errs[i] = fmt.Errorf("store: open shards: shard %d: %w", id, err)
				return
			}
			sh.Offset = starts[id]
			out[i] = sh
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return out, info, nil
}

// openShard reads, verifies and decodes one shard's history and postings
// segments at their file offsets. The sizes it allocates were checked
// against the file size by the caller.
func openShard(f io.ReaderAt, si ShardInfo, pi PostingsInfo, histAt, postAt int64) (*OpenedShard, error) {
	seg := make([]byte, si.Bytes)
	if _, err := f.ReadAt(seg, histAt); err != nil {
		return nil, fmt.Errorf("read %d bytes at %d: %w", si.Bytes, histAt, err)
	}
	hs, err := si.decode(seg)
	if err != nil {
		return nil, err
	}
	col, err := model.NewCollection(hs...)
	if err != nil {
		return nil, err
	}
	seg = make([]byte, pi.Bytes)
	if _, err := f.ReadAt(seg, postAt); err != nil {
		return nil, fmt.Errorf("read postings (%d bytes at %d): %w", pi.Bytes, postAt, err)
	}
	post, codes, err := pi.decode(seg, si.Patients)
	if err != nil {
		return nil, fmt.Errorf("postings: %w", err)
	}
	return &OpenedShard{Shard: si.Shard, Col: col, post: post, codes: codes}, nil
}

// validateSnapshotSize checks the header's tables against the file size:
// every segment (offset + size, relative to the end of the header) must
// lie inside the file, i.e. the header's total byte count must fit.
func validateSnapshotSize(info *SnapshotInfo, size int64) error {
	if info.Bytes > size {
		return fmt.Errorf("store: snapshot header promises %d bytes, file has %d (truncated)", info.Bytes, size)
	}
	return nil
}

// readerSize discovers an io.Reader's total size when it can be known
// without disturbing the stream (regular files via Stat, in-memory readers
// via Size); ok=false otherwise — a pipe's Stat size is not its length.
func readerSize(r io.Reader) (int64, bool) {
	switch v := r.(type) {
	case interface{ Stat() (os.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			return fi.Size(), true
		}
	case interface{ Size() int64 }:
		return v.Size(), true
	}
	return 0, false
}
