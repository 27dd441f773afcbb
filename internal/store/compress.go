package store

import (
	"fmt"
	"os"
	"time"
)

// CompressStats reports one CompressSealed pass.
type CompressStats struct {
	// Segments is how many sealed segments were rewritten; Records how
	// many records they carry. BytesIn/BytesOut are their on-disk sizes
	// before and after.
	Segments int
	Records  uint64
	BytesIn  int64
	BytesOut int64
}

// CompressSealed rewrites every sealed segment still holding plain
// record frames into flate block frames of Options.BlockRecords records
// each. Record content, count, and order are untouched — only the frame
// envelope changes — so iterators, surveys, and the query engine read a
// compressed segment identically to a plain one (sidecar fingerprints
// change, which marks derived indexes stale for rebuild).
//
// Crash safety mirrors Compact: each segment is rewritten to a temp
// file, fsynced, and renamed over the original; a crash between segments
// leaves a mix of compressed and plain segments, all intact. Appends
// proceed concurrently — the active segment is never touched. Runs of
// Compact and CompressSealed serialize against each other; a concurrent
// call no-ops.
func (s *Store) CompressSealed() (CompressStats, error) {
	var stats CompressStats
	start := time.Now()

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return stats, fmt.Errorf("store: compress on closed store")
	}
	if s.compactBusy {
		s.mu.Unlock()
		return stats, nil
	}
	s.compactBusy = true
	// Candidates: sealed segments (all but the last) with plain frames.
	// Segment pointers are stable while compactBusy is held — rotation
	// only appends to the slice and compaction/compression serialize.
	var todo []*segment
	for _, seg := range s.segments[:len(s.segments)-1] {
		if seg.plain > 0 && seg.records > 0 {
			todo = append(todo, seg)
		}
	}
	s.mu.Unlock()
	defer s.clearCompactBusy()

	for _, seg := range todo {
		if err := s.compressSegment(seg, &stats); err != nil {
			return stats, err
		}
	}
	if stats.Segments > 0 {
		s.met.compressions.Add(uint64(stats.Segments))
		s.met.compressSecs.ObserveSince(start)
		if saved := stats.BytesIn - stats.BytesOut; saved > 0 {
			s.met.compressSaved.Add(uint64(saved))
		}
	}
	return stats, nil
}

// compressSegment rewrites one sealed segment into block frames and
// swaps it in place. Readers holding pre-swap snapshots keep their fds
// on the old bytes; new snapshots see the compressed file.
func (s *Store) compressSegment(seg *segment, stats *CompressStats) error {
	s.mu.Lock()
	r, err := openSegmentLocked(seg, true)
	s.mu.Unlock()
	if err != nil {
		return err
	}
	defer r.Close()
	info := r.Info()

	tmpPath := seg.path + ".ztmp"
	f, err := os.OpenFile(tmpPath, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compress temp: %w", err)
	}
	defer func() {
		f.Close()
		os.Remove(tmpPath) // no-op after a successful rename
	}()
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic[:])
	hdr[4] = segVersion
	if _, err := f.Write(hdr[:]); err != nil {
		return fmt.Errorf("store: compress header: %w", err)
	}
	out := &segment{size: segHeaderLen}
	bw := newBlockWriter(f, out, s.opts.BlockRecords, s.opts.IndexEvery)
	err = r.Frames(func(_ int64, payloads [][]byte) error {
		for _, p := range payloads {
			if err := bw.add(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := bw.flush(); err != nil {
		return err
	}
	if out.records != info.Records {
		return fmt.Errorf("store: compress %s: rewrote %d of %d records", seg.path, out.records, info.Records)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("store: compress sync: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if err := os.Rename(tmpPath, seg.path); err != nil {
		return fmt.Errorf("store: compress swap: %w", err)
	}
	if d, derr := os.Open(s.dir); derr == nil {
		_ = d.Sync() // best-effort directory durability for the swap
		d.Close()
	}
	seg.size = out.size
	seg.index = out.index
	seg.plain = 0
	seg.blocks = out.blocks
	stats.Segments++
	stats.Records += info.Records
	stats.BytesIn += info.Size
	stats.BytesOut += out.size
	s.sealedLocked(seg.id)
	return nil
}

// blockFlushBytes flushes a pending block early once its raw payloads
// reach this size, keeping single frames (and decode memory) bounded
// regardless of record sizes.
const blockFlushBytes = 4 << 20

// blockWriter batches record payloads into compressed block frames,
// maintaining the destination segment's metadata (record count, size,
// sparse index) as it goes.
type blockWriter struct {
	f            *os.File
	seg          *segment
	blockRecords int
	indexEvery   uint64
	nextIndexAt  uint64

	batch      [][]byte
	batchBytes int
	frame      []byte
}

func newBlockWriter(f *os.File, seg *segment, blockRecords, indexEvery int) *blockWriter {
	return &blockWriter{f: f, seg: seg, blockRecords: blockRecords, indexEvery: uint64(indexEvery)}
}

// add queues one record payload (copied) and flushes a full block.
func (bw *blockWriter) add(payload []byte) error {
	// Copy: callers reuse payload memory across frames.
	bw.batch = append(bw.batch, append([]byte(nil), payload...))
	bw.batchBytes += len(payload)
	if len(bw.batch) >= bw.blockRecords || bw.batchBytes >= blockFlushBytes {
		return bw.flush()
	}
	return nil
}

// flush writes the pending batch as one block frame.
func (bw *blockWriter) flush() error {
	if len(bw.batch) == 0 {
		return nil
	}
	payload, err := appendBlock(nil, bw.batch)
	if err != nil {
		return err
	}
	bw.frame = appendFrame(bw.frame[:0], payload)
	if _, err := bw.f.Write(bw.frame); err != nil {
		return fmt.Errorf("store: compress write: %w", err)
	}
	if bw.seg.records >= bw.nextIndexAt {
		bw.seg.index = append(bw.seg.index, indexEntry{seq: bw.seg.records, off: bw.seg.size})
		bw.nextIndexAt = bw.seg.records + bw.indexEvery
	}
	bw.seg.size += int64(len(bw.frame))
	bw.seg.records += uint64(len(bw.batch))
	bw.seg.blocks++
	bw.batch = bw.batch[:0]
	bw.batchBytes = 0
	return nil
}
