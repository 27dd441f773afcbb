package store

import (
	"fmt"
	"io"
	"os"
)

// iterSegment is an immutable snapshot of one segment taken at iterator
// creation: readers never chase the append head, so a record appended
// after Iter() is simply not part of the snapshot.
type iterSegment struct {
	f       *os.File
	path    string
	records uint64
	size    int64
}

// Iterator streams records oldest-first with bounded memory: the
// snapshot's file handles and one frame buffer, regardless of store
// size. Not safe for concurrent use; create one per goroutine and Close
// it when done.
type Iterator struct {
	segs []iterSegment
	cur  int
	sc   *frameScanner // positioned on segs[cur]; nil before its first frame
	rec  *Record
	err  error
}

// snapshotLocked copies segment metadata and opens one read handle per
// segment. Callers hold s.mu.
func (s *Store) snapshotLocked() ([]iterSegment, error) {
	segs := make([]iterSegment, 0, len(s.segments))
	for _, seg := range s.segments {
		f, err := os.Open(seg.path)
		if err != nil {
			for i := range segs {
				segs[i].f.Close()
			}
			return nil, fmt.Errorf("store: iterate: %w", err)
		}
		segs = append(segs, iterSegment{f: f, path: seg.path, records: seg.records, size: seg.size})
	}
	return segs, nil
}

// Iter returns an iterator over every record committed before the call.
func (s *Store) Iter() *Iterator {
	s.mu.Lock()
	segs, err := s.snapshotLocked()
	s.mu.Unlock()
	return &Iterator{segs: segs, err: err}
}

// IterNewestSegment iterates only the newest non-empty segment — the
// serve warm-start path, which wants the most recently written records
// without walking the whole store.
func (s *Store) IterNewestSegment() *Iterator {
	it := s.Iter()
	for i := len(it.segs) - 1; i >= 0; i-- {
		if it.segs[i].records > 0 {
			it.cur = i
			break
		}
	}
	return it
}

// Next advances to the next record, reporting false at the end of the
// snapshot or on error (check Err).
func (it *Iterator) Next() bool {
	for it.err == nil && it.cur < len(it.segs) {
		seg := &it.segs[it.cur]
		if it.sc == nil {
			// Bound the scanner to the snapshot's committed size so
			// frames written after the snapshot stay invisible.
			it.sc = newFrameScanner(io.NewSectionReader(seg.f, segHeaderLen, seg.size-segHeaderLen), segHeaderLen)
		}
		payload, off, err := it.sc.next()
		if err == io.EOF {
			it.cur++
			it.sc = nil
			continue
		}
		if err == nil {
			it.rec, err = decodeRecord(payload)
		}
		if err != nil {
			it.err = fmt.Errorf("store: %s at offset %d: %w", seg.path, off, err)
			return false
		}
		return true
	}
	return false
}

// Record returns the record Next advanced to. Valid until the next call
// to Next; the caller owns it (each record is freshly decoded).
func (it *Iterator) Record() *Record { return it.rec }

// Err reports the first error the iterator hit, if any.
func (it *Iterator) Err() error { return it.err }

// Close releases every file handle the snapshot holds. Safe to call
// repeatedly.
func (it *Iterator) Close() error {
	for i := range it.segs {
		if it.segs[i].f != nil {
			it.segs[i].f.Close()
			it.segs[i].f = nil
		}
	}
	it.sc = nil
	return nil
}
