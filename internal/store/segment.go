package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// SegmentInfo is the public snapshot of one segment's metadata.
type SegmentInfo struct {
	ID      uint64
	Path    string
	Records uint64
	Size    int64 // committed bytes
	Sealed  bool  // false only for the append target
}

// SegmentInfos reports every segment's committed metadata at one
// instant. The last entry is the active (unsealed) segment.
func (s *Store) SegmentInfos() []SegmentInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]SegmentInfo, 0, len(s.segments))
	for i, seg := range s.segments {
		out = append(out, seg.info(i != len(s.segments)-1))
	}
	return out
}

func (seg *segment) info(sealed bool) SegmentInfo {
	return SegmentInfo{
		ID:      seg.id,
		Path:    seg.path,
		Records: seg.records,
		Size:    seg.size,
		Sealed:  sealed,
	}
}

// SegmentReader is a point-in-time read handle on one segment: the file
// descriptor and committed size are captured under the store lock, so —
// exactly like Iterator snapshots — appends after the open stay
// invisible to this reader.
//
// One goroutine uses a reader at a time: FrameAt and Fingerprint read
// into a buffer the reader reuses across calls. Nothing moves the file
// offset (every read is positioned), so readers of one segment are
// independent of each other.
type SegmentReader struct {
	f    *os.File
	info SegmentInfo
	buf  []byte // reused by FrameAt and Fingerprint
}

// OpenSegment opens a snapshot of the segment with the given id; an id
// the store does not hold is an error.
func (s *Store) OpenSegment(id uint64) (*SegmentReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, seg := range s.segments {
		if seg.id != id {
			continue
		}
		return openSegmentLocked(seg, i != len(s.segments)-1)
	}
	return nil, fmt.Errorf("store: no segment %d", id)
}

// OpenSegments opens one consistent snapshot of every segment: all
// handles and sizes are captured under a single lock acquisition, so the
// set reflects exactly the records committed at one instant.
func (s *Store) OpenSegments() ([]*SegmentReader, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*SegmentReader, 0, len(s.segments))
	for i, seg := range s.segments {
		r, err := openSegmentLocked(seg, i != len(s.segments)-1)
		if err != nil {
			for _, r := range out {
				r.Close()
			}
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

func openSegmentLocked(seg *segment, sealed bool) (*SegmentReader, error) {
	f, err := os.Open(seg.path)
	if err != nil {
		return nil, fmt.Errorf("store: open segment: %w", err)
	}
	return &SegmentReader{f: f, info: seg.info(sealed)}, nil
}

// Info returns the segment metadata captured at open time.
func (r *SegmentReader) Info() SegmentInfo { return r.info }

// Close releases the snapshot's file handle. Safe to call repeatedly.
func (r *SegmentReader) Close() error {
	if r.f == nil {
		return nil
	}
	err := r.f.Close()
	r.f = nil
	return err
}

// fingerprintSample is how much of each end of a segment the fingerprint
// hashes. Appends and truncations change the size; a different segment
// under the same id (a store directory rebuilt from scratch) changes the
// head or tail bytes.
const fingerprintSample = 4096

// Fingerprint is a cheap content identity for the snapshot: CRC32C over
// the first and last fingerprintSample bytes plus the committed size.
// Derived artifacts (zone maps, secondary indexes) record it so a stale
// or foreign sidecar is detected — and regenerated — rather than
// trusted, without re-reading the whole segment on every query.
func (r *SegmentReader) Fingerprint() (uint32, error) {
	r.buf = grow(r.buf, fingerprintSample, 0)
	head := r.buf[:min(fingerprintSample, r.info.Size)]
	if _, err := r.f.ReadAt(head, 0); err != nil {
		return 0, fmt.Errorf("store: fingerprint: %w", err)
	}
	crc := crc32.Update(0, castagnoli, head)
	tailStart := max(r.info.Size-fingerprintSample, 0)
	tail := r.buf[:r.info.Size-tailStart]
	if _, err := r.f.ReadAt(tail, tailStart); err != nil {
		return 0, fmt.Errorf("store: fingerprint: %w", err)
	}
	crc = crc32.Update(crc, castagnoli, tail)
	sz := binary.LittleEndian.AppendUint64(r.buf[:0], uint64(r.info.Size))
	return crc32.Update(crc, castagnoli, sz), nil
}

// Frames walks every frame of the snapshot in order, handing fn the
// frame's byte offset and its record payload. The payload is valid only
// during the callback. Returning a non-nil error stops the walk.
func (r *SegmentReader) Frames(fn func(off int64, payload []byte) error) error {
	sc := newFrameScanner(io.NewSectionReader(r.f, segHeaderLen, r.info.Size-segHeaderLen), segHeaderLen)
	for {
		payload, off, err := sc.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("store: %s at offset %d: %w", r.info.Path, off, err)
		}
		if err := fn(off, payload); err != nil {
			return err
		}
	}
}

// FrameAt reads the single frame starting at off and returns its record
// payload — the posting-seek primitive under index-pruned scans. The
// offset must land exactly on a frame boundary inside the snapshot;
// anything else fails the bounds check, the frame checks or the record
// kind, and errors. The payload is valid until the reader's next call.
func (r *SegmentReader) FrameAt(off int64) ([]byte, error) {
	if off < segHeaderLen || off >= r.info.Size {
		return nil, fmt.Errorf("store: frame offset %d outside segment [%d, %d)", off, segHeaderLen, r.info.Size)
	}
	payload, buf, err := readFrameAt(r.f, r.buf, off, r.info.Size)
	r.buf = buf
	// A posting names a record frame. An empty payload passes the CRC
	// check (its CRC32C is zero), so five zero bytes inside a payload
	// spell an intact frame; the kind byte keeps such an offset from
	// passing for a record.
	if err == nil && (len(payload) == 0 || payload[0] != recordKind) {
		err = fmt.Errorf("%w: no record frame", ErrBadRecord)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %s at offset %d: %w", r.info.Path, off, err)
	}
	return payload, nil
}

// frameReadWindow is how much readFrameAt reads in its first pread: a
// survey record's frame (about 3 KB) fits, so a posting seek is one
// read. A larger frame takes a second read for the rest.
const frameReadWindow = 8 << 10

// readFrameAt reads the frame at off of a segment of size committed
// bytes through buf, and returns its payload and the buffer, grown if
// the frame needed it, for the next call. It checks what the streaming
// scanner checks, with the same errors: the bytes run out mid-frame
// (ErrTornFrame), the length is over the limit (ErrFrameTooBig), the
// CRC does not match (ErrBadChecksum).
func readFrameAt(ra io.ReaderAt, buf []byte, off, size int64) ([]byte, []byte, error) {
	left := size - off
	b := grow(buf, int(min(left, frameReadWindow)), 0)
	if err := readFull(ra, b, off); err != nil {
		return nil, b, err
	}
	n, hdr, err := frameHeader(b)
	if err != nil {
		return nil, b, err
	}
	end := int64(hdr + n + frameCRCLen)
	if end > left {
		return nil, b, ErrTornFrame
	}
	if read := len(b); end > int64(read) {
		b = grow(b, int(end), read)
		if err := readFull(ra, b[read:], off+int64(read)); err != nil {
			return nil, b, err
		}
	}
	payload, err := frameBody(b[hdr:end], n)
	return payload, b, err
}

// readFull fills b from ra at off. The bytes lie inside the snapshot's
// committed size, so running out means the file is shorter than the
// snapshot: the frame is torn, as the streaming scanner reports input
// that ends mid-frame.
func readFull(ra io.ReaderAt, b []byte, off int64) error {
	if _, err := ra.ReadAt(b, off); err != nil {
		if err == io.EOF {
			return ErrTornFrame
		}
		return fmt.Errorf("store: segment read: %w", err)
	}
	return nil
}

// grow returns buf resliced to n bytes, reallocated (keeping its first
// keep bytes) when it is too small. A fresh buffer has room for at
// least frameReadWindow, so one allocation serves both a reader's
// fingerprint and its posting seeks.
func grow(buf []byte, n, keep int) []byte {
	if cap(buf) >= n {
		return buf[:n]
	}
	b := make([]byte, n, max(n, frameReadWindow))
	copy(b, buf[:keep])
	return b
}
