package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSegmentReaderFrames: Frames and FrameAt agree with the append
// order, off-boundary seeks fail, and the fingerprint moves when the
// segment grows.
func TestSegmentReaderFrames(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 20
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	id := st.SegmentInfos()[0].ID
	r, err := st.OpenSegment(id)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var offs []int64
	var domains []string
	err = r.Frames(func(off int64, payload []byte) error {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return err
		}
		offs = append(offs, off)
		domains = append(domains, rec.Domain)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(domains) != n {
		t.Fatalf("Frames saw %d records, want %d", len(domains), n)
	}
	for i, off := range offs {
		want := fmt.Sprintf("example%04d.com", i)
		if domains[i] != want {
			t.Fatalf("frame record %d = %q, want %q", i, domains[i], want)
		}
		payload, err := r.FrameAt(off)
		if err != nil {
			t.Fatalf("FrameAt(%d): %v", off, err)
		}
		if rec, err := DecodeRecord(payload); err != nil || rec.Domain != want {
			t.Fatalf("FrameAt(%d) = %v, %v; want %s", off, rec, err, want)
		}
	}
	// Off-boundary seeks must error, not fabricate records.
	if _, err := r.FrameAt(offs[0] + 1); err == nil {
		t.Fatal("FrameAt mid-frame succeeded")
	}
	if _, err := r.FrameAt(1); err == nil {
		t.Fatal("FrameAt inside header succeeded")
	}
	if _, err := r.FrameAt(r.Info().Size); err == nil {
		t.Fatal("FrameAt past the snapshot succeeded")
	}

	fp, err := r.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// Sidecars on disk carry fingerprints: the definition must not move.
	data, err := os.ReadFile(r.Info().Path)
	if err != nil {
		t.Fatal(err)
	}
	h := crc32.New(castagnoli)
	h.Write(data[:min(len(data), fingerprintSample)])
	h.Write(data[max(len(data)-fingerprintSample, 0):])
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(len(data))))
	if want := h.Sum32(); fp != want {
		t.Fatalf("fingerprint = %08x, want CRC32C(head|tail|size) = %08x", fp, want)
	}
	if err := st.Append(testRecord(n)); err != nil {
		t.Fatal(err)
	}
	r2, err := st.OpenSegment(id)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if fp2, err := r2.Fingerprint(); err != nil || fp2 == fp {
		t.Fatalf("fingerprint after an append = %08x, %v; was %08x", fp2, err, fp)
	}
}

// TestOpenSegmentCompactedID: an id the store does not hold (once the
// signature of a segment a compaction merged away) is an error, not an
// empty reader, and so is an id whose file was removed underneath live
// metadata.
func TestOpenSegmentCompactedID(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if r, err := st.OpenSegment(42); err == nil {
		r.Close()
		t.Fatal("OpenSegment(42) succeeded on a one-segment store")
	}
	for i := 0; i < 10; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	info := st.SegmentInfos()[0]
	if err := os.Remove(info.Path); err != nil {
		t.Fatal(err)
	}
	if _, err := st.OpenSegment(info.ID); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("OpenSegment of a removed file: error = %v, want fs.ErrNotExist", err)
	}
}

// TestIterSurfacesSegmentCompacted: a reader whose snapshot finds a
// segment file gone (removed underneath the store; compaction, which
// once did this, no longer exists) yields no record and reports the
// missing file, rather than ending as if the store were empty.
func TestIterSurfacesSegmentCompacted(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 100; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", st.Segments())
	}
	if err := os.Remove(st.SegmentInfos()[0].Path); err != nil {
		t.Fatal(err)
	}
	it := st.Iter()
	defer it.Close()
	if it.Next() {
		t.Fatal("iterator yielded a record from a store with a removed segment")
	}
	if err := it.Err(); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Iter error = %v, want fs.ErrNotExist", err)
	}
}

// TestCloseFencesRotatingAppend is the regression test for Close racing
// an Append that rotates: no Append may rotate (and start a seal hook)
// once Close has begun, and every hook the store did start must finish
// before Close returns. Every append rotates (frames outgrow the
// 256-byte segments). Short hooks leave Close's join a gap for a late
// rotation to slip through; long ones outlive Close's own fsync, so a
// Close that skipped the join would return first.
func TestCloseFencesRotatingAppend(t *testing.T) {
	for _, hook := range []time.Duration{100 * time.Microsecond, 20 * time.Millisecond} {
		st, err := Open(t.TempDir(), Options{SegmentBytes: 256})
		if err != nil {
			t.Fatal(err)
		}
		var returned atomic.Bool
		var hooks, late atomic.Int32
		st.SetOnSeal(func(uint64) {
			hooks.Add(1)
			time.Sleep(hook)
			if returned.Load() {
				late.Add(1)
			}
		})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				if st.Append(testRecord(i)) != nil {
					return // closed underneath us: expected
				}
			}
		}()
		for deadline := time.Now().Add(5 * time.Second); hooks.Load() == 0; {
			if time.Now().After(deadline) {
				t.Fatal("no segment sealed")
			}
			time.Sleep(50 * time.Microsecond)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		returned.Store(true)
		wg.Wait()
		time.Sleep(hook + 10*time.Millisecond) // let a stray hook finish
		if n := late.Load(); n != 0 {
			t.Fatalf("%v hooks: %d of %d ran after Close returned", hook, n, hooks.Load())
		}
	}
}

// bigRecord is testRecord(i) with a raw text of 20 KiB, so its frame is
// larger than FrameAt's first read window.
func bigRecord(i int) *Record {
	rec := testRecord(i)
	rec.Text = strings.Repeat("Registrant Street: 1 Long Road\n", 20<<10/31+1)
	return rec
}

// segmentWithBigFrame writes 20 records, one of them a bigRecord, and
// opens a snapshot of the (single) segment.
func segmentWithBigFrame(t *testing.T) *SegmentReader {
	t.Helper()
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 20; i++ {
		rec := testRecord(i)
		if i == 7 {
			rec = bigRecord(i)
		}
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	r, err := st.OpenSegment(st.SegmentInfos()[0].ID)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	return r
}

// TestFrameAtMatchesFrames holds the positioned read to the streaming
// scanner on a real segment: FrameAt succeeds at exactly the offsets
// Frames reports, with byte-identical payloads, and fails at every
// other byte offset. One frame is larger than the first read window,
// so the second read is on the path too.
func TestFrameAtMatchesFrames(t *testing.T) {
	r := segmentWithBigFrame(t)
	want := make(map[int64][]byte)
	big := false
	err := r.Frames(func(off int64, payload []byte) error {
		want[off] = bytes.Clone(payload)
		big = big || len(payload) > frameReadWindow
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 20 || !big {
		t.Fatalf("Frames saw %d frames (want 20), one over the read window: %v", len(want), big)
	}
	for off := int64(0); off <= r.Info().Size; off++ {
		payload, err := r.FrameAt(off)
		w, ok := want[off]
		switch {
		case ok && err != nil:
			t.Fatalf("FrameAt(%d) at a frame: %v", off, err)
		case ok && !bytes.Equal(payload, w):
			t.Fatalf("FrameAt(%d) payload differs from Frames'", off)
		case !ok && err == nil:
			t.Fatalf("FrameAt(%d) off a frame boundary returned a %d-byte payload", off, len(payload))
		}
	}
	if cap(r.buf) <= frameReadWindow {
		t.Fatalf("read buffer is %d bytes after the large frame; the second read never ran", cap(r.buf))
	}
}

// TestFrameAtErrorsMatchScanner damages a segment the ways a disk or a
// crash can and requires FrameAt to fail at the scanner's failing frame
// with the scanner's error class, after agreeing on every frame before
// it.
func TestFrameAtErrorsMatchScanner(t *testing.T) {
	header := append(segMagic[:], segVersion, 0, 0, 0)
	var seg []byte
	var offs []int64
	seg = append(seg, header...)
	for i := 0; i < 4; i++ {
		rec := testRecord(i)
		if i == 2 {
			rec = bigRecord(i)
		}
		offs = append(offs, int64(len(seg)))
		seg = appendFrame(seg, appendRecord(nil, rec))
	}
	bigEnd := offs[3]
	cases := []struct {
		name  string
		bytes []byte
		size  int64 // the snapshot's size; 0 means len(bytes)
		want  error
	}{
		{"torn-tail", seg[:len(seg)-7], 0, ErrTornFrame},
		{"torn-big-frame", seg[:bigEnd-100], 0, ErrTornFrame},
		{"torn-length", append(bytes.Clone(seg), 0x80), 0, ErrTornFrame},
		{"long-length", append(bytes.Clone(seg), 0x80, 0x80, 0x80, 0x80, 0x80, 1), 0, ErrTornFrame},
		{"flipped-byte", flipAt(seg, offs[1]+9), 0, ErrBadChecksum},
		{"flipped-big-frame", flipAt(seg, bigEnd-9), 0, ErrBadChecksum},
		{"oversized-length", binary.AppendUvarint(bytes.Clone(seg), maxFramePayload+1), 0, ErrFrameTooBig},
		// The file is shorter than the snapshot: the big frame's second
		// read runs out.
		{"shrunk-file", seg[:bigEnd-100], bigEnd, ErrTornFrame},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "00000001.seg")
			if err := os.WriteFile(path, c.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			size := c.size
			if size == 0 {
				size = int64(len(c.bytes))
			}
			r := &SegmentReader{f: f, info: SegmentInfo{ID: 1, Path: path, Size: size}}
			sc := newFrameScanner(io.NewSectionReader(f, segHeaderLen, size-segHeaderLen), segHeaderLen)
			for {
				payload, start, err := sc.next()
				if err == io.EOF {
					t.Fatal("scanner reached the end of a damaged segment")
				}
				got, ferr := r.FrameAt(start)
				if err != nil {
					if !errors.Is(err, c.want) {
						t.Fatalf("scanner at %d: %v, want %v", start, err, c.want)
					}
					if !errors.Is(ferr, c.want) {
						t.Fatalf("FrameAt(%d) = %v, want %v as the scanner", start, ferr, c.want)
					}
					return
				}
				if ferr != nil || !bytes.Equal(got, payload) {
					t.Fatalf("FrameAt(%d) = %d bytes, %v; the scanner read %d bytes", start, len(got), ferr, len(payload))
				}
			}
		})
	}
}

func flipAt(b []byte, pos int64) []byte {
	b = bytes.Clone(b)
	b[pos] ^= 0x01
	return b
}

// TestFrameAtAllocs: once a reader's buffer has grown to its largest
// frame, posting seeks and fingerprints allocate nothing.
func TestFrameAtAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	r := segmentWithBigFrame(t)
	var offs []int64
	if err := r.Frames(func(off int64, _ []byte) error {
		offs = append(offs, off)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	seek := func() {
		for _, off := range offs {
			if _, err := r.FrameAt(off); err != nil {
				t.Fatal(err)
			}
		}
	}
	seek() // warm the buffer
	if n := testing.AllocsPerRun(20, seek); n != 0 {
		t.Fatalf("%v allocations per pass of %d seeks; want 0", n, len(offs))
	}
	if n := testing.AllocsPerRun(20, func() { r.Fingerprint() }); n != 0 {
		t.Fatalf("Fingerprint: %v allocations per call; want 0", n)
	}
}
