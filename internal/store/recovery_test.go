package store

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRecoveryTruncatedTailEveryOffset is the crash-recovery contract:
// write N records, then simulate a crash mid-append by truncating the
// last frame at every possible byte offset. Every reopen must recover
// exactly N-1 records and leave a tail clean enough that new appends
// land and survive a further reopen.
func TestRecoveryTruncatedTailEveryOffset(t *testing.T) {
	const n = 8
	base := t.TempDir()

	// Build a pristine store once and note where the last frame begins.
	pristine := filepath.Join(base, "pristine")
	st, err := Open(pristine, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var lastFrameStart int64
	for i := 0; i < n; i++ {
		lastFrameStart = st.Bytes()
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	fullSize := st.Bytes()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segName := "00000001.seg"
	orig, err := os.ReadFile(filepath.Join(pristine, segName))
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(orig)) != fullSize {
		t.Fatalf("segment is %d bytes, store reported %d", len(orig), fullSize)
	}

	for cut := lastFrameStart; cut < fullSize; cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, segName), orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}

			st, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after cut at %d: %v", cut, err)
			}
			defer st.Close()
			if got := st.Len(); got != n-1 {
				t.Fatalf("recovered %d records, want %d", got, n-1)
			}
			wantTruncated := cut - lastFrameStart
			if got := st.RecoveredBytes(); got != wantTruncated {
				t.Fatalf("RecoveredBytes = %d, want %d", got, wantTruncated)
			}

			// The surviving records are intact and in order.
			it := st.Iter()
			var i int
			for it.Next() {
				if want := fmt.Sprintf("example%04d.com", i); it.Record().Domain != want {
					t.Fatalf("record %d: domain %q, want %q", i, it.Record().Domain, want)
				}
				i++
			}
			if err := it.Err(); err != nil {
				t.Fatal(err)
			}
			it.Close()
			if i != n-1 {
				t.Fatalf("iterated %d records, want %d", i, n-1)
			}

			// The tail is clean: a fresh append lands and survives reopen.
			if err := st.Append(testRecord(100 + int(cut))); err != nil {
				t.Fatalf("append after recovery: %v", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			st2, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer st2.Close()
			if got := st2.Len(); got != n {
				t.Fatalf("after recovery+append: Len = %d, want %d", got, n)
			}
			if st2.RecoveredBytes() != 0 {
				t.Fatalf("second reopen truncated %d bytes", st2.RecoveredBytes())
			}
		})
	}
}

// TestRecoveryFlippedByteInTail: a bit flip inside the last frame fails
// its CRC; on the newest segment that is recovered like a torn write.
func TestRecoveryFlippedByteInTail(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 5
	var lastFrameStart int64
	for i := 0; i < n; i++ {
		lastFrameStart = st.Bytes()
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[lastFrameStart+3] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got != n-1 {
		t.Fatalf("recovered %d records, want %d", got, n-1)
	}
}

// TestCorruptionInSealedSegmentIsFatal: damage anywhere but the newest
// segment is not a crash signature — Open must refuse, not silently drop
// records.
func TestCorruptionInSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", st.Segments())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

// TestCorruptBlockInSealedSegmentIsFatal: a frame of a kind the record
// codec does not know — kind 2, the retired compressed-block frame —
// fails Open when it sits in a sealed segment, even though its CRC is
// intact.
func TestCorruptBlockInSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 2 {
		t.Fatalf("need >= 2 segments, got %d", st.Segments())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "00000001.seg")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = appendFrame(data, []byte{2, 1, 9, 0xde, 0xad, 0xbe, 0xef})
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a kind-2 frame in a sealed segment")
	}
}

// TestCompressedRecoveryTruncatedTailEveryOffset: testdata holds a
// segment of the retired compressed format (8 records in kind-2 block
// frames of 3+3+2 records). As the newest segment of a store, cut at
// every byte offset inside its last frame, it must not pass for a
// crash tail: the intact kind-2 frames ahead of the cut are no torn
// write, so Open refuses at the first of them and leaves the file
// exactly as it found it instead of truncating the records away.
func TestCompressedRecoveryTruncatedTailEveryOffset(t *testing.T) {
	orig, err := os.ReadFile(filepath.Join("testdata", "legacy-compressed.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sc := newFrameScanner(bytes.NewReader(orig[segHeaderLen:]), segHeaderLen)
	var frames []int64
	for {
		payload, off, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("fixture frame at %d: %v", off, err)
		}
		if payload[0] != 2 {
			t.Fatalf("fixture frame at %d has kind %d, want 2", off, payload[0])
		}
		frames = append(frames, off)
	}
	if len(frames) != 3 {
		t.Fatalf("fixture holds %d frames, want 3", len(frames))
	}
	base := t.TempDir()
	const segName = "00000001.seg"
	for cut := frames[len(frames)-1]; cut < int64(len(orig)); cut++ {
		cut := cut
		t.Run(fmt.Sprintf("cut@%d", cut), func(t *testing.T) {
			dir := filepath.Join(base, fmt.Sprintf("cut%d", cut))
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, segName)
			if err := os.WriteFile(path, orig[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			st, err := Open(dir, Options{})
			if err == nil {
				st.Close()
				t.Fatalf("Open after cut at %d accepted a segment of kind-2 frames (%d records)", cut, st.Len())
			}
			if !errors.Is(err, ErrBadRecord) || !strings.Contains(err.Error(), fmt.Sprintf("offset %d", frames[0])) {
				t.Fatalf("Open error = %v, want ErrBadRecord at offset %d", err, frames[0])
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, orig[:cut]) {
				t.Fatalf("Open rewrote the refused segment: %d bytes left of %d", len(got), cut)
			}
		})
	}
}

// TestRecoveryTornHeader: a crash between segment creation and header
// write leaves a short file; on the newest segment Open resets it.
func TestRecoveryTornHeader(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate the torn creation of the next segment.
	if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), segMagic[:2], 0o644); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got != 3 {
		t.Fatalf("Len = %d, want 3", got)
	}
	if err := st2.Append(testRecord(99)); err != nil {
		t.Fatal(err)
	}
	if got := st2.Len(); got != 4 {
		t.Fatalf("Len after append = %d, want 4", got)
	}
}
