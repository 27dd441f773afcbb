package store

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
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
