package store

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Options tunes a Store. The zero value picks production defaults; tests
// shrink SegmentBytes to exercise rotation.
type Options struct {
	// SegmentBytes is the rotation threshold for the active segment;
	// <= 0 means 64 MiB.
	SegmentBytes int64
	// Metrics is the observability registry (store.* metrics, DESIGN.md
	// §5c naming). Nil means a private registry reachable via Metrics().
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// segment is the in-memory state of one on-disk segment file.
type segment struct {
	path    string
	id      uint64
	records uint64
	size    int64 // committed bytes (header + intact frames)
}

// Store is an append-only, segmented, CRC-checked record log with
// crash-safe recovery. One goroutine may append while any number
// iterate; all methods are safe for concurrent use.
type Store struct {
	dir  string
	opts Options

	mu        sync.Mutex // guards segments, active file, counters
	segments  []*segment
	active    *os.File
	unsynced  int
	closed    bool
	recovered int64 // bytes truncated from a torn tail at Open

	onSeal func(id uint64) // see SetOnSeal
	hooks  sync.WaitGroup  // running seal hooks; Close joins them

	reg *obs.Registry
	met storeMetrics
}

// storeMetrics are the store.* observability handles.
type storeMetrics struct {
	appends       *obs.Counter
	appendSeconds *obs.Histogram
	frameBytes    *obs.Histogram
	rotations     *obs.Counter
	truncated     *obs.Counter
}

func (m *storeMetrics) register(reg *obs.Registry) {
	m.appends = reg.Counter("store.appends")
	m.appendSeconds = reg.Histogram("store.append.seconds", obs.DurationBounds())
	m.frameBytes = reg.Histogram("store.frame.bytes", obs.SizeBounds())
	m.rotations = reg.Counter("store.segment.rotations")
	m.truncated = reg.Counter("store.recovery.truncated.bytes")
}

const segSuffix = ".seg"

func segPath(dir string, id uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%08d%s", id, segSuffix))
}

// Open opens (creating if needed) the store in dir, scanning every
// segment to validate its frames and count its records. A torn tail on
// the newest segment — the signature of a crash mid-append — is
// truncated away; corruption anywhere else is an error.
func Open(dir string, opts Options) (*Store, error) {
	o := opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: open: %w", err)
	}
	s := &Store{dir: dir, opts: o, reg: o.Metrics}
	s.met.register(s.reg)

	ids, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	if len(ids) == 0 {
		ids = []uint64{1}
		if err := writeSegmentHeader(segPath(dir, 1)); err != nil {
			return nil, err
		}
	}
	for i, id := range ids {
		seg, truncated, err := scanSegment(segPath(dir, id), id, i == len(ids)-1)
		if err != nil {
			return nil, err
		}
		s.segments = append(s.segments, seg)
		s.recovered += truncated
	}
	if s.recovered > 0 {
		s.met.truncated.Add(uint64(s.recovered))
	}

	last := s.segments[len(s.segments)-1]
	f, err := os.OpenFile(last.path, os.O_WRONLY, 0)
	if err != nil {
		return nil, fmt.Errorf("store: open active segment: %w", err)
	}
	if _, err := f.Seek(last.size, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("store: seek active segment: %w", err)
	}
	s.active = f

	s.reg.GaugeFunc("store.bytes", func() float64 { return float64(s.Bytes()) })
	s.reg.GaugeFunc("store.segments", func() float64 { return float64(s.Segments()) })
	s.reg.GaugeFunc("store.records", func() float64 { return float64(s.Len()) })
	return s, nil
}

// listSegments returns the sorted segment ids present in dir.
func listSegments(dir string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: list segments: %w", err)
	}
	var ids []uint64
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		id, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}

func writeSegmentHeader(path string) error {
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic[:])
	hdr[4] = segVersion
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: create segment: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: write segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: sync segment header: %w", err)
	}
	return f.Close()
}

// scanSegment walks one segment file, validating every frame and
// counting its records. When isLast (the append target), a torn tail —
// including a half-written header on a freshly created file — is
// truncated; on sealed segments any damage is fatal.
func scanSegment(path string, id uint64, isLast bool) (*segment, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: open segment: %w", err)
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, 0, fmt.Errorf("store: stat segment: %w", err)
	}
	fileSize := fi.Size()

	var hdr [segHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil || [4]byte(hdr[:4]) != segMagic || hdr[4] != segVersion {
		if isLast && fileSize < segHeaderLen {
			// Crash between create and header write: reset the file.
			if err := os.Truncate(path, 0); err != nil {
				return nil, 0, fmt.Errorf("store: reset torn header: %w", err)
			}
			if err := rewriteHeader(path); err != nil {
				return nil, 0, err
			}
			return &segment{path: path, id: id, size: segHeaderLen}, fileSize, nil
		}
		return nil, 0, fmt.Errorf("store: %s: bad segment header", path)
	}

	seg := &segment{path: path, id: id, size: segHeaderLen}
	sc := newFrameScanner(f, segHeaderLen)
	for {
		payload, start, err := sc.next()
		if err == io.EOF {
			break
		}
		// A checksummed frame of another kind (kind 2 was the retired
		// compressed block) is no torn write, so it is fatal even on the
		// tail: truncating there would drop intact frames.
		if err == nil && len(payload) > 0 && payload[0] != recordKind {
			return nil, 0, fmt.Errorf("store: %s at offset %d: %w: frame kind %d", path, start, ErrBadRecord, payload[0])
		}
		// Validate the payload decodes before committing to it; a frame
		// with a valid CRC but an undecodable record is corruption, not a
		// torn write, yet on the tail we still prefer recovery.
		if err == nil {
			_, err = decodeRecord(payload)
		}
		if err != nil {
			if isLast {
				// Torn tail (or tail corruption indistinguishable from
				// one): truncate to the last intact frame.
				if terr := os.Truncate(path, start); terr != nil {
					return nil, 0, fmt.Errorf("store: truncate torn tail: %w", terr)
				}
				return seg, fileSize - start, nil
			}
			return nil, 0, fmt.Errorf("store: %s at offset %d: %w", path, start, err)
		}
		seg.records++
		seg.size = sc.off
	}
	return seg, 0, nil
}

func rewriteHeader(path string) error {
	var hdr [segHeaderLen]byte
	copy(hdr[:], segMagic[:])
	hdr[4] = segVersion
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: rewrite header: %w", err)
	}
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("store: rewrite header: %w", err)
	}
	return f.Close()
}

// Metrics returns the registry the store records into.
func (s *Store) Metrics() *obs.Registry { return s.reg }

// Len reports the number of stored records, duplicates included (a
// re-crawled domain is appended again, never overwritten).
func (s *Store) Len() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n uint64
	for _, seg := range s.segments {
		n += seg.records
	}
	return n
}

// Segments reports how many segment files the store currently spans.
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segments)
}

// Bytes reports the committed on-disk size across all segments.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	var n int64
	for _, seg := range s.segments {
		n += seg.size
	}
	return n
}

// RecoveredBytes reports how many torn-tail bytes Open truncated.
func (s *Store) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Append encodes rec and appends it to the active segment, rotating
// first when the segment is over the size threshold. The record is
// durable after the next Sync.
func (s *Store) Append(rec *Record) error {
	start := time.Now()
	payload := appendRecord(nil, rec)
	frame := appendFrame(make([]byte, 0, len(payload)+8), payload)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("store: append on closed store")
	}
	active := s.segments[len(s.segments)-1]
	if active.size >= s.opts.SegmentBytes {
		if err := s.rotateLocked(); err != nil {
			return err
		}
		active = s.segments[len(s.segments)-1]
	}
	if _, err := s.active.Write(frame); err != nil {
		return fmt.Errorf("store: append: %w", err)
	}
	active.size += int64(len(frame))
	active.records++
	s.unsynced++
	s.met.appends.Inc()
	s.met.appendSeconds.ObserveSince(start)
	s.met.frameBytes.Observe(float64(len(frame)))
	return nil
}

// rotateLocked seals the active segment and starts a fresh one. Callers
// hold s.mu.
func (s *Store) rotateLocked() error {
	if err := s.syncLocked(); err != nil {
		return err
	}
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: seal segment: %w", err)
	}
	last := s.segments[len(s.segments)-1]
	id := last.id + 1
	path := segPath(s.dir, id)
	if err := writeSegmentHeader(path); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		return fmt.Errorf("store: open new segment: %w", err)
	}
	if _, err := f.Seek(segHeaderLen, 0); err != nil {
		f.Close()
		return fmt.Errorf("store: seek new segment: %w", err)
	}
	s.active = f
	s.segments = append(s.segments, &segment{path: path, id: id, size: segHeaderLen})
	s.met.rotations.Inc()
	// The previous active segment is now sealed: tell the seal hook (the
	// query engine builds sidecar indexes off it).
	s.sealedLocked(last.id)
	return nil
}

// SetOnSeal registers fn to be called (each time in its own goroutine)
// with a segment id whenever rotation seals that segment. Derived
// artifacts keyed to a segment's content (the query engine's zone maps
// and secondary indexes) hang off this hook to stay fresh without
// polling. The store owns those goroutines: Close waits for every
// running hook before it returns.
func (s *Store) SetOnSeal(fn func(id uint64)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onSeal = fn
}

// sealedLocked runs the seal hook for segment id in a goroutine that
// Close joins. Callers hold s.mu and have checked s.closed, so no hook
// starts once Close has begun.
func (s *Store) sealedLocked(id uint64) {
	fn := s.onSeal
	if fn == nil {
		return
	}
	s.hooks.Add(1)
	go func() {
		defer s.hooks.Done()
		fn(id)
	}()
}

// Dir reports the store's directory — sidecar artifacts (zone maps,
// secondary indexes) live alongside the segments they describe.
func (s *Store) Dir() string { return s.dir }

// syncLocked fsyncs the active segment. Callers hold s.mu.
func (s *Store) syncLocked() error {
	if s.unsynced == 0 {
		return nil
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("store: sync: %w", err)
	}
	s.unsynced = 0
	return nil
}

// Sync makes every appended record durable.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	return s.syncLocked()
}

// Close syncs and closes the store, then waits for every running seal
// hook. Marking the store closed comes first, under the same lock
// Append takes: an Append racing Close either rotates (and starts its
// hook) before Close begins, and Close joins that hook, or it fails
// without rotating.
func (s *Store) Close() error {
	s.mu.Lock()
	var err error
	if !s.closed {
		s.closed = true
		err = s.syncLocked()
		if cerr := s.active.Close(); err == nil {
			err = cerr
		}
	}
	s.mu.Unlock()
	s.hooks.Wait()
	return err
}

// Domains streams every stored domain (duplicates included, oldest
// first) to fn until it returns false or the snapshot is exhausted. The
// whoiscrawl -resume path uses this to skip already-persisted domains.
func (s *Store) Domains(fn func(domain string) bool) error {
	it := s.Iter()
	defer it.Close()
	for it.Next() {
		if !fn(it.Record().Domain) {
			return it.Err()
		}
	}
	return it.Err()
}
