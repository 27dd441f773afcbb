package query

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/survey"
)

// Options configure an Engine.
type Options struct {
	// Workers bounds the parallel segment scans per query; <= 0 means
	// GOMAXPROCS.
	Workers int
	// NoRebuild serves a segment with a missing, stale, or corrupt
	// sidecar by full scan instead of rebuilding the sidecar first —
	// for read-only callers (and the differential gate, which must see
	// the degraded path, not a self-healed one).
	NoRebuild bool
	// Metrics receives the query.* instruments; nil uses obs.Default.
	Metrics *obs.Registry
}

// Engine answers predicates over a record store using per-segment
// sidecars for pruning and seeking. Safe for concurrent use; all
// correctness rests on the store's snapshot semantics (readers hold fds)
// plus the final Pred.Match re-check on every candidate record.
type Engine struct {
	st      *store.Store
	opts    Options
	met     engineMetrics
	buildMu sync.Mutex // serializes sidecar rebuilds

	// cache holds decoded sidecars across queries, keyed by segment id
	// and guarded by the fingerprint: every query still fingerprints the
	// live segment, so a hit can never serve another segment's view —
	// it only skips re-reading and re-decoding bytes that were already
	// validated against this exact fingerprint. Entries are
	// immutable once published; updates replace the whole entry.
	cacheMu sync.Mutex
	cache   map[uint64]*cacheEnt
}

type cacheEnt struct {
	fp uint32
	z  *ZoneMap
	x  *Index // nil until a query survives pruning and needs it
}

func (e *Engine) cacheGet(id uint64, fp uint32) (*ZoneMap, *Index) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	if ent := e.cache[id]; ent != nil && ent.fp == fp {
		return ent.z, ent.x
	}
	return nil, nil
}

// cachePut merges z and/or x into the entry for id, keeping whichever
// halves the current same-fingerprint entry already has.
func (e *Engine) cachePut(id uint64, fp uint32, z *ZoneMap, x *Index) {
	e.cacheMu.Lock()
	defer e.cacheMu.Unlock()
	if ent := e.cache[id]; ent != nil && ent.fp == fp {
		if z == nil {
			z = ent.z
		}
		if x == nil {
			x = ent.x
		}
	}
	e.cache[id] = &cacheEnt{fp: fp, z: z, x: x}
}

type engineMetrics struct {
	queries    *obs.Counter
	seconds    *obs.Histogram
	pruned     *obs.Counter
	indexSeek  *obs.Counter
	fullScan   *obs.Counter
	rebuilds   *obs.Counter
	invalid    *obs.Counter
	fallbacks  *obs.Counter
	recordsIn  *obs.Counter
	recordsOut *obs.Counter
}

func (m *engineMetrics) register(reg *obs.Registry) {
	m.queries = reg.Counter("query.queries")
	m.seconds = reg.Histogram("query.seconds", obs.DurationBounds())
	m.pruned = reg.Counter("query.segments.pruned")
	m.indexSeek = reg.Counter("query.segments.indexseek")
	m.fullScan = reg.Counter("query.segments.fullscan")
	m.rebuilds = reg.Counter("query.sidecar.rebuilds")
	m.invalid = reg.Counter("query.sidecar.invalid")
	m.fallbacks = reg.Counter("query.fallbacks")
	m.recordsIn = reg.Counter("query.records.read")
	m.recordsOut = reg.Counter("query.records.matched")
}

// New builds an engine over st.
func New(st *store.Store, opts Options) *Engine {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default
	}
	e := &Engine{st: st, opts: opts, cache: make(map[uint64]*cacheEnt)}
	e.met.register(opts.Metrics)
	return e
}

// AutoBuild hooks segment seals so sidecars are derived in the
// background the moment a segment's bytes stop moving. Errors are
// deliberately dropped: a failed build costs a future full scan,
// nothing more.
func (e *Engine) AutoBuild() {
	e.st.SetOnSeal(func(id uint64) { _, _ = e.BuildSegment(id) })
}

// BuildSegment (re)derives the sidecars for segment id unless fresh ones
// already exist. Reports whether it built.
func (e *Engine) BuildSegment(id uint64) (bool, error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	r, err := e.st.OpenSegment(id)
	if err != nil {
		return false, err
	}
	defer r.Close()
	info := r.Info()
	if !info.Sealed {
		return false, nil
	}
	fp, err := r.Fingerprint()
	if err != nil {
		return false, err
	}
	dir := e.st.Dir()
	if z, zerr := LoadZoneMap(ZonePath(dir, id)); zerr == nil && sidecarFresh(z.SegID, z.Fingerprint, z.Records, info, fp) {
		if x, xerr := LoadIndex(IndexPath(dir, id)); xerr == nil && sidecarFresh(x.SegID, x.Fingerprint, x.Records, info, fp) {
			return false, nil
		}
	}
	z, x, err := Build(r)
	if err != nil {
		return false, err
	}
	if err := WriteSidecars(dir, z, x); err != nil {
		return false, err
	}
	e.met.rebuilds.Inc()
	return true, nil
}

func sidecarFresh(segID uint64, fp uint32, records uint64, info store.SegmentInfo, wantFP uint32) bool {
	return segID == info.ID && fp == wantFP && records == info.Records
}

// BuildAll derives sidecars for every sealed segment that lacks fresh
// ones. Returns how many segments were (re)built.
func (e *Engine) BuildAll() (int, error) {
	built := 0
	for _, info := range e.st.SegmentInfos() {
		if !info.Sealed {
			continue
		}
		b, err := e.BuildSegment(info.ID)
		if err != nil {
			return built, err
		}
		if b {
			built++
		}
	}
	return built, nil
}

// Stats describes how one query was executed.
type Stats struct {
	Segments    int    `json:"segments"`
	Pruned      int    `json:"pruned"`       // skipped via zone map
	IndexSeeked int    `json:"index_seeked"` // answered via postings
	FullScanned int    `json:"full_scanned"` // scanned frame by frame
	Rebuilt     int    `json:"rebuilt"`      // sidecars rebuilt in-line
	Fallbacks   int    `json:"fallbacks"`    // bad sidecar/seek → full scan
	RecordsRead uint64 `json:"records_read"`
	Matched     uint64 `json:"matched"`
}

// String renders the stats the way the CLIs log them.
func (st Stats) String() string {
	return fmt.Sprintf("segments=%d pruned=%d indexseek=%d fullscan=%d rebuilt=%d fallbacks=%d read=%d matched=%d",
		st.Segments, st.Pruned, st.IndexSeeked, st.FullScanned, st.Rebuilt, st.Fallbacks, st.RecordsRead, st.Matched)
}

// segPlan is how one segment will be (or was) served.
type segResult struct {
	matches []*store.Record
	stats   Stats
	err     error
}

// Scan streams every record matching p to fn, in segment order and in
// record order within each segment (the same order a full Iter sees,
// minus non-matches). Segments are scanned in parallel across at most
// Options.Workers goroutines; fn itself is always called from the
// calling goroutine, serially.
func (e *Engine) Scan(p Pred, fn func(rec *store.Record) error) (Stats, error) {
	start := time.Now()
	e.met.queries.Inc()
	var stats Stats

	readers, err := e.st.OpenSegments()
	if err != nil {
		return stats, err
	}
	defer func() {
		for _, r := range readers {
			r.Close()
		}
	}()
	stats.Segments = len(readers)

	results := make([]segResult, len(readers))
	sem := make(chan struct{}, e.opts.Workers)
	var wg sync.WaitGroup
	for i, r := range readers {
		wg.Add(1)
		go func(i int, r *store.SegmentReader) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[i] = e.scanSegment(r, p)
		}(i, r)
	}
	wg.Wait()

	for i := range results {
		res := &results[i]
		if res.err != nil {
			return stats, res.err
		}
		stats.Pruned += res.stats.Pruned
		stats.IndexSeeked += res.stats.IndexSeeked
		stats.FullScanned += res.stats.FullScanned
		stats.Rebuilt += res.stats.Rebuilt
		stats.Fallbacks += res.stats.Fallbacks
		stats.RecordsRead += res.stats.RecordsRead
		for _, rec := range res.matches {
			stats.Matched++
			if err := fn(rec); err != nil {
				return stats, err
			}
		}
	}
	e.recordStats(stats, start)
	return stats, nil
}

func (e *Engine) recordStats(st Stats, start time.Time) {
	e.met.seconds.ObserveSince(start)
	e.met.pruned.Add(uint64(st.Pruned))
	e.met.indexSeek.Add(uint64(st.IndexSeeked))
	e.met.fullScan.Add(uint64(st.FullScanned))
	e.met.fallbacks.Add(uint64(st.Fallbacks))
	e.met.recordsIn.Add(st.RecordsRead)
	e.met.recordsOut.Add(st.Matched)
}

// scanSegment plans and executes one segment: zone-map prune, posting
// seek, or full scan — degrading toward full scan on any sidecar or seek
// problem, so a bad sidecar can cost time but never rows.
func (e *Engine) scanSegment(r *store.SegmentReader, p Pred) segResult {
	var res segResult
	info := r.Info()
	if info.Records == 0 {
		return res
	}
	// The active segment has no sidecars (its bytes still move); an
	// empty predicate cannot prune or seek.
	if !info.Sealed || p.IsEmpty() {
		return e.fullScanSegment(r, p, res)
	}

	fp, err := r.Fingerprint()
	if err != nil {
		res.err = err
		return res
	}
	// Zone map first: a pruned segment never pays for decoding its
	// (much larger) posting index.
	z, x := e.cacheGet(info.ID, fp)
	if z == nil {
		var fresh bool
		if z, fresh = e.loadZoneMap(info, fp); fresh {
			e.cachePut(info.ID, fp, z, nil)
		} else {
			if e.opts.NoRebuild {
				res.stats.Fallbacks++
				return e.fullScanSegment(r, p, res)
			}
			if z, x, err = e.rebuild(r, info); err != nil {
				// The sidecars could not be written (a read-only or
				// full store directory, say): the snapshot is still
				// perfectly readable — scan it.
				res.stats.Fallbacks++
				return e.fullScanSegment(r, p, res)
			}
			res.stats.Rebuilt++
			e.cachePut(info.ID, fp, z, x)
		}
	}

	if !z.MayMatch(p) {
		res.stats.Pruned++
		return res
	}
	if x == nil {
		var fresh bool
		if x, fresh = e.loadIndex(info, fp); fresh {
			e.cachePut(info.ID, fp, nil, x)
		} else {
			if e.opts.NoRebuild {
				res.stats.Fallbacks++
				return e.fullScanSegment(r, p, res)
			}
			if z, x, err = e.rebuild(r, info); err != nil {
				res.stats.Fallbacks++
				return e.fullScanSegment(r, p, res)
			}
			res.stats.Rebuilt++
			e.cachePut(info.ID, fp, z, x)
		}
	}
	postings, ok := planPostings(x, p)
	if !ok {
		return e.fullScanSegment(r, p, res)
	}
	matches, read, err := seekPostings(r, postings, p)
	if err != nil {
		// Postings pointed somewhere frames aren't — the sidecar lied.
		// Drop everything it produced and scan the segment for real.
		e.met.invalid.Inc()
		res.stats.Fallbacks++
		return e.fullScanSegment(r, p, res)
	}
	res.matches = matches
	res.stats.RecordsRead += read
	res.stats.IndexSeeked++
	return res
}

// loadZoneMap reads and validates one zone map against the live segment
// snapshot. Any problem — missing, unreadable, corrupt, stale — reports
// fresh=false; corruption/staleness additionally bumps the invalid
// metric (a missing file is normal for a young segment).
func (e *Engine) loadZoneMap(info store.SegmentInfo, fp uint32) (*ZoneMap, bool) {
	z, err := LoadZoneMap(ZonePath(e.st.Dir(), info.ID))
	if err != nil {
		if !os.IsNotExist(err) {
			e.met.invalid.Inc()
		}
		return nil, false
	}
	if !sidecarFresh(z.SegID, z.Fingerprint, z.Records, info, fp) {
		e.met.invalid.Inc()
		return nil, false
	}
	return z, true
}

// loadIndex is loadZoneMap for the posting index.
func (e *Engine) loadIndex(info store.SegmentInfo, fp uint32) (*Index, bool) {
	x, err := LoadIndex(IndexPath(e.st.Dir(), info.ID))
	if err != nil {
		if !os.IsNotExist(err) {
			e.met.invalid.Inc()
		}
		return nil, false
	}
	if !sidecarFresh(x.SegID, x.Fingerprint, x.Records, info, fp) {
		e.met.invalid.Inc()
		return nil, false
	}
	return x, true
}

// rebuild re-derives sidecars from the snapshot in hand and persists
// them for future queries.
func (e *Engine) rebuild(r *store.SegmentReader, info store.SegmentInfo) (*ZoneMap, *Index, error) {
	e.buildMu.Lock()
	defer e.buildMu.Unlock()
	z, x, err := Build(r)
	if err != nil {
		return nil, nil, err
	}
	if err := WriteSidecars(e.st.Dir(), z, x); err != nil {
		return nil, nil, err
	}
	e.met.rebuilds.Inc()
	return z, x, nil
}

func (e *Engine) fullScanSegment(r *store.SegmentReader, p Pred, res segResult) segResult {
	res.stats.FullScanned++
	err := r.Frames(func(_ int64, payload []byte) error {
		rec, err := store.DecodeRecord(payload)
		if err != nil {
			return err
		}
		res.stats.RecordsRead++
		if p.Match(&rec.Facts) {
			res.matches = append(res.matches, rec)
		}
		return nil
	})
	if err != nil {
		res.err = err
		res.matches = nil
	}
	return res
}

// planPostings intersects the posting lists of every predicate dimension
// the index can serve. ok=false means no dimension is seekable (all
// relevant sections overflowed) and the caller must scan. Dimensions the
// index cannot serve are left to the final Match re-check.
func planPostings(x *Index, p Pred) ([]Posting, bool) {
	var lists [][]Posting
	usable := false
	if p.Registrar != "" && x.Registrar != nil {
		lists = append(lists, x.Registrar[p.Registrar])
		usable = true
	}
	if p.Country != "" && x.Country != nil {
		lists = append(lists, x.Country[p.Country])
		usable = true
	}
	if x.Year != nil {
		switch {
		case p.HasYear && p.YearTo > 0:
			lists = append(lists, unionRange(x.Year, p.Year, p.YearTo))
			usable = true
		case p.HasYear:
			lists = append(lists, x.Year[p.Year])
			usable = true
		case p.Since > 0:
			lists = append(lists, unionSince(x.Year, p.Since))
			usable = true
		}
	}
	if !usable {
		return nil, false
	}
	out := lists[0]
	for _, l := range lists[1:] {
		out = intersectPostings(out, l)
	}
	return out, true
}

// unionSince merges the postings of every year >= since back into
// offset order. Lists for distinct years are disjoint, so a plain sort
// suffices.
func unionSince(years map[int][]Posting, since int) []Posting {
	var out []Posting
	for y, ps := range years {
		if y >= since {
			out = append(out, ps...)
		}
	}
	slices.Sort(out)
	return out
}

// unionRange merges the postings of every year in [lo, hi] back into
// offset order — the year-range predicate's seek path.
func unionRange(years map[int][]Posting, lo, hi int) []Posting {
	var out []Posting
	for y, ps := range years {
		if y >= lo && y <= hi {
			out = append(out, ps...)
		}
	}
	slices.Sort(out)
	return out
}

func intersectPostings(a, b []Posting) []Posting {
	var out []Posting
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			out = append(out, a[i])
			i++
			j++
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return out
}

// seekPostings reads exactly the frames the postings name, re-checking
// each record against p. Any inconsistency — bad offset, bad frame,
// undecodable record — aborts with an error so the caller discards
// everything and full-scans; a partial result must never leak out as a
// complete one.
func seekPostings(r *store.SegmentReader, postings []Posting, p Pred) ([]*store.Record, uint64, error) {
	var matches []*store.Record
	var read uint64
	for _, pt := range postings {
		payload, err := r.FrameAt(int64(pt))
		if err != nil {
			return nil, read, err
		}
		rec, err := store.DecodeRecord(payload)
		if err != nil {
			return nil, read, err
		}
		read++
		if p.Match(&rec.Facts) {
			matches = append(matches, rec)
		}
	}
	return matches, read, nil
}

// Survey runs the predicate and folds every match into a fresh
// incremental survey — the whoissurvey -where and rdapd /admin/query
// entry point.
func (e *Engine) Survey(p Pred) (*survey.Survey, Stats, error) {
	sv := &survey.Survey{}
	stats, err := e.Scan(p, func(rec *store.Record) error {
		sv.Add(rec.Facts)
		return nil
	})
	if err != nil {
		return nil, stats, err
	}
	return sv, stats, nil
}

// FullScan is the trivially-correct reference executor: iterate every
// record, apply the predicate. The differential CI gate holds Scan to
// byte-identical results against this.
func (e *Engine) FullScan(p Pred, fn func(rec *store.Record) error) error {
	it := e.st.Iter()
	defer it.Close()
	for it.Next() {
		rec := it.Record()
		if p.Match(&rec.Facts) {
			if err := fn(rec); err != nil {
				return err
			}
		}
	}
	return it.Err()
}
