// Package serve is the shared high-throughput parse-serving layer that
// sits between the statistical parser (internal/core) and every frontend
// that exposes it: the RFC 3912 daemon (internal/whoisd), the RDAP
// endpoint (internal/rdap), and the batch survey driver (cmd/whoissurvey).
//
// PR 1 made a single ParseRecord nearly allocation-free; this package
// makes many of them cheap under real traffic, where the same hot domains
// are requested over and over (the paper parses 102M .com records by
// fanning work across machines, §6; under interactive load the dominant
// cost is re-parsing popular records). Three mechanisms stack:
//
//   - a sharded LRU cache of parsed results keyed by a hash of the raw
//     record text, so a hot record is parsed once;
//   - singleflight coalescing, so N concurrent requests for the same
//     not-yet-cached record trigger exactly one parse and share the
//     result;
//   - a bounded worker pool behind a fixed-depth admission queue with
//     explicit load shedding (ErrOverloaded), so saturation degrades
//     into fast failures instead of an unbounded pile of goroutines.
//
// Close drains: admission stops (ErrClosed) while every accepted parse
// still completes and wakes its waiters. All counters, gauges, and the
// parse-latency histogram live in an internal/obs Registry (shared with
// the daemons' /debug/vars when Options.Metrics is set); Stats remains
// as a convenience snapshot read back from those metrics.
package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

var (
	// ErrOverloaded reports that the admission queue was full and the
	// request was shed. Callers should surface it as backpressure
	// (WHOIS: try-again-later line; RDAP/HTTP: 503) rather than retry
	// in a tight loop.
	ErrOverloaded = errors.New("serve: overloaded, admission queue full")
	// ErrClosed reports that the server is draining or has shut down.
	ErrClosed = errors.New("serve: server closed")
)

// ParseFunc produces the parsed view of one raw WHOIS record. It must be
// safe for concurrent use; core.Parser.Parse is (decoding is read-only on
// the model).
type ParseFunc func(text string) *core.ParsedRecord

// Options tunes the serving layer. The zero value picks sane defaults.
type Options struct {
	// Workers is the parse worker pool size; <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; <= 0 means 8*Workers.
	// Parse sheds (ErrOverloaded) when the queue is full; ParseWait and
	// ParseBatch block instead.
	QueueDepth int
	// CacheCapacity is the total number of parsed records kept across
	// all shards; 0 means 4096, negative disables caching (coalescing
	// still applies to concurrent identical requests).
	CacheCapacity int
	// Shards is the number of cache/coalescing shards, rounded up to a
	// power of two; <= 0 means 16.
	Shards int
	// Metrics is the observability registry the server records into
	// (serve.* counters, gauges, and the parse-latency histogram — see
	// DESIGN.md §5c). Nil means a private registry, reachable via
	// Server.Metrics; daemons pass a shared registry so /debug/vars
	// shows the serving layer next to everything else.
	Metrics *obs.Registry
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 8 * o.Workers
	}
	if o.CacheCapacity == 0 {
		o.CacheCapacity = 4096
	}
	if o.Shards <= 0 {
		o.Shards = 16
	}
	p := 1
	for p < o.Shards {
		p <<= 1
	}
	o.Shards = p
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	return o
}

// parseState is the unit of hot swap: the parse function and the cache
// generation it writes under, replaced together in one atomic pointer
// store. Admission loads the state exactly once per request, so a request
// can never observe the new function with the old generation (or vice
// versa) — the no-torn-model guarantee internal/lifecycle builds on.
type parseState struct {
	fn  ParseFunc
	gen uint64
}

// Server is the parse-serving layer: cache + coalescing in front of a
// bounded worker pool. Create with New or NewFunc; always Close to drain.
type Server struct {
	state  atomic.Pointer[parseState]
	opts   Options
	shards []shard
	seed   hashSeed
	queue  chan *call

	// mu gates admission against Close: enqueuers hold the read side
	// while sending so the queue cannot be closed underneath them.
	mu     sync.RWMutex
	closed bool
	wg     sync.WaitGroup

	reg *obs.Registry
	m   metrics
}

// New builds a serving layer over a trained parser.
func New(p *core.Parser, opts Options) *Server { return NewFunc(p.Parse, opts) }

// NewFunc builds a serving layer over an arbitrary parse function
// (tests substitute instrumented or blocking functions).
func NewFunc(fn ParseFunc, opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:   o,
		shards: make([]shard, o.Shards),
		seed:   makeHashSeed(),
		queue:  make(chan *call, o.QueueDepth),
		reg:    o.Metrics,
	}
	s.state.Store(&parseState{fn: fn})
	perShard := 0
	if o.CacheCapacity > 0 {
		perShard = o.CacheCapacity / o.Shards
		if perShard < 1 {
			perShard = 1
		}
	}
	for i := range s.shards {
		s.shards[i].init(perShard)
	}
	s.m.register(s.reg)
	s.reg.GaugeFunc("serve.queue.depth", func() float64 { return float64(len(s.queue)) })
	s.reg.GaugeFunc("serve.cache.entries", func() float64 { return float64(s.cacheEntries()) })
	for w := 0; w < o.Workers; w++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Metrics returns the registry the server records into — the one passed
// via Options.Metrics, or the private one created by default.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// SetParseFunc atomically replaces the parse function and bumps the
// cache generation in one step — the zero-downtime model swap. Requests
// admitted before the call finish under the old function and stay cached
// under the old generation; requests admitted after it parse with fn and
// read/write the new generation, so no post-swap request can be answered
// from a pre-swap cache entry. O(1): nothing is locked, swept, or freed
// (orphaned entries age out of the LRU under normal traffic).
func (s *Server) SetParseFunc(fn ParseFunc) {
	for {
		old := s.state.Load()
		if s.state.CompareAndSwap(old, &parseState{fn: fn, gen: old.gen + 1}) {
			break
		}
	}
	s.m.invalidations.Inc()
}

// InvalidateAll bumps the cache generation without changing the parse
// function: every cached entry becomes unreachable at once. O(1) — a
// single atomic pointer swap, no lock sweep; the orphaned entries are
// evicted by LRU pressure as the new generation fills in. Model swaps
// use SetParseFunc, which invalidates and swaps atomically; InvalidateAll
// is the standalone escape hatch (e.g. upstream corpus changed under an
// unchanged model).
func (s *Server) InvalidateAll() {
	for {
		old := s.state.Load()
		if s.state.CompareAndSwap(old, &parseState{fn: old.fn, gen: old.gen + 1}) {
			break
		}
	}
	s.m.invalidations.Inc()
}

// Generation returns the current cache generation — incremented by every
// SetParseFunc or InvalidateAll. Entries written under older generations
// can no longer be returned.
func (s *Server) Generation() uint64 { return s.state.Load().gen }

// cacheEntries counts cached records across shards.
func (s *Server) cacheEntries() int {
	total := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		total += sh.lru.Len()
		sh.mu.Unlock()
	}
	return total
}

// call is one in-flight parse that any number of requests may wait on.
// fn is the parse function captured at admission time: a swap between
// admission and execution must not retroactively change which model a
// request was admitted under (its cache key already carries that
// model's generation).
type call struct {
	k    key
	fn   ParseFunc
	text string
	done chan struct{}
	rec  *core.ParsedRecord
	err  error
}

// Parse returns the parsed view of text, serving from cache when
// possible, coalescing onto an identical in-flight parse otherwise, and
// shedding with ErrOverloaded when the admission queue is full. A
// context cancellation abandons the wait but leaves the parse running
// for any other waiters (and for the cache).
func (s *Server) Parse(ctx context.Context, text string) (*core.ParsedRecord, error) {
	return s.do(ctx, text, false)
}

// ParseWait is Parse with blocking admission: when the queue is full it
// waits for space instead of shedding — backpressure for batch callers
// that would rather slow down than drop work.
func (s *Server) ParseWait(ctx context.Context, text string) (*core.ParsedRecord, error) {
	return s.do(ctx, text, true)
}

func (s *Server) do(ctx context.Context, text string, wait bool) (*core.ParsedRecord, error) {
	c, rec, err := s.admit(ctx, text, wait)
	if err != nil || rec != nil {
		return rec, err
	}
	select {
	case <-c.done:
		return c.rec, c.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// ParseBatch runs texts through the cache/coalescing path with blocking
// admission and returns results aligned with texts — the bulk driver for
// survey-scale workloads. Duplicate texts inside the batch are parsed
// once (they coalesce). On error the already-admitted parses still
// complete in the background (and populate the cache); their results are
// simply not collected.
func (s *Server) ParseBatch(ctx context.Context, texts []string) ([]*core.ParsedRecord, error) {
	out := make([]*core.ParsedRecord, len(texts))
	type pending struct {
		i int
		c *call
	}
	waits := make([]pending, 0, len(texts))
	for i, text := range texts {
		c, rec, err := s.admit(ctx, text, true)
		if err != nil {
			return nil, err
		}
		if rec != nil {
			out[i] = rec
			continue
		}
		waits = append(waits, pending{i, c})
	}
	for _, p := range waits {
		select {
		case <-p.c.done:
			if p.c.err != nil {
				return nil, p.c.err
			}
			out[p.i] = p.c.rec
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return out, nil
}

// Preload inserts an already-parsed record into the cache without a
// parse or a queue trip — the warm-start path: at daemon boot the newest
// store segment is replayed through Preload so the first requests after a
// restart hit a cache that looks like the one the previous process died
// with. Keys are computed exactly as Parse computes them, so a later
// request for the same raw text is a hit. Preloading with a nil record or
// onto a cache-disabled server is a no-op. Safe for concurrent use.
func (s *Server) Preload(text string, rec *core.ParsedRecord) {
	if rec == nil || s.opts.CacheCapacity < 0 {
		return
	}
	k := s.hashKey(text, s.state.Load().gen)
	sh := &s.shards[int(k.h1)&(len(s.shards)-1)]
	sh.mu.Lock()
	sh.add(k, rec)
	sh.mu.Unlock()
	s.m.preloads.Inc()
}

// admit resolves a request to either a cached record, a call to wait on,
// or an admission error. Exactly one of the three is non-zero.
func (s *Server) admit(ctx context.Context, text string, wait bool) (*call, *core.ParsedRecord, error) {
	// One state load per request: the parse function and the cache
	// generation it belongs to are read together, so a concurrent swap
	// cannot tear them apart.
	st := s.state.Load()
	k := s.hashKey(text, st.gen)
	sh := &s.shards[int(k.h1)&(len(s.shards)-1)]

	sh.mu.Lock()
	if rec, ok := sh.get(k); ok {
		sh.mu.Unlock()
		s.m.hits.Inc()
		return nil, rec, nil
	}
	if c, ok := sh.inflight[k]; ok {
		sh.mu.Unlock()
		s.m.coalesced.Inc()
		return c, nil, nil
	}
	c := &call{k: k, fn: st.fn, text: text, done: make(chan struct{})}
	sh.inflight[k] = c
	sh.mu.Unlock()

	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		s.abort(sh, c, ErrClosed)
		return nil, nil, ErrClosed
	}
	if wait {
		// Blocking send while holding the read lock is safe: Close
		// takes the write lock before closing the queue, so it waits
		// for us, and the workers keep draining until then.
		select {
		case s.queue <- c:
			s.mu.RUnlock()
		case <-ctx.Done():
			s.mu.RUnlock()
			s.abort(sh, c, ctx.Err())
			return nil, nil, ctx.Err()
		}
	} else {
		select {
		case s.queue <- c:
			s.mu.RUnlock()
		default:
			s.mu.RUnlock()
			s.abort(sh, c, ErrOverloaded)
			s.m.shed.Inc()
			return nil, nil, ErrOverloaded
		}
	}
	s.m.misses.Inc()
	s.m.inFlight.Add(1)
	return c, nil, nil
}

// abort withdraws a registered but never-admitted call. Anyone who
// coalesced onto it in the window between registration and admission
// failure inherits err.
func (s *Server) abort(sh *shard, c *call, err error) {
	sh.mu.Lock()
	if sh.inflight[c.k] == c {
		delete(sh.inflight, c.k)
	}
	sh.mu.Unlock()
	c.err = err
	close(c.done)
}

func (s *Server) worker() {
	defer s.wg.Done()
	for c := range s.queue {
		start := time.Now()
		rec := c.fn(c.text)
		s.m.latency.ObserveSince(start)

		c.rec = rec
		sh := &s.shards[int(c.k.h1)&(len(s.shards)-1)]
		sh.mu.Lock()
		sh.add(c.k, rec)
		if sh.inflight[c.k] == c {
			delete(sh.inflight, c.k)
		}
		sh.mu.Unlock()
		// Account before waking the waiters, so a caller that returns
		// from its parse already sees it counted.
		s.m.parsed.Inc()
		s.m.inFlight.Add(-1)
		close(c.done)
	}
}

// Close drains the server: new requests fail with ErrClosed, every
// already-admitted parse completes (waking its waiters and filling the
// cache), and the worker pool exits. Safe to call more than once.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.queue)
	s.wg.Wait()
	return nil
}

// Stats returns a consistent-enough snapshot of the serving counters,
// read back from the obs registry the hot paths record into.
func (s *Server) Stats() Stats {
	st := Stats{
		Hits:          s.m.hits.Value(),
		Misses:        s.m.misses.Value(),
		Coalesced:     s.m.coalesced.Value(),
		Shed:          s.m.shed.Value(),
		Parsed:        s.m.parsed.Value(),
		Preloads:      s.m.preloads.Value(),
		Invalidations: s.m.invalidations.Value(),
		InFlight:      int(s.m.inFlight.Value()),
		Queued:        len(s.queue),
		CacheEntries:  s.cacheEntries(),
	}
	st.ParseP50 = s.m.latency.QuantileDuration(0.50)
	st.ParseP90 = s.m.latency.QuantileDuration(0.90)
	st.ParseP99 = s.m.latency.QuantileDuration(0.99)
	st.LatencySamples = int(s.m.latency.Count())
	return st
}
