package crf

import (
	"sync"
	"sync/atomic"

	"repro/internal/mathx"
)

// This file implements the reusable inference engine: a pooled scratch
// type holding flat backing arrays for the lattice and every dynamic-
// programming table, plus memoization of per-position score rows keyed by
// the observation-id signature of the line. WHOIS records are template-
// generated (§2.3), so a survey-scale workload sees a tiny set of distinct
// line shapes; caching the score rows turns the dominant
// O(T·|obs|·n²) lattice build into O(distinct·|obs|·n²) plus copies.
//
// Memoization invariants:
//   - A cached row is the byte-for-byte output of the direct computation
//     (same accumulation order), so cached and uncached inference agree
//     bit-identically. The differential tests in engine_test.go assert it.
//   - The model-level cache is only consulted for inference at the model's
//     own weights and is dropped whenever θ changes (SetTheta, Train,
//     WarmStartFrom). It is never valid across theta updates.
//   - With an explicit theta (the training loop), only the per-instance
//     memo inside the scratch is used, which cannot outlive the lattice
//     it was built for.

// lattice holds the per-position score tables for one instance as flat
// backing arrays. All scores are in the log domain.
type lattice struct {
	n     int
	T     int
	state []float64 // [t*n + y]
	trans []float64 // [t*n*n + i*n + j], meaningful for t >= 1
}

func (l *lattice) stateRow(t int) []float64 { return l.state[t*l.n : (t+1)*l.n] }

func (l *lattice) transRow(t int) []float64 {
	nn := l.n * l.n
	return l.trans[t*nn : (t+1)*nn]
}

// memoEntry records where within the current instance a given observation
// signature was first scored. tTrans is -1 until a transition row has been
// computed for the signature (position 0 has no transition row).
type memoEntry struct {
	hash   uint64
	tState int32
	tTrans int32
}

// scratch bundles every buffer inference and training need, so that
// steady-state Decode/Marginals/Posterior/instanceNLL run without heap
// allocations. Obtain one with getScratch and return it with putScratch,
// or hold one per worker goroutine.
type scratch struct {
	lat   lattice
	alpha []float64 // [t*n + j] forward scores
	beta  []float64 // [t*n + j] backward scores
	back  []int32   // [t*n + j] Viterbi backpointers
	v     []float64 // n
	vNext []float64 // n
	buf   []float64 // n log-sum-exp scratch
	prob  []float64 // n gradient node buffer
	edge  []float64 // n*n gradient edge buffer
	memo  []memoEntry
}

// ensure sizes every buffer for a T×n problem, reusing backing arrays
// whenever they are already large enough, and resets the per-instance memo.
func (s *scratch) ensure(T, n int) {
	s.lat.n, s.lat.T = n, T
	s.lat.state = growF64(s.lat.state, T*n)
	s.lat.trans = growF64(s.lat.trans, T*n*n)
	s.alpha = growF64(s.alpha, T*n)
	s.beta = growF64(s.beta, T*n)
	s.back = growI32(s.back, T*n)
	s.v = growF64(s.v, n)
	s.vNext = growF64(s.vNext, n)
	s.buf = growF64(s.buf, n)
	s.prob = growF64(s.prob, n)
	s.edge = growF64(s.edge, n*n)
	s.memo = s.memo[:0]
}

func growF64(b []float64, n int) []float64 {
	if cap(b) < n {
		return make([]float64, n)
	}
	return b[:n]
}

func growI32(b []int32, n int) []int32 {
	if cap(b) < n {
		return make([]int32, n)
	}
	return b[:n]
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func getScratch() *scratch  { return scratchPool.Get().(*scratch) }
func putScratch(s *scratch) { scratchPool.Put(s) }

// obsSignature hashes a position's observation ids (FNV-1a over the id
// words plus the length) into the memo/cache key.
func obsSignature(obs []int) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, o := range obs {
		h ^= uint64(o)
		h *= prime
	}
	h ^= uint64(len(obs))
	h *= prime
	return h
}

func obsEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i, x := range a {
		if x != b[i] {
			return false
		}
	}
	return true
}

// maxScoreCacheEntries bounds the model-level cache. At the paper's
// 6- and 12-state label spaces one entry is a few hundred bytes, so the
// cap keeps the cache in the low megabytes while covering far more line
// shapes than real WHOIS templates produce.
const maxScoreCacheEntries = 1 << 13

// scoreEntry caches the state and transition score rows of one line shape.
// Entries are immutable once published.
type scoreEntry struct {
	sig   uint64
	obs   []int
	state []float64 // n
	trans []float64 // n*n
}

// scoreTable is the open-addressed index of a scoreCache. It has twice
// as many slots as the cache holds entries, so a probe always reaches
// an empty slot.
type scoreTable [2 * maxScoreCacheEntries]atomic.Pointer[scoreEntry]

// Slab sizes for scoreCache: entries and their rows are carved from
// shared slabs, so a cold cache filling up costs a few allocations per
// hundred line shapes instead of several per shape.
const (
	entrySlab = 256
	intSlab   = 4096
	floatSlab = 8192
)

// scoreCache memoizes score rows across records for a fixed θ. Reads
// are lock-free: a linear probe of the table from the signature, over
// atomically published entries. Inserts are serialized by mu, which
// also guards the slabs. A hash collision (different obs, same
// signature) is treated as a miss so correctness never depends on hash
// quality. Entries are never removed; a θ change replaces the cache.
type scoreCache struct {
	table atomic.Pointer[scoreTable] // nil until the first insert
	count atomic.Int64

	mu      sync.Mutex
	entries []scoreEntry
	ints    []int
	floats  []float64
}

func (c *scoreCache) lookup(sig uint64, obs []int) (*scoreEntry, bool) {
	tab := c.table.Load()
	if tab == nil {
		return nil, false
	}
	for i := sig; ; i++ {
		e := tab[i%uint64(len(tab))].Load()
		if e == nil {
			return nil, false
		}
		if e.sig == sig {
			if !obsEqual(e.obs, obs) {
				return nil, false
			}
			return e, true
		}
	}
}

func (c *scoreCache) insert(sig uint64, obs []int, state, trans []float64) {
	if c.count.Load() >= maxScoreCacheEntries {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.count.Load() >= maxScoreCacheEntries {
		return
	}
	tab := c.table.Load()
	if tab == nil {
		tab = new(scoreTable)
		c.table.Store(tab)
	}
	i := sig % uint64(len(tab))
	for e := tab[i].Load(); e != nil; e = tab[i].Load() {
		if e.sig == sig {
			return // the first entry for a signature wins
		}
		i = (i + 1) % uint64(len(tab))
	}
	if len(c.entries) == cap(c.entries) {
		c.entries = make([]scoreEntry, 0, entrySlab)
	}
	c.entries = append(c.entries, scoreEntry{
		sig:   sig,
		obs:   carve(&c.ints, obs, intSlab),
		state: carve(&c.floats, state, floatSlab),
		trans: carve(&c.floats, trans, floatSlab),
	})
	tab[i].Store(&c.entries[len(c.entries)-1])
	c.count.Add(1)
}

// carve copies src into the free tail of *slab, first replacing the slab
// with a fresh one of at least size elements when src does not fit, and
// returns the copy capped at its length. A replaced slab is never
// written again, so copies carved from it stay valid.
func carve[T any](slab *[]T, src []T, size int) []T {
	if cap(*slab)-len(*slab) < len(src) {
		*slab = make([]T, 0, max(size, len(src)))
	}
	n := len(*slab)
	*slab = append(*slab, src...)
	return (*slab)[n:len(*slab):len(*slab)]
}

// curCache returns the cache valid for the model's current θ.
func (m *Model) curCache() *scoreCache { return m.scores.Load() }

// invalidateScores drops all cached score rows; every θ mutation must call
// it (see the memoization invariants above).
func (m *Model) invalidateScores() { m.scores.Store(new(scoreCache)) }

// fillLattice populates s.lat for inst at theta. With a non-nil cache
// (inference at the model's own weights) score rows are shared across
// records; otherwise repeated observation signatures within the instance
// are detected and their rows copied. Both paths reproduce the direct
// computation bit-for-bit, because every cached row is the direct
// computation's output copied verbatim.
func (m *Model) fillLattice(s *scratch, theta []float64, inst Instance, cache *scoreCache) {
	n := m.cfg.NumStates
	T := len(inst.Obs)
	s.ensure(T, n)
	lat := &s.lat
	for t := 0; t < T; t++ {
		obs := inst.Obs[t]
		sig := obsSignature(obs)
		st := lat.stateRow(t)
		if cache != nil {
			if e, ok := cache.lookup(sig, obs); ok {
				copy(st, e.state)
				if t >= 1 {
					copy(lat.transRow(t), e.trans)
				}
				continue
			}
			m.stateScores(theta, obs, st)
			if t >= 1 {
				tr := lat.transRow(t)
				m.transScores(theta, obs, tr)
				cache.insert(sig, obs, st, tr)
			}
			continue
		}
		if e := s.findMemo(sig); e != nil && obsEqual(obs, inst.Obs[e.tState]) {
			copy(st, lat.stateRow(int(e.tState)))
			if t >= 1 {
				if e.tTrans >= 1 {
					copy(lat.transRow(t), lat.transRow(int(e.tTrans)))
				} else {
					m.transScores(theta, obs, lat.transRow(t))
					e.tTrans = int32(t)
				}
			}
			continue
		}
		m.stateScores(theta, obs, st)
		tt := int32(-1)
		if t >= 1 {
			m.transScores(theta, obs, lat.transRow(t))
			tt = int32(t)
		}
		s.memo = append(s.memo, memoEntry{hash: sig, tState: int32(t), tTrans: tt})
	}
}

// findMemo returns the memo entry with the given hash, if any. The memo
// holds one entry per distinct line shape, so a linear scan is cheaper
// than a map for realistic record lengths.
func (s *scratch) findMemo(sig uint64) *memoEntry {
	for i := range s.memo {
		if s.memo[i].hash == sig {
			return &s.memo[i]
		}
	}
	return nil
}

// forwardInto computes alpha[t*n+j] = log Σ over paths ending in state j
// at t, into the scratch-provided flat array.
func forwardInto(lat *lattice, alpha, buf []float64) {
	n, T := lat.n, lat.T
	copy(alpha[:n], lat.state[:n])
	for t := 1; t < T; t++ {
		tr := lat.transRow(t)
		prev := alpha[(t-1)*n : t*n]
		cur := alpha[t*n : (t+1)*n]
		st := lat.stateRow(t)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				buf[i] = prev[i] + tr[i*n+j]
			}
			cur[j] = mathx.LogSumExpSlice(buf[:n]) + st[j]
		}
	}
}

// backwardInto computes beta[t*n+i] = log Σ over path continuations from
// state i at position t, into the scratch-provided flat array.
func backwardInto(lat *lattice, beta, buf []float64) {
	n, T := lat.n, lat.T
	mathx.Fill(beta[(T-1)*n:T*n], 0) // zeros == log 1
	for t := T - 2; t >= 0; t-- {
		tr := lat.transRow(t + 1)
		next := beta[(t+1)*n : (t+2)*n]
		cur := beta[t*n : (t+1)*n]
		st := lat.stateRow(t + 1)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				buf[j] = tr[i*n+j] + st[j] + next[j]
			}
			cur[i] = mathx.LogSumExpSlice(buf[:n])
		}
	}
}

// viterbiInto runs the max-product recursion (eq. 14-16) over the filled
// lattice using scratch buffers, writes the argmax path into path (length
// T), and returns its unnormalized log score.
func viterbiInto(lat *lattice, s *scratch, path []int) float64 {
	n, T := lat.n, lat.T
	v, vNext := s.v[:n], s.vNext[:n]
	copy(v, lat.state[:n])
	for t := 1; t < T; t++ {
		tr := lat.transRow(t)
		st := lat.stateRow(t)
		back := s.back[t*n : (t+1)*n]
		for j := 0; j < n; j++ {
			best := mathx.NegInf
			bestI := 0
			for i := 0; i < n; i++ {
				if sc := v[i] + tr[i*n+j]; sc > best {
					best, bestI = sc, i
				}
			}
			vNext[j] = best + st[j]
			back[j] = int32(bestI)
		}
		v, vNext = vNext, v
	}
	bestJ, bestScore := mathx.ArgMax(v)
	path[T-1] = bestJ
	for t := T - 1; t >= 1; t-- {
		path[t-1] = int(s.back[t*n+path[t]])
	}
	return bestScore
}
