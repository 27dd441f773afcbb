package main

import (
	"bufio"
	"math/rand"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
// Fewer than that and the percentile is one slow sample, not a tail.
const minBeyond = 10

// Pct is one percentile of a sample, with the percentile actually
// reported and the number of samples it was taken from.
type Pct struct {
	Value float64
	Pct   float64 // the percentile reported, in (0, 1]
	N     int
}

// percentile returns the want-th percentile (nearest rank) of xs, lowered
// to the highest percentile that still has at least minBeyond samples
// above it, but never below the median: with too few samples for a tail
// it reports the median. xs is not modified.
func percentile(xs []float64, want float64) Pct {
	n := len(xs)
	if n == 0 {
		return Pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := rankIndex(n, want)
	if lim := n - 1 - minBeyond; i > lim {
		i = lim
	}
	if mid := rankIndex(n, 0.5); i < mid {
		i = mid
	}
	return Pct{Value: s[i], Pct: float64(i+1) / float64(n), N: n}
}

// rankIndex is the nearest-rank index of percentile p in n samples.
func rankIndex(n int, p float64) int {
	i := int(p*float64(n)+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// median is the nearest-rank 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5).Value }

// nsTo converts nanosecond samples to float multiples of unit.
func nsTo(xs []int64, unit time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x) / float64(unit)
	}
	return out
}

// zipfRequests returns n request indices into a population of size
// domains, Zipf(s)-distributed over a seeded permutation, plus the
// permutation itself (perm[0] is the most popular domain). The same seed
// always yields the same sequence.
func zipfRequests(seed int64, n, domains int, s float64) (seq []int32, perm []int) {
	r := rand.New(rand.NewSource(seed))
	perm = r.Perm(domains)
	z := rand.NewZipf(r, s, 1, uint64(domains-1))
	seq = make([]int32, n)
	for i := range seq {
		seq[i] = int32(perm[z.Uint64()])
	}
	return seq, perm
}

// rssSampler records the peak resident set size seen while it runs.
// The process peak (VmHWM) would include model training and input
// generation; sampling VmRSS during the measured phases does not.
type rssSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak int64 // bytes
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	v := readRSS()
	s.mu.Lock()
	if v > s.peak {
		s.peak = v
	}
	s.mu.Unlock()
}

// Stop ends sampling and returns the peak in MiB.
func (s *rssSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	s.sample()
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.peak) / (1 << 20)
}

// readRSS reads the current resident set size from /proc/self/status;
// 0 where that file does not exist.
func readRSS() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmRSS:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) >= 2 {
			kb, _ := strconv.ParseInt(fields[1], 10, 64)
			return kb << 10
		}
	}
	return 0
}

// windowed splits samples into consecutive windows of length w by the
// time each completed (at, from the phase start), drops a last partial
// window, and returns the median over windows of each window's median,
// its tail percentile, and its rate of samples at most limit: the
// number of such completions after the window's first one, per second
// from the first to the last. Medians over windows discount a window the
// machine stalled in.
func windowed(lat []float64, at []time.Duration, wall, w time.Duration, limit float64) (p50, tail, goodput float64, windows int) {
	windows = int(wall / w)
	if windows < 1 {
		windows, w = 1, wall
	}
	type win struct {
		lat         []float64
		good        int
		first, last time.Duration
	}
	wins := make([]win, windows)
	for i, x := range lat {
		k := int(at[i] / w)
		if k >= windows {
			continue
		}
		v := &wins[k]
		v.lat = append(v.lat, x)
		if x <= limit {
			if v.good == 0 || at[i] < v.first {
				v.first = at[i]
			}
			v.last = max(v.last, at[i])
			v.good++
		}
	}
	var p50s, tails, goods []float64
	for _, v := range wins {
		p50s = append(p50s, median(v.lat))
		tails = append(tails, percentile(v.lat, 0.99).Value)
		rate := 0.0
		if v.good > 1 && v.last > v.first {
			rate = float64(v.good-1) / (v.last - v.first).Seconds()
		}
		goods = append(goods, rate)
	}
	return median(p50s), median(tails), median(goods), windows
}
