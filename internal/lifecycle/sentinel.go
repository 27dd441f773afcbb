package lifecycle

import (
	"sync"
	"sync/atomic"
)

// sentinel watches live parse quality per registrar. WHOIS drift is
// template drift: one registrar changes its output format and the model
// quietly degrades on that registrar while aggregate metrics barely
// move (§5.1). So the windows are keyed by the registrar the model
// extracted, and each tracks two signals over a sliding window:
//
//   - mean minimum posterior confidence (§5.3's uncertainty measure) of
//     the sampled parses — low means the model is guessing;
//   - mean Null/Other line rate — high means the model has stopped
//     recognizing the template's blocks altogether.
//
// A registrar is flagged when either windowed mean crosses its
// threshold (with at least minWindow observations), and unflagged when
// both recover. Transitions, not levels, are reported to the manager so
// flapping windows do not spam logs or callbacks.
//
// The thresholds are the defaults below; tests shrink a sentinel's
// fields before feeding it traffic.
type sentinel struct {
	sampleEvery uint64
	window      int
	minWindow   int
	confFloor   float64
	nullCeil    float64

	tick atomic.Uint64

	mu    sync.Mutex
	regs  map[string]*regWindow
	flags map[string]bool
}

type regWindow struct {
	conf ring
	null ring
}

// ring is a fixed-capacity sliding window with a running sum, so the
// windowed mean is O(1) per observation.
type ring struct {
	buf  []float64
	n    int // filled entries
	next int // next write position
	sum  float64
}

func (r *ring) push(v float64) {
	if r.n == len(r.buf) {
		r.sum -= r.buf[r.next]
	} else {
		r.n++
	}
	r.buf[r.next] = v
	r.sum += v
	r.next = (r.next + 1) % len(r.buf)
}

func (r *ring) mean() float64 {
	if r.n == 0 {
		return 0
	}
	return r.sum / float64(r.n)
}

// Sentinel defaults.
const (
	// sampleEvery scores every Nth parse with posterior confidence
	// (ParseWithConfidence costs one extra forward-backward over the
	// block lattice); the rest run the plain Viterbi path.
	sampleEvery = 8
	// window is the per-registrar sliding-window size in observations.
	window = 64
	// minWindow is the minimum observations before a window may flag.
	minWindow = 16
	// confidenceFloor flags a registrar whose windowed mean minimum
	// posterior confidence falls below it.
	confidenceFloor = 0.5
	// nullOtherCeiling flags a registrar whose windowed mean fraction
	// of Null/Other lines exceeds it — the "model stopped recognizing
	// the template" signal (§5.1).
	nullOtherCeiling = 0.9
)

func newSentinel() *sentinel {
	return &sentinel{
		sampleEvery: sampleEvery,
		window:      window,
		minWindow:   minWindow,
		confFloor:   confidenceFloor,
		nullCeil:    nullOtherCeiling,
		regs:        map[string]*regWindow{},
		flags:       map[string]bool{},
	}
}

// shouldScore decides whether this parse pays for posterior confidence;
// a lock-free modular counter spreads the sampling across goroutines.
func (s *sentinel) shouldScore() bool {
	if s.sampleEvery <= 1 {
		return true
	}
	return s.tick.Add(1)%s.sampleEvery == 0
}

// observe records one scored parse and reports whether the registrar's
// flag transitioned, plus the total number of currently flagged
// registrars (valid whenever a transition happened).
func (s *sentinel) observe(registrar string, conf, nullRate float64) (flagged, unflagged bool, total int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.regs[registrar]
	if w == nil {
		w = &regWindow{
			conf: ring{buf: make([]float64, s.window)},
			null: ring{buf: make([]float64, s.window)},
		}
		s.regs[registrar] = w
	}
	w.conf.push(conf)
	w.null.push(nullRate)

	if w.conf.n < s.minWindow {
		return false, false, len(s.flags)
	}
	drifting := w.conf.mean() < s.confFloor || w.null.mean() > s.nullCeil
	was := s.flags[registrar]
	switch {
	case drifting && !was:
		s.flags[registrar] = true
		return true, false, len(s.flags)
	case !drifting && was:
		delete(s.flags, registrar)
		return false, true, len(s.flags)
	}
	return false, false, len(s.flags)
}

// flagged returns the currently flagged registrars, unordered.
func (s *sentinel) flagged() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.flags))
	for r := range s.flags {
		out = append(out, r)
	}
	return out
}
