package lifecycle

import (
	"math"
	"testing"
)

// shrink sets s up to score every parse over windows of 8 that may
// flag after 4 observations. Call it before any traffic.
func shrink(s *sentinel) *sentinel {
	s.sampleEvery, s.window, s.minWindow = 1, 8, 4
	return s
}

func testSentinel() *sentinel { return shrink(newSentinel()) }

func TestRingSlidingMean(t *testing.T) {
	r := ring{buf: make([]float64, 4)}
	if r.mean() != 0 {
		t.Fatal("empty ring mean != 0")
	}
	for _, v := range []float64{1, 2, 3, 4} {
		r.push(v)
	}
	if got := r.mean(); got != 2.5 {
		t.Fatalf("mean = %v, want 2.5", got)
	}
	// Overwrite the oldest entries: window is now {5, 6, 3, 4}.
	r.push(5)
	r.push(6)
	if got := r.mean(); math.Abs(got-4.5) > 1e-12 {
		t.Fatalf("mean after wrap = %v, want 4.5", got)
	}
	if r.n != 4 {
		t.Fatalf("n = %d, want 4", r.n)
	}
}

func TestSentinelFlagsLowConfidence(t *testing.T) {
	s := testSentinel()
	// Below minWindow: never flags, even at zero confidence.
	for i := 0; i < 3; i++ {
		if f, _, _ := s.observe("r", 0, 0); f {
			t.Fatal("flagged before minWindow observations")
		}
	}
	f, _, total := s.observe("r", 0, 0)
	if !f || total != 1 {
		t.Fatalf("4th low-confidence observation: flagged=%v total=%d, want true/1", f, total)
	}
	// Already flagged: no repeated transition.
	if f, _, _ := s.observe("r", 0, 0); f {
		t.Fatal("flag transition reported twice")
	}
	if got := s.flagged(); len(got) != 1 || got[0] != "r" {
		t.Fatalf("flagged() = %v", got)
	}
	// Healthy observations wash the window out (window=8).
	var un bool
	for i := 0; i < 8; i++ {
		_, u, _ := s.observe("r", 1, 0)
		un = un || u
	}
	if !un {
		t.Fatal("no unflag transition after recovery")
	}
	if got := s.flagged(); len(got) != 0 {
		t.Fatalf("flagged() after recovery = %v", got)
	}
}

func TestSentinelFlagsNullRate(t *testing.T) {
	s := testSentinel()
	// Confidence is healthy, but the model labels everything Null —
	// the ceiling signal must trip on its own.
	var f bool
	for i := 0; i < 4; i++ {
		f, _, _ = s.observe("r", 0.95, 1.0)
	}
	if !f {
		t.Fatal("all-null parses did not flag")
	}
}

func TestSentinelIsolatesRegistrars(t *testing.T) {
	s := testSentinel()
	for i := 0; i < 8; i++ {
		s.observe("bad", 0.1, 0)
		s.observe("good", 0.95, 0)
	}
	got := s.flagged()
	if len(got) != 1 || got[0] != "bad" {
		t.Fatalf("flagged() = %v, want [bad]", got)
	}
}

func TestSentinelSampling(t *testing.T) {
	s := newSentinel()
	s.sampleEvery = 4
	n := 0
	for i := 0; i < 400; i++ {
		if s.shouldScore() {
			n++
		}
	}
	if n != 100 {
		t.Fatalf("scored %d of 400 with sampleEvery=4, want 100", n)
	}
	every := testSentinel()
	for i := 0; i < 10; i++ {
		if !every.shouldScore() {
			t.Fatal("sampleEvery=1 skipped a parse")
		}
	}
}
