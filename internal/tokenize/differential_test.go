package tokenize

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/synth"
)

// allOptions is every combination of the Options switches: the default,
// each observation family disabled alone, and every mix of them.
var allOptions = func() []Options {
	var out []Options
	for m := 0; m < 8; m++ {
		out = append(out, Options{
			DisableTitleValue: m&1 != 0,
			DisableLayout:     m&2 != 0,
			DisableClasses:    m&4 != 0,
		})
	}
	return out
}()

// checkMatchesReference fails t unless Tokenize and referenceTokenize
// agree on text under every Options combination, Obs included.
func checkMatchesReference(t *testing.T, text string) {
	t.Helper()
	for _, opts := range allOptions {
		got := Tokenize(text, opts)
		want := referenceTokenize(text, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Tokenize(%q, %+v) differs from the reference:\n got %s\nwant %s",
				text, opts, dumpLines(got), dumpLines(want))
		}
	}
}

func dumpLines(lines []Line) string {
	s := fmt.Sprintf("%d lines", len(lines))
	for i, ln := range lines {
		s += fmt.Sprintf("\n  %d: raw=%q title=%q value=%q sep=%v obs=%q",
			i, ln.Raw, ln.Title, ln.Value, ln.HasSep, ln.Obs)
	}
	return s
}

// FuzzTokenizeMatchesReference is the differential gate for the arena
// tokenizer: on any input its lines are identical to the reference
// tokenizer's under every Options combination. The checked-in corpus
// (testdata/fuzz) covers CRLF, tabs, bracketed titles, dot leaders,
// URLs, ISO dates, dotted quads, CJK, U+212A and U+0130.
func FuzzTokenizeMatchesReference(f *testing.F) {
	f.Add("Domain Name: example.com\n\nRegistrant Name: John")
	f.Add("")
	f.Fuzz(func(t *testing.T, text string) {
		checkMatchesReference(t, text)
	})
}

// TestTokenizeMatchesReferenceSynth runs the differential check over
// whole generated populations, with and without schema drift.
func TestTokenizeMatchesReferenceSynth(t *testing.T) {
	for _, drift := range []float64{0, 0.3} {
		for _, d := range synth.Generate(synth.Config{N: 300, Seed: 14, DriftFraction: drift, BrandFraction: 0.02}) {
			checkMatchesReference(t, d.Render().Text)
		}
	}
}

// TestPredicatesMatchReference pins the in-place case folding of the
// class predicates to the strings.ToLower semantics of the reference,
// including the two non-ASCII runes that lower to ASCII letters.
func TestPredicatesMatchReference(t *testing.T) {
	inputs := []string{
		"", "t", "T", "http://x", "HTTP://X", "Https://x", "WWW.x", "www", "Kww.x",
		"2015-02-27", "2015-02-27T10:00:00Z", "27-FEB-2015", "27-KKK-2015",
		"27-İİİ-2015", "27-ȺȺȺ-2015", "T2015-02-27", "2015-02-2\xff",
		"2015-02-27T\xff", "1.2.3.4", "1.2.3", "1.2.3.4.5", "1..3.4", "1234.1.1.1", ".1.2.3", "1.2.3.",
		"a.b.c.d", "١.٢.٣.٤", "2015/02/27", "02/27/2015", "2015.01.02",
	}
	for _, s := range inputs {
		if got, want := looksURL(s), referenceLooksURL(s); got != want {
			t.Errorf("looksURL(%q) = %v, reference %v", s, got, want)
		}
		if got, want := looksDate(s), referenceLooksDate(s); got != want {
			t.Errorf("looksDate(%q) = %v, reference %v", s, got, want)
		}
		if got, want := looksIP(s), referenceLooksIP(s); got != want {
			t.Errorf("looksIP(%q) = %v, reference %v", s, got, want)
		}
	}
}

// TestTokenizeObsFullCap checks that each line's Obs is capped at its
// length, so appending to one line never overwrites the next.
func TestTokenizeObsFullCap(t *testing.T) {
	lines := Tokenize("a: 1\nb: 2\nc: 3", Options{})
	want := append([]string(nil), lines[1].Obs...)
	for i, ln := range lines {
		if cap(ln.Obs) != len(ln.Obs) {
			t.Fatalf("line %d: cap(Obs) = %d, len %d", i, cap(ln.Obs), len(ln.Obs))
		}
	}
	_ = append(lines[0].Obs, "clobber")
	if !reflect.DeepEqual(lines[1].Obs, want) {
		t.Errorf("appending to line 0 changed line 1: %q, want %q", lines[1].Obs, want)
	}
}

// TestTokenizeAllocs bounds the allocations of one record: the lines,
// the shared Obs backing array and the word arena, with room for a
// buffer to grow once or twice on an unusual record.
func TestTokenizeAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		Tokenize(benchRecord, Options{})
	})
	if allocs > 8 {
		t.Errorf("Tokenize allocates %.0f/op, want <= 8", allocs)
	}
}
