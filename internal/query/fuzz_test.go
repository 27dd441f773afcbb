package query

import (
	"reflect"
	"testing"
)

// fuzzIndexSeeds are valid encoded sidecars plus hand-built corruptions;
// the checked-in corpus under testdata/fuzz/FuzzIndexDecode extends them
// with generated crashers. Every seed doubles as a regression input on
// plain `go test`.
func fuzzIndexSeeds() [][]byte {
	x := &Index{
		SegID: 3, Fingerprint: 0x01020304, Records: 9,
		Registrar: map[string][]Posting{
			"":     {5},
			"eNom": {61, 812},
		},
		Country: map[string][]Posting{"China": {117}},
		Year:    map[int][]Posting{0: {5}, 2014: {812}},
	}
	idx := encodeIndex(x)
	z := &ZoneMap{
		SegID: 3, Fingerprint: 0x01020304, Records: 9,
		MinYear: 2001, MaxYear: 2014, YearZero: true,
		Registrars: []string{"", "eNom"}, Countries: []string{"China"},
	}
	zm := encodeZoneMap(z)
	seeds := [][]byte{
		idx,
		zm,
		{},                                     // empty
		idx[:4],                                // magic only
		idx[:len(idx)/2],                       // truncated body
		append(append([]byte{}, idx...), 0xff), // trailing garbage
	}
	// Flip one byte at several positions of both valid sidecars.
	for _, src := range [][]byte{idx, zm} {
		for _, pos := range []int{0, 4, 5, len(src) / 2, len(src) - 1} {
			b := append([]byte(nil), src...)
			b[pos] ^= 0x80
			seeds = append(seeds, b)
		}
	}
	// A posting count claiming far more entries than remain.
	huge := append([]byte(nil), idx[:20]...)
	huge = append(huge, 0xff, 0xff, 0xff, 0xff, 0x0f)
	seeds = append(seeds, huge)
	return seeds
}

// FuzzIndexDecode holds the sidecar decoders to their whole contract
// under arbitrary bytes: return a value or ErrBadSidecar — never panic,
// never over-read, never allocate proportionally to a forged count — and
// round-trip anything they accept. The planner trusts nothing else: a
// decoded sidecar that is merely *stale* is caught by the fingerprint
// check, and a seek it misdirects is caught by the frame CRC + Match
// re-check, so decode robustness is the only thing fuzz must establish.
func FuzzIndexDecode(f *testing.F) {
	for _, s := range fuzzIndexSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if x, err := decodeIndex(data); err == nil {
			re := encodeIndex(x)
			x2, err := decodeIndex(re)
			if err != nil {
				t.Fatalf("re-encoded index rejected: %v", err)
			}
			if !reflect.DeepEqual(x, x2) {
				t.Fatalf("index round trip diverged:\n first %+v\nsecond %+v", x, x2)
			}
		}
		if z, err := decodeZoneMap(data); err == nil {
			re := encodeZoneMap(z)
			z2, err := decodeZoneMap(re)
			if err != nil {
				t.Fatalf("re-encoded zone map rejected: %v", err)
			}
			if !reflect.DeepEqual(z, z2) {
				t.Fatalf("zone map round trip diverged:\n first %+v\nsecond %+v", z, z2)
			}
		}
	})
}

// TestFuzzSeedsAsRegressions runs every seed through both decoders even
// when fuzzing is off, so `go test` alone exercises the corpus.
func TestFuzzSeedsAsRegressions(t *testing.T) {
	valid := 0
	for _, s := range fuzzIndexSeeds() {
		if _, err := decodeIndex(s); err == nil {
			valid++
		}
		_, _ = decodeZoneMap(s)
	}
	if valid == 0 {
		t.Fatal("no seed decodes — the valid seeds are broken")
	}
}
