package tokenize

import (
	"bytes"
	"runtime"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/synth"
)

func linesFor(obs ...string) [][]Line {
	return [][]Line{{{Obs: obs}}}
}

func TestBuildDictionaryTrimsInfrequent(t *testing.T) {
	recs := linesFor("common", "common", "common", "rare")
	d := BuildDictionary(recs, 2)
	if _, ok := d.ID("common"); !ok {
		t.Error("frequent observation missing")
	}
	if _, ok := d.ID("rare"); ok {
		t.Error("rare observation should be trimmed")
	}
}

func TestBuildDictionaryKeepsClosedClass(t *testing.T) {
	recs := linesFor(MarkNL, MarkSEP, "CLS:5DIGIT", "rareword")
	d := BuildDictionary(recs, 5)
	for _, obs := range []string{MarkNL, MarkSEP, "CLS:5DIGIT"} {
		if _, ok := d.ID(obs); !ok {
			t.Errorf("closed-class observation %q trimmed", obs)
		}
	}
	if _, ok := d.ID("rareword"); ok {
		t.Error("rare open-class word should be trimmed")
	}
}

func TestDictionaryDeterministicIDs(t *testing.T) {
	recs := linesFor("b", "a", "c", "a")
	d1 := BuildDictionary(recs, 1)
	d2 := BuildDictionary(recs, 1)
	if d1.Len() != d2.Len() {
		t.Fatal("lengths differ")
	}
	for i := 0; i < d1.Len(); i++ {
		if d1.Name(i) != d2.Name(i) {
			t.Fatalf("id %d: %q vs %q", i, d1.Name(i), d2.Name(i))
		}
	}
	// Sorted assignment.
	for i := 1; i < d1.Len(); i++ {
		if d1.Name(i-1) >= d1.Name(i) {
			t.Fatalf("names not sorted: %q >= %q", d1.Name(i-1), d1.Name(i))
		}
	}
}

func TestDictionaryCounts(t *testing.T) {
	recs := linesFor("x", "x", "y")
	d := BuildDictionary(recs, 1)
	id, _ := d.ID("x")
	if d.Count(id) != 2 {
		t.Errorf("count(x) = %d, want 2", d.Count(id))
	}
}

func TestMapLineDropsUnknown(t *testing.T) {
	d := BuildDictionary(linesFor("known"), 1)
	ids := d.AppendIDs(nil, Line{Obs: []string{"known", "unknown"}})
	if len(ids) != 1 {
		t.Fatalf("got %d ids, want 1", len(ids))
	}
	if d.Name(ids[0]) != "known" {
		t.Errorf("mapped to %q", d.Name(ids[0]))
	}
}

func TestDictionaryRoundTrip(t *testing.T) {
	recs := linesFor("alpha", "beta", "beta", MarkNL, "gamma with spaces")
	d := BuildDictionary(recs, 1)
	var buf bytes.Buffer
	if _, err := d.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d2, err := ReadDictionary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != d.Len() {
		t.Fatalf("length after round trip: %d vs %d", d2.Len(), d.Len())
	}
	for i := 0; i < d.Len(); i++ {
		if d.Name(i) != d2.Name(i) || d.Count(i) != d2.Count(i) {
			t.Fatalf("entry %d differs: (%q,%d) vs (%q,%d)",
				i, d.Name(i), d.Count(i), d2.Name(i), d2.Count(i))
		}
	}
}

func TestDictionaryRoundTripProperty(t *testing.T) {
	f := func(words []string) bool {
		var obs []string
		for _, w := range words {
			w = strings.Map(func(r rune) rune {
				if r == '\n' || r == '\t' {
					return '_'
				}
				return r
			}, w)
			if w != "" {
				obs = append(obs, w)
			}
		}
		if len(obs) == 0 {
			return true
		}
		d := BuildDictionary(linesFor(obs...), 1)
		var buf bytes.Buffer
		if _, err := d.WriteTo(&buf); err != nil {
			return false
		}
		d2, err := ReadDictionary(&buf)
		if err != nil || d2.Len() != d.Len() {
			return false
		}
		for i := 0; i < d.Len(); i++ {
			if d.Name(i) != d2.Name(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReadDictionaryRejectsMalformed(t *testing.T) {
	cases := []string{
		"notab",
		"x\tname",
	}
	for _, c := range cases {
		if _, err := ReadDictionary(strings.NewReader(c)); err == nil {
			t.Errorf("input %q: expected error", c)
		}
	}
	if _, err := ReadDictionary(strings.NewReader("1\tdup\n2\tdup\n")); err == nil {
		t.Error("duplicate entries should be rejected")
	}
}

func TestBuildDictionaryMinCountFloor(t *testing.T) {
	d := BuildDictionary(linesFor("x"), 0) // treated as 1
	if _, ok := d.ID("x"); !ok {
		t.Error("minCount 0 should behave as 1")
	}
}

// TestBuildDictionaryDoesNotPinRecords checks that no dictionary name
// shares memory with a training line's observations: the names are
// copies, so a trained model does not keep every training record's
// arena alive.
func TestBuildDictionaryDoesNotPinRecords(t *testing.T) {
	var records [][]Line
	for _, d := range synth.Generate(synth.Config{N: 40, Seed: 14}) {
		records = append(records, Tokenize(d.Render().Text, Options{}))
	}
	type span struct{ lo, hi uintptr }
	var spans []span
	for _, rec := range records {
		for _, ln := range rec {
			for _, o := range ln.Obs {
				p := uintptr(unsafe.Pointer(unsafe.StringData(o)))
				spans = append(spans, span{p, p + uintptr(len(o))})
			}
		}
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	// reach[i] is the highest end among spans[:i+1].
	reach := make([]uintptr, len(spans))
	for i, sp := range spans {
		reach[i] = sp.hi
		if i > 0 && reach[i-1] > sp.hi {
			reach[i] = reach[i-1]
		}
	}
	d := BuildDictionary(records, 1)
	for id := 0; id < d.Len(); id++ {
		name := d.Name(id)
		lo := uintptr(unsafe.Pointer(unsafe.StringData(name)))
		hi := lo + uintptr(len(name))
		// spans[:k] start before name ends; one of them overlaps name
		// if it also ends after name starts.
		k := sort.Search(len(spans), func(i int) bool { return spans[i].lo >= hi })
		if k > 0 && reach[k-1] > lo {
			t.Fatalf("dictionary name %q aliases a training observation", name)
		}
	}
	runtime.KeepAlive(records)
}
