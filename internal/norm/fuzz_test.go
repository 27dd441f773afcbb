package norm

import "testing"

// normFns are the string canonicalizers under the idempotence contract.
// Every one must be total and a projection: applying it twice is the
// same as applying it once. The consistency engine depends on this —
// comparison keys are themselves valid inputs (golden files, admin
// endpoints echo them back), and a non-idempotent fold would make
// "equivalent" depend on how many times a value passed through.
var normFns = []struct {
	name string
	fn   func(string) string
}{
	{"DateKey", DateKey},
	{"Registrar", Registrar},
	{"Email", Email},
	{"Host", Host},
	{"Status", Status},
	{"Country", Country},
	{"CountryKey", CountryKey},
}

// fuzzNormSeeds is the in-code half of the corpus; the checked-in half
// lives in testdata/fuzz/FuzzNorm.
func fuzzNormSeeds() []string {
	return []string{
		"",
		"GoDaddy.com, LLC",
		"2014-03-05T12:00:00Z",
		"05-Mar-2014 12:00:00 UTC",
		"Admin@EXAMPLE.com",
		"NS1.example.COM.",
		"clientTransferProhibited https://icann.org/epp#clientTransferProhibited",
		"United States of America",
		"....",
		"0 .", // trailing space before the root dot: Host must fold both
		"\x00\xff\xfe",
		"9999-99-99",
		"日本語: テスト",
		"   \t  ",
		"1982 1983 1984 1985",
	}
}

func checkNorm(t *testing.T, s string) {
	t.Helper()
	for _, nf := range normFns {
		once := nf.fn(s)
		twice := nf.fn(once)
		if once != twice {
			t.Fatalf("%s not idempotent on %q: first %q, second %q", nf.name, s, once, twice)
		}
	}
	// ParseDate must be total; a parseable string must round-trip through
	// DateKey to the same calendar day.
	if tm, ok := ParseDate(s); ok {
		day := tm.UTC().Format("2006-01-02")
		if got := DateKey(s); got != day {
			t.Fatalf("DateKey(%q) = %q, but ParseDate names day %q", s, got, day)
		}
	}
	for _, hs := range [][]string{{s}, {s, s}, {s, "ns1.example.com"}} {
		once := Hosts(hs)
		if twice := Hosts(once); len(once) != len(twice) {
			t.Fatalf("Hosts not idempotent on %q", s)
		}
		once = Statuses(hs)
		if twice := Statuses(once); len(once) != len(twice) {
			t.Fatalf("Statuses not idempotent on %q", s)
		}
	}
}

func FuzzNorm(f *testing.F) {
	for _, s := range fuzzNormSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) { checkNorm(t, s) })
}

// TestFuzzSeedsAsRegressions runs every in-code seed through the
// canonicalizers even when fuzzing is off, so `go test` alone exercises
// the corpus (the checked-in testdata/fuzz corpus runs automatically).
func TestFuzzSeedsAsRegressions(t *testing.T) {
	for _, s := range fuzzNormSeeds() {
		checkNorm(t, s)
	}
}
