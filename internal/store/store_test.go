package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/survey"
	"repro/internal/tokenize"
)

// testRecord builds a representative record: parsed lines with labels,
// extracted fields, raw text, and derived facts.
func testRecord(i int) *Record {
	domain := fmt.Sprintf("example%04d.com", i)
	text := fmt.Sprintf("Domain Name: %s\nRegistrant Name: Holder %d\n", domain, i)
	pr := &core.ParsedRecord{
		Lines: []tokenize.Line{
			{Raw: "Domain Name: " + domain, Title: "Domain Name", Value: domain, HasSep: true},
			{Raw: fmt.Sprintf("Registrant Name: Holder %d", i)},
		},
		Blocks:     []labels.Block{labels.Domain, labels.Registrant},
		Fields:     []labels.Field{labels.FieldOther, labels.FieldName},
		DomainName: domain,
		Registrar:  fmt.Sprintf("Registrar %d", i%7),
		Registrant: core.Contact{
			Name:    fmt.Sprintf("Holder %d", i),
			Country: "US",
			Email:   fmt.Sprintf("holder%d@example.com", i),
		},
		CreatedDate: "2014-03-01",
		NameServers: []string{
			fmt.Sprintf("ns1.host%d.net", i%4),
			fmt.Sprintf("ns2.host%d.net", i%4),
		},
		Statuses: []string{"clientTransferProhibited"},
	}
	return &Record{
		Domain: domain,
		Text:   text,
		Parsed: pr,
		Facts: survey.Facts{
			Domain:      domain,
			Registrar:   pr.Registrar,
			Country:     "United States",
			CreatedYear: 2014,
			Privacy:     i%5 == 0,
			PrivacySvc:  map[bool]string{true: "WhoisGuard", false: ""}[i%5 == 0],
			Org:         fmt.Sprintf("Org %d", i%3),
			Blacklisted: i%11 == 0,
		},
	}
}

func TestRecordRoundTrip(t *testing.T) {
	noMeta := testRecord(2)
	noMeta.Parsed.NameServers = nil
	noMeta.Parsed.Statuses = nil
	statusOnly := testRecord(3)
	statusOnly.Parsed.NameServers = nil
	for _, rec := range []*Record{
		testRecord(1),
		noMeta,
		statusOnly,
		{Domain: "bare.com", Facts: survey.Facts{Domain: "bare.com", Registrar: "Thin Reg"}},
		{Domain: "txt.com", Text: "raw only", Facts: survey.Facts{Domain: "txt.com"}},
	} {
		payload := appendRecord(nil, rec)
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", rec.Domain, err)
		}
		// Decoding restores Raw + labels on lines; feature-pipeline
		// internals (Title/Value/HasSep/Obs) are intentionally dropped.
		want := *rec
		if want.Parsed != nil {
			pr := *want.Parsed
			pr.Lines = append([]tokenize.Line(nil), pr.Lines...)
			for i := range pr.Lines {
				pr.Lines[i] = tokenize.Line{Raw: pr.Lines[i].Raw}
			}
			want.Parsed = &pr
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: round trip mismatch:\n got %+v\nwant %+v", rec.Domain, got, &want)
		}
	}
}

func TestAppendIterate(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := st.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	it := st.Iter()
	defer it.Close()
	var count int
	for it.Next() {
		rec := it.Record()
		if want := fmt.Sprintf("example%04d.com", count); rec.Domain != want {
			t.Fatalf("record %d: domain %q, want %q", count, rec.Domain, want)
		}
		if it.Seq() != uint64(count) {
			t.Fatalf("record %d: seq %d", count, it.Seq())
		}
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("iterated %d records, want %d", count, n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: counts and contents survive.
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got != n {
		t.Fatalf("reopened Len = %d, want %d", got, n)
	}
	if st2.RecoveredBytes() != 0 {
		t.Fatalf("clean reopen recovered %d bytes", st2.RecoveredBytes())
	}
}

func TestIterFromSeeksWithSparseIndex(t *testing.T) {
	dir := t.TempDir()
	// Small IndexEvery so seeks cross multiple index entries; small
	// segments so seeks cross segment boundaries too.
	st, err := Open(dir, Options{SegmentBytes: 4 << 10, IndexEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 200
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if st.Segments() < 3 {
		t.Fatalf("want >= 3 segments, got %d", st.Segments())
	}
	for _, start := range []uint64{0, 1, 7, 8, 9, 63, 100, n - 1, n, n + 10} {
		it := st.IterFrom(start)
		var got []uint64
		for it.Next() {
			got = append(got, it.Seq())
			if len(got) > n {
				t.Fatal("runaway iterator")
			}
		}
		if err := it.Err(); err != nil {
			t.Fatalf("IterFrom(%d): %v", start, err)
		}
		it.Close()
		wantLen := 0
		if start < n {
			wantLen = int(n - start)
		}
		if len(got) != wantLen {
			t.Fatalf("IterFrom(%d): %d records, want %d", start, len(got), wantLen)
		}
		if wantLen > 0 && (got[0] != start || got[len(got)-1] != n-1) {
			t.Fatalf("IterFrom(%d): seq range [%d, %d]", start, got[0], got[len(got)-1])
		}
	}
}

func TestIterNewestSegment(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const n = 120
	for i := 0; i < n; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	it := st.IterNewestSegment()
	defer it.Close()
	var domains []string
	for it.Next() {
		domains = append(domains, it.Record().Domain)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(domains) == 0 || len(domains) >= n {
		t.Fatalf("newest segment yielded %d of %d records", len(domains), n)
	}
	if last := domains[len(domains)-1]; last != fmt.Sprintf("example%04d.com", n-1) {
		t.Fatalf("newest segment ends at %s", last)
	}
}

func TestIteratorSnapshotExcludesLaterAppends(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 10; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	it := st.Iter()
	defer it.Close()
	for i := 10; i < 20; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	var count int
	for it.Next() {
		count++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("snapshot iterated %d records, want 10", count)
	}
}

func TestCompactDedupsNewestWins(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	// Three generations of the same 30 domains; generation is encoded in
	// the registrar so the winner is observable.
	const domains, gens = 30, 3
	for g := 0; g < gens; g++ {
		for d := 0; d < domains; d++ {
			rec := testRecord(d)
			rec.Facts.Registrar = fmt.Sprintf("gen-%d", g)
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := st.Len()
	stats, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != domains {
		t.Fatalf("kept %d, want %d (stats %+v)", stats.Kept, domains, stats)
	}
	if stats.Dropped != before-domains {
		t.Fatalf("dropped %d, want %d", stats.Dropped, before-domains)
	}
	if got := st.Len(); got != domains {
		t.Fatalf("Len after compact = %d, want %d", got, domains)
	}
	seen := make(map[string]string)
	it := st.Iter()
	defer it.Close()
	for it.Next() {
		rec := it.Record()
		seen[rec.Domain] = rec.Facts.Registrar
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != domains {
		t.Fatalf("%d distinct domains after compact, want %d", len(seen), domains)
	}
	for d, reg := range seen {
		if reg != fmt.Sprintf("gen-%d", gens-1) {
			t.Fatalf("%s survived as %q, want newest generation", d, reg)
		}
	}

	// Appends after compaction land and survive a reopen.
	if err := st.Append(testRecord(999)); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got != domains+1 {
		t.Fatalf("reopened Len = %d, want %d", got, domains+1)
	}
}

func TestCompactEmptyAndSingleSegment(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Compact(); err != nil {
		t.Fatalf("empty compact: %v", err)
	}
	for i := 0; i < 5; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Kept != 5 || stats.Dropped != 0 {
		t.Fatalf("stats %+v", stats)
	}
	if got := st.Len(); got != 5 {
		t.Fatalf("Len = %d", got)
	}
}

func TestAutoCompactTriggersInBackground(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{SegmentBytes: 2 << 10, AutoCompactSegments: 3})
	if err != nil {
		t.Fatal(err)
	}
	// Repeatedly rewrite the same few domains so compaction has work.
	for i := 0; i < 400; i++ {
		rec := testRecord(i % 10)
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // Close waits for background compaction
		t.Fatal(err)
	}
	st2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Len(); got >= 400 {
		t.Fatalf("auto-compaction never ran: %d records remain", got)
	}
}

func TestDomainsStreams(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 20; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	var n int
	if err := st.Domains(func(string) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 20 {
		t.Fatalf("Domains visited %d, want 20", n)
	}
	n = 0
	if err := st.Domains(func(string) bool { n++; return n < 5 }); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("early stop visited %d, want 5", n)
	}
}

func TestMetricsWired(t *testing.T) {
	reg := obs.NewRegistry()
	st, err := Open(t.TempDir(), Options{Metrics: reg, SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i := 0; i < 60; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap["store.appends"].(uint64); got != 60 {
		t.Fatalf("store.appends = %v", got)
	}
	for _, name := range []string{"store.bytes", "store.segments", "store.records",
		"store.segment.rotations", "store.compactions"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing from snapshot", name)
		}
	}
	if h, ok := snap["store.append.seconds"].(map[string]any); !ok || h["count"].(uint64) != 60 {
		t.Fatalf("store.append.seconds = %v", snap["store.append.seconds"])
	}
}

func TestConcurrentAppendIterateCompact(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	// One writer, several readers, one compactor, all concurrent.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 300; i++ {
			if err := st.Append(testRecord(i % 40)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for pass := 0; pass < 5; pass++ {
				it := st.Iter()
				for it.Next() {
					_ = it.Record().Domain
				}
				if err := it.Err(); err != nil {
					t.Error(err)
				}
				it.Close()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for pass := 0; pass < 3; pass++ {
			if _, err := st.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	// Post-conditions: every domain's newest value is readable.
	it := st.Iter()
	defer it.Close()
	var n int
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no records after concurrent run")
	}
}

func TestOpenRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	// A sealed segment with a bad header must refuse to open.
	if err := os.WriteFile(filepath.Join(dir, "00000001.seg"), []byte("not a segment at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "00000002.seg"), []byte("also junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("Open accepted a corrupt sealed segment")
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Append(testRecord(0)); err == nil {
		t.Fatal("append after close succeeded")
	}
	if err := st.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

// TestRecordRoundTripModelVersion covers the flagHasModelVersion tail
// field: stamped facts survive the round trip, the stamp mirrors into
// the parsed record, and unstamped records keep the pre-stamp layout.
func TestRecordRoundTripModelVersion(t *testing.T) {
	stamped := testRecord(3)
	stamped.Facts.ModelVersion = "default/1.0.0+9a1b2c3d"
	payload := appendRecord(nil, stamped)
	got, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	if got.Facts.ModelVersion != "default/1.0.0+9a1b2c3d" {
		t.Errorf("Facts.ModelVersion = %q after round trip", got.Facts.ModelVersion)
	}
	if got.Parsed == nil || got.Parsed.ModelVersion != "default/1.0.0+9a1b2c3d" {
		t.Error("decoded parsed record not stamped with the facts' model version")
	}

	// A parsed-record stamp with unstamped facts must also survive.
	viaParsed := testRecord(4)
	viaParsed.Parsed.ModelVersion = "default/0.0.0+00000007"
	got, err = decodeRecord(appendRecord(nil, viaParsed))
	if err != nil {
		t.Fatal(err)
	}
	if got.Facts.ModelVersion != "default/0.0.0+00000007" || got.Parsed.ModelVersion != "default/0.0.0+00000007" {
		t.Errorf("parsed-record stamp lost: facts=%q parsed=%q",
			got.Facts.ModelVersion, got.Parsed.ModelVersion)
	}

	// Unstamped payloads must not grow the new tail field (layout parity
	// with records written before the field existed).
	plain := testRecord(5)
	withStamp := testRecord(5)
	withStamp.Facts.ModelVersion = "x"
	if a, b := appendRecord(nil, plain), appendRecord(nil, withStamp); len(a) >= len(b) {
		t.Errorf("unstamped payload (%d bytes) not smaller than stamped (%d)", len(a), len(b))
	}
	got, err = decodeRecord(appendRecord(nil, plain))
	if err != nil {
		t.Fatal(err)
	}
	if got.Facts.ModelVersion != "" {
		t.Errorf("unstamped record decoded with ModelVersion %q", got.Facts.ModelVersion)
	}
}

// TestSinkStampsModelVersion checks the crawl-sink satellite: when a
// model parses records on the way into the store, every appended record
// carries the version the model stamped in its facts.
func TestSinkStampsModelVersion(t *testing.T) {
	st, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	sink := NewSink(st, SinkOptions{
		Parse: func(text string) *core.ParsedRecord {
			return &core.ParsedRecord{DomainName: "stamp.com", ModelVersion: "default/1.0.0+deadbeef"}
		},
	})
	if err := sink.Put("stamp.com", "Reg", "Domain Name: stamp.com\n"); err != nil {
		t.Fatal(err)
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	it := st.Iter()
	defer it.Close()
	if !it.Next() {
		t.Fatalf("no record in store: %v", it.Err())
	}
	rec := it.Record()
	if rec.Facts.ModelVersion != "default/1.0.0+deadbeef" {
		t.Errorf("Facts.ModelVersion = %q", rec.Facts.ModelVersion)
	}
}
