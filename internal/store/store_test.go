package store

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/leakcheck"
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
	nsOnly := testRecord(4)
	nsOnly.Parsed.Statuses = nil
	for _, rec := range []*Record{
		testRecord(1),
		noMeta,
		statusOnly,
		nsOnly,
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
	snap := reg.Snapshot()
	if got := snap["store.appends"].(uint64); got != 60 {
		t.Fatalf("store.appends = %v", got)
	}
	for _, name := range []string{"store.bytes", "store.segments", "store.records",
		"store.segment.rotations", "store.recovery.truncated.bytes"} {
		if _, ok := snap[name]; !ok {
			t.Errorf("metric %s missing from snapshot", name)
		}
	}
	if h, ok := snap["store.append.seconds"].(map[string]any); !ok || h["count"].(uint64) != 60 {
		t.Fatalf("store.append.seconds = %v", snap["store.append.seconds"])
	}
	if got := snap["store.segment.rotations"].(uint64); got == 0 {
		t.Fatal("store.segment.rotations = 0 after appends across 2 KiB segments")
	}
}

// TestConcurrentAppendIterateCompact: one writer rotating through small
// segments and several readers, all concurrent. The store no longer
// compacts, so the name keeps only the history: what it checks is that
// every snapshot is a prefix of the append order.
func TestConcurrentAppendIterateCompact(t *testing.T) {
	st, err := Open(t.TempDir(), Options{SegmentBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	// One writer and several readers, all concurrent; every reader's
	// snapshot must be a prefix of the append order.
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
				for i := 0; it.Next(); i++ {
					if got, want := it.Record().Domain, testRecord(i%40).Domain; got != want {
						t.Errorf("pass %d record %d: %s, want %s", pass, i, got, want)
						break
					}
				}
				if err := it.Err(); err != nil {
					t.Error(err)
				}
				it.Close()
			}
		}()
	}
	wg.Wait()

	it := st.Iter()
	defer it.Close()
	var n int
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 300 {
		t.Fatalf("%d records after concurrent run, want 300", n)
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

// surveyRecord is a survey-shaped record of n lines: raw text, parsed
// lines with labels, name servers, statuses and a model stamp.
func surveyRecord(n int) *Record {
	rec := testRecord(n)
	var text strings.Builder
	pr := rec.Parsed
	pr.Lines, pr.Blocks, pr.Fields = nil, nil, nil
	for i := 0; i < n; i++ {
		raw := fmt.Sprintf("Registrant Field %d: value %d", i, i*i)
		text.WriteString(raw + "\n")
		pr.Lines = append(pr.Lines, tokenize.Line{Raw: raw})
		pr.Blocks = append(pr.Blocks, labels.Registrant)
		pr.Fields = append(pr.Fields, labels.FieldName)
	}
	pr.ModelVersion = "default/1.0.0+deadbeef"
	rec.Text = text.String()
	return rec
}

// TestDecodeRecordAllocs: decoding costs a constant number of
// allocations, not one per string — for 40 lines as for 400.
func TestDecodeRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	for _, lines := range []int{40, 400} {
		payload := appendRecord(nil, surveyRecord(lines))
		n := testing.AllocsPerRun(100, func() {
			if _, err := decodeRecord(payload); err != nil {
				t.Fatal(err)
			}
		})
		if n > 8 {
			t.Errorf("decoding a %d-line record: %v allocations, want at most 8", lines, n)
		}
	}
}

// TestDecodedParsedDoesNotPinText: the raw text gets its own
// allocation, so a decoded ParsedRecord kept after its Record (the
// warm-start preload, a forwarded answer) never keeps the text alive,
// and no decoded string aliases the caller's payload buffer.
func TestDecodedParsedDoesNotPinText(t *testing.T) {
	payload := appendRecord(nil, surveyRecord(40))
	rec, err := decodeRecord(payload)
	if err != nil {
		t.Fatal(err)
	}
	tokenize.Resplit(rec.Parsed.Lines) // as the warm start does
	wire := unsafe.String(unsafe.SliceData(payload), len(payload))
	if leakcheck.Overlaps(rec.Text, wire) {
		t.Fatal("Text aliases the payload buffer")
	}
	strs := leakcheck.Strings(rec.Parsed)
	if len(strs) < 40 {
		t.Fatalf("only %d strings in the parsed record", len(strs))
	}
	for _, s := range strs {
		if leakcheck.Overlaps(s, rec.Text) {
			t.Fatalf("parsed string %q points into Text", s)
		}
		if leakcheck.Overlaps(s, wire) {
			t.Fatalf("parsed string %q aliases the payload buffer", s)
		}
	}
	// Not pointing into Text's bytes is not enough: the text must not
	// share an allocation with what the parsed record keeps either.
	textFreed := leakcheck.Collectable(rec.Text)
	kept := rec.Parsed
	rec = nil
	if !textFreed() {
		t.Fatal("the raw text stays reachable through the decoded ParsedRecord")
	}
	runtime.KeepAlive(kept)
}

// TestCloseAfterSealsLeavesNoGoroutine: a burst of appends seals many
// segments, each starting a seal hook; Close joins them all, and the
// goroutine count returns to its value before Open.
func TestCloseAfterSealsLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := Open(t.TempDir(), Options{SegmentBytes: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	var sealed atomic.Int32
	st.SetOnSeal(func(uint64) {
		time.Sleep(time.Millisecond)
		sealed.Add(1)
	})
	for i := 0; i < 200; i++ {
		if err := st.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if n := sealed.Load(); n < 20 {
		t.Fatalf("only %d seal hooks finished by Close", n)
	}
	leakcheck.Goroutines(t, before)
}
