package query

import (
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/leakcheck"
	"repro/internal/obs"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/tokenize"
)

var (
	testRegistrars = []string{
		"GoDaddy.com, LLC", "eNom", "Tucows Domains Inc.", "HiChina Zhicheng",
		"Network Solutions", "1&1 Internet", "PDR Ltd.", "",
	}
	testCountries = []string{
		"United States", "China", "Germany", "United Kingdom", "Japan", "",
	}
)

// rareRegistrar appears in a handful of records only — the selective
// predicate zone maps should prune almost every segment for.
const rareRegistrar = "Sparse Registrations Pty"

// genRecord derives a deterministic pseudo-random record from rng.
func genRecord(i int, rng *rand.Rand) *store.Record {
	domain := "host" + strconv.Itoa(i) + ".example"
	year := 0
	if rng.Intn(10) > 0 { // ~10% unknown year
		year = 1996 + rng.Intn(20)
	}
	f := survey.Facts{
		Domain:      domain,
		Registrar:   testRegistrars[rng.Intn(len(testRegistrars))],
		Country:     testCountries[rng.Intn(len(testCountries))],
		CreatedYear: year,
		Privacy:     rng.Intn(7) == 0,
		Blacklisted: rng.Intn(13) == 0,
		Org:         "Org " + strconv.Itoa(rng.Intn(5)),
	}
	if f.Privacy {
		f.PrivacySvc = "WhoisGuard"
		f.Country = ""
	}
	return &store.Record{Domain: domain, Facts: f}
}

// buildTestStore writes n pseudo-random records across many small
// segments, salting in a few rareRegistrar rows.
func buildTestStore(tb testing.TB, dir string, n int, seed int64) *store.Store {
	return buildTestStoreSized(tb, dir, n, seed, 4<<10)
}

func buildTestStoreSized(tb testing.TB, dir string, n int, seed int64, segmentBytes int64) *store.Store {
	tb.Helper()
	return buildShapedStore(tb, dir, n, seed, segmentBytes, nil)
}

// buildShapedStore is buildTestStoreSized with shape, when non-nil,
// applied to every record before it is appended.
func buildShapedStore(tb testing.TB, dir string, n int, seed int64, segmentBytes int64, shape func(*store.Record)) *store.Store {
	tb.Helper()
	st, err := store.Open(dir, store.Options{
		SegmentBytes: segmentBytes,
		Metrics:      obs.NewRegistry(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		rec := genRecord(i, rng)
		if i == n/2 || i == n-2 { // rare registrar: two rows, one segment-ish
			rec.Facts.Registrar = rareRegistrar
			rec.Facts.Country = "Australia"
			rec.Facts.CreatedYear = 2014
		}
		if shape != nil {
			shape(rec)
		}
		if err := st.Append(rec); err != nil {
			tb.Fatal(err)
		}
	}
	return st
}

// seekWindow is the store's first read at a posting (frameReadWindow
// in internal/store); a frame above it takes a second read.
const seekWindow = 8 << 10

// surveyShape gives each record what a survey-ingested one carries: its
// raw text and a parsed view with labelled lines, name servers and a
// model stamp — a frame of a few KB, and about one in twenty above
// seekWindow. It draws from its own rng, so the facts genRecord draws
// stay those of the plain corpus.
func surveyShape(seed int64) func(*store.Record) {
	rng := rand.New(rand.NewSource(seed))
	return func(rec *store.Record) {
		n := 20 + rng.Intn(40)
		if rng.Intn(20) == 0 {
			n = 150 + rng.Intn(150)
		}
		pr := &core.ParsedRecord{
			DomainName:   rec.Domain,
			Registrar:    rec.Facts.Registrar,
			NameServers:  []string{"ns1." + rec.Domain, "ns2." + rec.Domain},
			ModelVersion: "default/1.0.0+0000002a",
		}
		var text strings.Builder
		for l := 0; l < n; l++ {
			raw := "Registrant Street " + strconv.Itoa(l) + ": " + strconv.Itoa(rng.Intn(1000)) + " " + rec.Domain + " Road"
			text.WriteString(raw + "\n")
			pr.Lines = append(pr.Lines, tokenize.Line{Raw: raw})
			pr.Blocks = append(pr.Blocks, labels.Block(rng.Intn(labels.NumBlocks)))
			pr.Fields = append(pr.Fields, labels.Field(rng.Intn(labels.NumFields)))
		}
		rec.Text = text.String()
		rec.Parsed = pr
	}
}

func envInt(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			return n
		}
	}
	return def
}

// renderSurvey flattens every table the survey produces into one string,
// so two surveys can be compared byte for byte.
func renderSurvey(sv *survey.Survey) string {
	var b strings.Builder
	t3a, t3b := sv.Table3()
	b.WriteString(survey.RenderRows("Table 3 (all)", t3a))
	b.WriteString(survey.RenderRows("Table 3 (2014)", t3b))
	t5a, t5b := sv.Table5()
	b.WriteString(survey.RenderRows("Table 5 (all)", t5a))
	b.WriteString(survey.RenderRows("Table 5 (2014)", t5b))
	b.WriteString(survey.RenderRows("Table 6", sv.Table6()))
	b.WriteString(survey.RenderRows("Table 7", sv.Table7()))
	b.WriteString(survey.RenderRows("Table 8", sv.Table8()))
	b.WriteString(survey.RenderRows("Table 9", sv.Table9()))
	b.WriteString(survey.RenderHistogram("Figure 4a", sv.Figure4a()))
	return b.String()
}

// differentialPreds is every predicate shape the planner supports.
func differentialPreds() []Pred {
	return []Pred{
		{},
		{Registrar: "eNom"},
		{Registrar: rareRegistrar},
		{Registrar: "No Such Registrar"},
		{Registrar: ""}, // empty = unset: matches all
		{Country: "China"},
		{Country: "Australia"},
		{Country: "Atlantis"},
		{Year: 2014, HasYear: true},
		{Year: 0, HasYear: true}, // unknown creation year
		{Year: 1890, HasYear: true},
		{Year: 2010, YearTo: 2014, HasYear: true},
		{Year: 2012, YearTo: 2012, HasYear: true}, // degenerate range
		{Year: 1890, YearTo: 1900, HasYear: true}, // empty range
		{Year: 1, YearTo: 9999, HasYear: true},    // everything with a year
		{Since: 2010},
		{Since: 2031},
		{Registrar: "eNom", Country: "United States"},
		{Registrar: rareRegistrar, Country: "Australia"},
		{Registrar: rareRegistrar, Country: "China"},
		{Country: "Germany", Year: 2005, HasYear: true},
		{Country: "Japan", Since: 2008},
		{Registrar: "Tucows Domains Inc.", Since: 2000, Country: "United Kingdom"},
		{Registrar: "PDR Ltd.", Country: "China", Year: 2012, HasYear: true, Since: 2011},
		{Registrar: "eNom", Year: 2008, YearTo: 2012, HasYear: true},
		{Country: "United States", Year: 2000, YearTo: 2010, HasYear: true, Since: 2005},
	}
}

// diffOne runs p through the planner and the brute-force reference and
// fails unless the matched record streams and the rendered surveys are
// byte-identical.
func diffOne(t *testing.T, e *Engine, p Pred) Stats {
	t.Helper()
	var got, want []string
	gotSv, wantSv := &survey.Survey{}, &survey.Survey{}
	stats, err := e.Scan(p, func(rec *store.Record) error {
		got = append(got, string(store.EncodeRecord(nil, rec)))
		gotSv.Add(rec.Facts)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan(%s): %v", p, err)
	}
	err = e.FullScan(p, func(rec *store.Record) error {
		want = append(want, string(store.EncodeRecord(nil, rec)))
		wantSv.Add(rec.Facts)
		return nil
	})
	if err != nil {
		t.Fatalf("FullScan(%s): %v", p, err)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("Scan(%s) diverged from full scan:\n planner %d rows\n reference %d rows", p, len(got), len(want))
	}
	if renderSurvey(gotSv) != renderSurvey(wantSv) {
		t.Fatalf("Scan(%s): surveys render differently", p)
	}
	if stats.Matched != uint64(len(got)) {
		t.Fatalf("Scan(%s): stats.Matched = %d, emitted %d", p, stats.Matched, len(got))
	}
	return stats
}

// TestQueryDifferential is the CI gate: every supported predicate over
// a multi-segment store, through both executors — byte-identical or
// fail. QUERYDIFF_N / QUERYDIFF_SEED widen the randomized corpus.
func TestQueryDifferential(t *testing.T) {
	n := int(envInt("QUERYDIFF_N", 900))
	seed := envInt("QUERYDIFF_SEED", 1)
	t.Logf("differential corpus: QUERYDIFF_N=%d QUERYDIFF_SEED=%d", n, seed)
	t.Run("plain", func(t *testing.T) {
		st := buildTestStore(t, t.TempDir(), n, seed)
		defer st.Close()
		e := New(st, Options{Metrics: obs.NewRegistry()})
		if _, err := e.BuildAll(); err != nil {
			t.Fatal(err)
		}
		seeked := 0
		for _, p := range differentialPreds() {
			stats := diffOne(t, e, p)
			seeked += stats.IndexSeeked
		}
		if seeked == 0 {
			t.Fatal("no predicate ever used the index — the differential exercised nothing")
		}
	})
	// Records with the raw text and parsed view a survey stores, some of
	// their frames above the seek's first read window: the posting seek
	// and the decoder on frames the size they are in production.
	t.Run("survey-shaped", func(t *testing.T) {
		st := buildShapedStore(t, t.TempDir(), n, seed, 64<<10, surveyShape(seed))
		defer st.Close()
		e := New(st, Options{Metrics: obs.NewRegistry()})
		if _, err := e.BuildAll(); err != nil {
			t.Fatal(err)
		}
		seeked, bigSeeked := 0, false
		for _, p := range differentialPreds() {
			stats := diffOne(t, e, p)
			seeked += stats.IndexSeeked
			if stats.IndexSeeked == 0 || bigSeeked {
				continue
			}
			e.Scan(p, func(rec *store.Record) error {
				bigSeeked = bigSeeked || len(store.EncodeRecord(nil, rec)) > seekWindow
				return nil
			})
		}
		if seeked == 0 || !bigSeeked {
			t.Fatalf("index seeks: %d segments, a frame above %d bytes among their matches: %v", seeked, seekWindow, bigSeeked)
		}
	})
}

// corruptions are the sidecar failure modes the planner must absorb:
// identical answers, degraded plan.
var corruptions = []struct {
	name  string
	wreck func(t *testing.T, dir string, id uint64)
}{
	{"old-version", func(t *testing.T, dir string, id uint64) {
		// Intact sidecars stamped with the previous format version, CRC
		// recomputed: only the version check can reject them.
		for _, path := range []string{ZonePath(dir, id), IndexPath(dir, id)} {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			body := data[:len(data)-4]
			body[4] = sidecarVersion - 1
			data = binary.LittleEndian.AppendUint32(body, crc32.Checksum(body, castagnoli))
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}},
	{"flipped-idx", func(t *testing.T, dir string, id uint64) {
		flipByte(t, IndexPath(dir, id), -20)
	}},
	{"flipped-zm", func(t *testing.T, dir string, id uint64) {
		flipByte(t, ZonePath(dir, id), 7)
	}},
	{"truncated-idx", func(t *testing.T, dir string, id uint64) {
		data, err := os.ReadFile(IndexPath(dir, id))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(IndexPath(dir, id), data[:len(data)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	}},
	{"missing", func(t *testing.T, dir string, id uint64) {
		if err := os.Remove(ZonePath(dir, id)); err != nil {
			t.Fatal(err)
		}
		if err := os.Remove(IndexPath(dir, id)); err != nil {
			t.Fatal(err)
		}
	}},
	{"stale-foreign", func(t *testing.T, dir string, id uint64) {
		// A sidecar copied from a different segment: valid envelope,
		// wrong identity.
		other := id + 1
		for _, cp := range [][2]string{
			{ZonePath(dir, other), ZonePath(dir, id)},
			{IndexPath(dir, other), IndexPath(dir, id)},
		} {
			data, err := os.ReadFile(cp[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cp[1], data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}},
}

func flipByte(t *testing.T, path string, pos int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if pos < 0 {
		pos = len(data) + pos
	}
	data[pos] ^= 0x5a
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestQueryDifferentialCorruptSidecars: a NoRebuild engine over wrecked
// sidecars must return exactly the full-scan answer and report the
// degradation in its stats — never a wrong row, never a crash. A
// default engine over the same wreckage then counts the sidecar invalid
// (unless it is merely missing), rebuilds it, and still answers
// byte-identically.
func TestQueryDifferentialCorruptSidecars(t *testing.T) {
	n := int(envInt("QUERYDIFF_N", 900))
	seed := envInt("QUERYDIFF_SEED", 1)
	t.Logf("differential corpus: QUERYDIFF_N=%d QUERYDIFF_SEED=%d", n, seed)
	for _, c := range corruptions {
		t.Run(c.name, func(t *testing.T) {
			st := buildTestStore(t, t.TempDir(), n, seed)
			defer st.Close()
			e := New(st, Options{NoRebuild: true, Metrics: obs.NewRegistry()})
			if _, err := e.BuildAll(); err != nil {
				t.Fatal(err)
			}
			infos := st.SegmentInfos()
			if len(infos) < 3 {
				t.Fatalf("need >= 3 segments, got %d", len(infos))
			}
			c.wreck(t, st.Dir(), infos[0].ID)

			fallbacks := 0
			for _, p := range differentialPreds() {
				stats := diffOne(t, e, p)
				fallbacks += stats.Fallbacks
				if stats.Rebuilt != 0 {
					t.Fatalf("NoRebuild engine rebuilt sidecars on %s", p)
				}
			}
			if fallbacks == 0 {
				t.Fatal("no fallback recorded — the corruption was never hit")
			}
			// NoRebuild must not have healed the wreckage behind our back.
			if c.name == "missing" {
				if _, err := os.Stat(ZonePath(st.Dir(), infos[0].ID)); !os.IsNotExist(err) {
					t.Fatal("NoRebuild engine recreated a sidecar")
				}
			}

			reg := obs.NewRegistry()
			e = New(st, Options{Metrics: reg})
			rebuilt := 0
			for _, p := range differentialPreds() {
				rebuilt += diffOne(t, e, p).Rebuilt
			}
			if rebuilt == 0 {
				t.Fatal("default engine never rebuilt the wrecked sidecar")
			}
			if invalid := reg.Counter("query.sidecar.invalid").Value(); (invalid == 0) != (c.name == "missing") {
				t.Fatalf("query.sidecar.invalid = %d after the %s wreck", invalid, c.name)
			}
			if _, err := LoadIndex(IndexPath(st.Dir(), infos[0].ID)); err != nil {
				t.Fatalf("index sidecar not healed: %v", err)
			}
			if _, err := LoadZoneMap(ZonePath(st.Dir(), infos[0].ID)); err != nil {
				t.Fatalf("zone map not healed: %v", err)
			}
		})
	}
}

// TestQueryRebuildsStaleSidecars: the default engine self-heals — a
// wrecked sidecar is rebuilt in-line and the files come back fresh.
func TestQueryRebuildsStaleSidecars(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 400, 3)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	infos := st.SegmentInfos()
	flipByte(t, IndexPath(st.Dir(), infos[0].ID), -15)

	p := Pred{Registrar: "eNom"}
	stats := diffOne(t, e, p)
	if stats.Rebuilt == 0 {
		t.Fatalf("expected an in-line rebuild, stats: %s", stats)
	}
	if _, err := LoadIndex(IndexPath(st.Dir(), infos[0].ID)); err != nil {
		t.Fatalf("sidecar not healed: %v", err)
	}
	// Second query runs entirely off the healed sidecars.
	stats = diffOne(t, e, p)
	if stats.Rebuilt != 0 || stats.Fallbacks != 0 {
		t.Fatalf("second query still degraded: %s", stats)
	}
}

// TestZoneMapPruning: a predicate matching one segment's worth of rows
// must skip (not scan) the segments that cannot hold it.
func TestZoneMapPruning(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 900, 2)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	stats := diffOne(t, e, Pred{Registrar: rareRegistrar})
	if stats.Pruned == 0 {
		t.Fatalf("selective predicate pruned nothing: %s", stats)
	}
	if stats.RecordsRead >= 900/2 {
		t.Fatalf("selective predicate read %d records", stats.RecordsRead)
	}
	// An impossible year prunes every sealed segment.
	stats = diffOne(t, e, Pred{Year: 1890, HasYear: true})
	if stats.Pruned < stats.Segments-2 {
		t.Fatalf("year=1890 should prune nearly all segments: %s", stats)
	}
}

// TestAutoBuild: the seal hook derives sidecars in the background as
// segments rotate.
func TestAutoBuild(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 4 << 10, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	e.AutoBuild()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 300; i++ {
		if err := st.Append(genRecord(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.SegmentInfos()
	if len(infos) < 2 {
		t.Fatal("no rotation happened")
	}
	// The hook runs in background goroutines; poll briefly.
	firstZM := ZonePath(dir, infos[0].ID)
	deadline := 200
	for ; deadline > 0; deadline-- {
		if _, err := os.Stat(firstZM); err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if deadline == 0 {
		t.Fatalf("sidecar %s never appeared", firstZM)
	}
	if _, err := LoadZoneMap(firstZM); err != nil {
		t.Fatalf("auto-built zone map invalid: %v", err)
	}
}

// TestAutoBuildJoinsOnClose: every goroutine AutoBuild's seal hook
// starts is joined by the store's Close — each sealed segment's sidecars
// exist when Close returns, and the goroutine count returns to its value
// before Open.
func TestAutoBuildJoinsOnClose(t *testing.T) {
	before := runtime.NumGoroutine()
	st, err := store.Open(t.TempDir(), store.Options{SegmentBytes: 1 << 10, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	e := New(st, Options{Metrics: obs.NewRegistry()})
	e.AutoBuild()
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		if err := st.Append(genRecord(i, rng)); err != nil {
			t.Fatal(err)
		}
	}
	infos := st.SegmentInfos()
	if len(infos) < 4 {
		t.Fatalf("only %d segments; want several sealed ones", len(infos))
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	// Joined, not merely finished later: every sealed segment's sidecars
	// are on disk the moment Close returns.
	for _, info := range infos[:len(infos)-1] {
		if _, err := LoadIndex(IndexPath(st.Dir(), info.ID)); err != nil {
			t.Fatalf("segment %d: %v", info.ID, err)
		}
	}
	leakcheck.Goroutines(t, before)
}

// TestEngineSurvey: the survey built from a predicate equals the survey
// of the brute-force matches.
func TestEngineSurvey(t *testing.T) {
	st := buildTestStore(t, t.TempDir(), 600, 7)
	defer st.Close()
	e := New(st, Options{Metrics: obs.NewRegistry()})
	if _, err := e.BuildAll(); err != nil {
		t.Fatal(err)
	}
	p := Pred{Since: 2005}
	sv, stats, err := e.Survey(p)
	if err != nil {
		t.Fatal(err)
	}
	want := &survey.Survey{}
	if err := e.FullScan(p, func(rec *store.Record) error {
		want.Add(rec.Facts)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sv.Len() != want.Len() || renderSurvey(sv) != renderSurvey(want) {
		t.Fatalf("Survey diverged: %d vs %d rows (stats %s)", sv.Len(), want.Len(), stats)
	}
}

// TestSidecarRoundTrip: the codecs are exact mirrors.
func TestSidecarRoundTrip(t *testing.T) {
	z := &ZoneMap{
		SegID: 7, Fingerprint: 0xdeadbeef, Records: 123,
		MinYear: 1998, MaxYear: 2015, YearZero: true,
		Registrars: []string{"", "a", "b"}, Countries: []string{"China", "United States"},
		CountryOverflow: true,
	}
	z2, err := decodeZoneMap(encodeZoneMap(z))
	if err != nil {
		t.Fatal(err)
	}
	if z2.SegID != z.SegID || z2.Fingerprint != z.Fingerprint || z2.Records != z.Records ||
		z2.MinYear != z.MinYear || z2.MaxYear != z.MaxYear || z2.YearZero != z.YearZero ||
		!z2.CountryOverflow || z2.RegOverflow ||
		strings.Join(z2.Registrars, "|") != "|a|b" || strings.Join(z2.Countries, "|") != "China|United States" {
		t.Fatalf("zone map round trip: %+v", z2)
	}

	x := &Index{
		SegID: 7, Fingerprint: 0xdeadbeef, Records: 123,
		Registrar: map[string][]Posting{
			"":     {5},
			"eNom": {61, 900},
		},
		Country: map[string][]Posting{"China": {5, 61, 900}},
		Year:    nil, // overflowed section survives as nil
	}
	x2, err := decodeIndex(encodeIndex(x))
	if err != nil {
		t.Fatal(err)
	}
	if x2.Year != nil {
		t.Fatal("overflowed year section decoded non-nil")
	}
	if len(x2.Registrar) != 2 || len(x2.Registrar["eNom"]) != 2 || x2.Registrar["eNom"][1] != 900 {
		t.Fatalf("index round trip: %+v", x2.Registrar)
	}
	if len(x2.Country["China"]) != 3 || x2.Country["China"][1] != 61 {
		t.Fatalf("index round trip: %+v", x2.Country)
	}
}

func TestIntersectPostings(t *testing.T) {
	a := []Posting{5, 61, 90, 200}
	b := []Posting{61, 90, 95, 201}
	got := intersectPostings(a, b)
	want := []Posting{61, 90}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("intersect = %v, want %v", got, want)
	}
	if out := intersectPostings(a, nil); len(out) != 0 {
		t.Fatalf("intersect with empty = %v", out)
	}
}
