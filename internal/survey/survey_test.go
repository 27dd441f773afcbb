package survey

import (
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/leakcheck"
)

func TestParseDateFormats(t *testing.T) {
	cases := map[string]int{
		"2015-02-27T10:00:00Z":         2015,
		"2014-06-01":                   2014,
		"27-Feb-2013":                  2013,
		"2012/03/04":                   2012,
		"04.03.2011":                   2011,
		"2010.03.04":                   2010,
		"Mon Jan 06 15:04:05 GMT 2014": 2014,
		"Jan 02, 2009":                 2009,
		"January 2, 2008":              2008,
		"2 January 2007":               2007,
		"20060102":                     2006,
		"02-Jan-2005 15:04:05 UTC":     2005,
		"2004/01/02 15:04:05 (JST)":    2004,
	}
	for in, wantYear := range cases {
		got, ok := ParseDate(in)
		if !ok {
			t.Errorf("ParseDate(%q) failed", in)
			continue
		}
		if got.Year() != wantYear {
			t.Errorf("ParseDate(%q).Year() = %d, want %d", in, got.Year(), wantYear)
		}
	}
}

func TestParseDateFallbackYearScan(t *testing.T) {
	got, ok := ParseDate("registered sometime in 2003 we think")
	if !ok || got.Year() != 2003 {
		t.Errorf("fallback year scan got (%v, %v)", got, ok)
	}
	if _, ok := ParseDate("no year here"); ok {
		t.Error("parsed a date from yearless text")
	}
	if _, ok := ParseDate(""); ok {
		t.Error("parsed a date from empty text")
	}
	// Digits adjacent to a year-like run must not count.
	if _, ok := ParseDate("id 120140"); ok {
		t.Error("embedded digit run misread as year")
	}
}

func TestCanonicalCountry(t *testing.T) {
	cases := map[string]string{
		"US":            "United States",
		"us":            "United States",
		"United States": "United States",
		"USA":           "United States",
		"UK":            "United Kingdom",
		"GB":            "United Kingdom",
		"cn":            "China",
		" Japan ":       "Japan",
		"Korea":         "South Korea",
		"Atlantis":      "",
		"":              "",
	}
	for in, want := range cases {
		if got := CanonicalCountry(in); got != want {
			t.Errorf("CanonicalCountry(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsPrivacyProtected(t *testing.T) {
	yes := [][2]string{
		{"Domains By Proxy, LLC", ""},
		{"", "WhoisGuard, Inc."},
		{"Whois Privacy Protection Service", ""},
		{"FBO REGISTRANT", ""},
		{"Aliyun Computing Co., Ltd", ""},
	}
	for _, c := range yes {
		if !IsPrivacyProtected(c[0], c[1]) {
			t.Errorf("IsPrivacyProtected(%q, %q) = false", c[0], c[1])
		}
	}
	if IsPrivacyProtected("John Smith", "Acme Inc.") {
		t.Error("ordinary registrant flagged as privacy")
	}
}

func mkFacts() []Facts {
	return []Facts{
		{Domain: "a.com", Registrar: "GoDaddy", Country: "United States", CreatedYear: 2013},
		{Domain: "b.com", Registrar: "GoDaddy", Country: "United States", CreatedYear: 2014},
		{Domain: "c.com", Registrar: "eNom", Country: "China", CreatedYear: 2014},
		{Domain: "d.com", Registrar: "eNom", Country: "", CreatedYear: 2014},
		{Domain: "e.com", Registrar: "GoDaddy", CreatedYear: 2014, Privacy: true, PrivacySvc: "Domains By Proxy"},
		{Domain: "f.com", Registrar: "eNom", Country: "Japan", CreatedYear: 2014, Blacklisted: true},
		{Domain: "g.com", Registrar: "GMO", Country: "Japan", CreatedYear: 2012},
	}
}

func TestTable3ExcludesPrivacyCountsUnknown(t *testing.T) {
	s := New(mkFacts())
	all, y2014 := s.Table3()
	// 6 non-privacy facts total.
	if total := all[len(all)-1]; total.Key != "Total" || total.Count != 6 {
		t.Errorf("all-time total row: %+v", total)
	}
	foundUnknown := false
	for _, r := range all {
		if r.Key == "(Unknown)" {
			foundUnknown = true
			if r.Count != 1 {
				t.Errorf("unknown count %d", r.Count)
			}
		}
		if r.Key == "Domains By Proxy" {
			t.Error("privacy service leaked into country table")
		}
	}
	if !foundUnknown {
		t.Error("no (Unknown) row")
	}
	if y2014[0].Key != "United States" && y2014[0].Key != "China" && y2014[0].Key != "Japan" {
		t.Errorf("2014 head row: %+v", y2014[0])
	}
}

func TestTable5CountsAllRecords(t *testing.T) {
	s := New(mkFacts())
	all, _ := s.Table5()
	var goDaddy int
	for _, r := range all {
		if r.Key == "GoDaddy" {
			goDaddy = r.Count
		}
	}
	if goDaddy != 3 {
		t.Errorf("GoDaddy count %d, want 3 (privacy records still count)", goDaddy)
	}
}

func TestTables6And7(t *testing.T) {
	s := New(mkFacts())
	t6 := s.Table6()
	if t6[0].Key != "GoDaddy" || t6[0].Count != 1 {
		t.Errorf("table 6 head: %+v", t6[0])
	}
	t7 := s.Table7()
	if t7[0].Key != "Domains By Proxy" {
		t.Errorf("table 7 head: %+v", t7[0])
	}
}

func TestTables8And9(t *testing.T) {
	s := New(mkFacts())
	t8 := s.Table8()
	if t8[0].Key != "Japan" || t8[0].Count != 1 {
		t.Errorf("table 8: %+v", t8)
	}
	t9 := s.Table9()
	if t9[0].Key != "eNom" {
		t.Errorf("table 9: %+v", t9)
	}
}

func TestFigure4a(t *testing.T) {
	s := New(mkFacts())
	hist := s.Figure4a()
	if len(hist) == 0 {
		t.Fatal("empty histogram")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i].Year <= hist[i-1].Year {
			t.Error("years not sorted")
		}
	}
	var y2014 int
	for _, yc := range hist {
		if yc.Year == 2014 {
			y2014 = yc.Count
		}
	}
	if y2014 != 5 {
		t.Errorf("2014 count %d, want 5", y2014)
	}
}

func TestFigure4bProportionsSumToOne(t *testing.T) {
	s := New(mkFacts())
	for _, mix := range s.Figure4b(2000) {
		var sum float64
		for _, p := range mix.Parts {
			sum += p
		}
		if sum < 0.999 || sum > 1.001 {
			t.Errorf("year %d proportions sum to %v", mix.Year, sum)
		}
	}
}

func TestFigure5(t *testing.T) {
	s := New(mkFacts())
	mixes := s.Figure5([]string{"eNom", "GMO"})
	if len(mixes) != 2 {
		t.Fatalf("got %d mixes", len(mixes))
	}
	// eNom has CN, JP and one unknown ("[]"); privacy excluded.
	if len(mixes[0].Top) != 3 {
		t.Errorf("eNom top: %+v", mixes[0].Top)
	}
	sawBracket := false
	for _, r := range mixes[0].Top {
		if r.Key == "[]" {
			sawBracket = true
		}
	}
	if !sawBracket {
		t.Error("unknown country should render as [] (Figure 5)")
	}
}

func TestRankFoldsOther(t *testing.T) {
	counts := map[string]int{"a": 10, "b": 8, "c": 3, "d": 2, "": 1}
	rows := rank(counts, 2, "(Unknown)")
	// a, b, (Other)=5, (Unknown)=1, Total=24
	if len(rows) != 5 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[2].Key != "(Other)" || rows[2].Count != 5 {
		t.Errorf("other row: %+v", rows[2])
	}
	if rows[3].Key != "(Unknown)" || rows[3].Count != 1 {
		t.Errorf("unknown row: %+v", rows[3])
	}
	if rows[4].Key != "Total" || rows[4].Count != 24 {
		t.Errorf("total row: %+v", rows[4])
	}
	var pct float64
	for _, r := range rows[:4] {
		pct += r.Pct
	}
	if pct < 99.9 || pct > 100.1 {
		t.Errorf("percentages sum to %v", pct)
	}
}

func TestFactsFrom(t *testing.T) {
	pr := &core.ParsedRecord{
		DomainName:  "x.com",
		Registrar:   "GoDaddy",
		CreatedDate: "2013-05-06",
		Registrant: core.Contact{
			Name:    "Domains By Proxy, LLC",
			Org:     "Domains By Proxy, LLC",
			Country: "US",
		},
	}
	f := FactsFrom(pr, true)
	if !f.Privacy || f.PrivacySvc == "" {
		t.Errorf("privacy not detected: %+v", f)
	}
	if f.CreatedYear != 2013 {
		t.Errorf("year %d", f.CreatedYear)
	}
	if f.Country != "United States" {
		t.Errorf("country %q", f.Country)
	}
	if !f.Blacklisted {
		t.Error("blacklist bit lost")
	}
}

func TestRenderRows(t *testing.T) {
	out := RenderRows("Title", []Row{{Key: "US", Count: 10, Pct: 50}, {Key: "Total", Count: 20, Pct: 100}})
	if !strings.Contains(out, "Title") || !strings.Contains(out, "US") {
		t.Errorf("render: %q", out)
	}
	if !strings.Contains(out, "50.0") {
		t.Errorf("percent missing: %q", out)
	}
}

func TestRenderHistogram(t *testing.T) {
	out := RenderHistogram("H", []YearCount{{2013, 5}, {2014, 10}})
	if !strings.Contains(out, "2014") || !strings.Contains(out, "##") {
		t.Errorf("histogram: %q", out)
	}
}

func TestParseDateTimeSanity(t *testing.T) {
	// The layouts must parse to the exact day, not just the year.
	got, ok := ParseDate("27-Feb-2013")
	if !ok || !got.Equal(time.Date(2013, 2, 27, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("got %v", got)
	}
}

func TestFigure5AbsentRegistrar(t *testing.T) {
	s := New(mkFacts())
	mixes := s.Figure5([]string{"NoSuchRegistrar"})
	if len(mixes) != 1 || len(mixes[0].Top) != 0 {
		t.Errorf("absent registrar mix: %+v", mixes)
	}
}

func TestTable4IgnoresUnknownOrgs(t *testing.T) {
	s := New([]Facts{{Org: "Some Random LLC"}, {Org: "Amazon Technologies, Inc."}})
	rows := s.Table4([]string{"Amazon Technologies, Inc."})
	if len(rows) != 1 || rows[0].Count != 1 {
		t.Errorf("table4: %+v", rows)
	}
}

func TestFigure4bSkipsUnparseableYears(t *testing.T) {
	s := New([]Facts{{Country: "Japan", CreatedYear: 0}, {Country: "Japan", CreatedYear: 2010}})
	mixes := s.Figure4b(1995)
	if len(mixes) != 1 || mixes[0].Year != 2010 {
		t.Errorf("mixes: %+v", mixes)
	}
}

func TestTopOrgs(t *testing.T) {
	s := New([]Facts{
		{Org: "BuyDomains.com"}, {Org: "BuyDomains.com"}, {Org: "BuyDomains.com"},
		{Org: "Acme"}, {Org: "Acme"},
		{Org: "Solo"},
		{Org: "Hidden", Privacy: true}, // privacy records excluded
		{Org: ""},                      // empty orgs excluded
	})
	rows := s.TopOrgs(2)
	if len(rows) != 2 {
		t.Fatalf("rows: %+v", rows)
	}
	if rows[0].Key != "BuyDomains.com" || rows[0].Count != 3 {
		t.Errorf("top org: %+v", rows[0])
	}
	if rows[1].Key != "Acme" || rows[1].Count != 2 {
		t.Errorf("second org: %+v", rows[1])
	}
}

// TestAddDoesNotPinFacts: the survey keys its counts by its own copies
// of a fact's strings, so a fact sliced out of a large buffer (a decoded
// store record) does not keep that buffer alive for the survey's
// lifetime.
func TestAddDoesNotPinFacts(t *testing.T) {
	s := &Survey{}
	for i := 0; i < 3; i++ { // repeats count through existing keys
		buf := strings.Repeat("x", 4096) + "Example Registrar, Inc.|Germany|Example GmbH|WhoisGuard"
		parts := strings.Split(buf[4096:], "|") // slices of buf
		f := Facts{
			Domain:      "example.de",
			Registrar:   parts[0],
			Country:     parts[1],
			Org:         parts[2],
			PrivacySvc:  parts[3],
			CreatedYear: 2014,
			Privacy:     i == 2,
			Blacklisted: true,
		}
		freed := leakcheck.Collectable(buf)
		s.Add(f)
		buf, parts, f = "", nil, Facts{}
		if !freed() {
			t.Fatalf("add %d: the survey keeps the buffer its facts were sliced from", i)
		}
	}
	if rows, _ := s.Table5(); rows[0].Key != "Example Registrar, Inc." || rows[0].Count != 3 {
		t.Fatalf("Table5 = %+v, want the registrar counted 3 times", rows)
	}
}
