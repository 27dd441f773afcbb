// Package tokenize turns raw WHOIS record text into the per-line observation
// sequences consumed by the CRF and baseline parsers.
//
// Following §3 of the paper, a record is chunked into its non-empty lines;
// each line becomes one token whose observations encode:
//
//   - every word, suffixed with "@T" when it appears to the left of the
//     first separator (the field *title*) and "@V" when it appears to the
//     right (the field *value*); lines without a separator are all "@V";
//   - layout markers: "NL" when the line is preceded by one or more blank
//     lines, "SHL"/"SHR" when the indentation shifts left or right relative
//     to the previous line, "SYM" when the line starts with a symbol such
//     as '#' or '%', and "SEP" when a separator is present;
//   - word classes such as "CLS:5DIGIT" (a five-digit number, predictive of
//     postcodes), "CLS:EMAIL", "CLS:PHONE", "CLS:YEAR", "CLS:DATE",
//     "CLS:URL" and "CLS:NUM".
//
// Lines that are empty or contain no alphanumeric characters receive no
// label in the paper's setup; Tokenize therefore drops them, while folding
// their layout signal (the NL marker) into the next retained line.
package tokenize

import (
	"strings"
	"unicode"
)

// Marker observation strings shared with the feature templates.
const (
	MarkNL  = "NL"     // preceded by one or more blank/contentless lines
	MarkSHL = "SHL"    // indentation shifted left vs. previous line
	MarkSHR = "SHR"    // indentation shifted right vs. previous line
	MarkSYM = "SYM"    // line begins with a non-alphanumeric symbol
	MarkSEP = "SEP"    // line contains a title/value separator
	MarkNoV = "NOVAL"  // separator present but value side empty
	MarkBOL = "BOL"    // first retained line of the record
	MarkEOL = "LASTLN" // last retained line of the record
)

// Word-class observation strings.
const (
	Cls5Digit = "CLS:5DIGIT"
	ClsEmail  = "CLS:EMAIL"
	ClsPhone  = "CLS:PHONE"
	ClsYear   = "CLS:YEAR"
	ClsDate   = "CLS:DATE"
	ClsURL    = "CLS:URL"
	ClsNum    = "CLS:NUM"
	ClsIP     = "CLS:IP"
	ClsCaps   = "CLS:ALLCAPS"
)

// Options selects which observation families Tokenize emits. The zero value
// enables everything; the Disable fields exist for the ablation benchmarks.
type Options struct {
	// DisableTitleValue drops the @T/@V suffix: every word is emitted bare.
	DisableTitleValue bool
	// DisableLayout drops NL/SHL/SHR/SYM/SEP/BOL markers.
	DisableLayout bool
	// DisableClasses drops CLS:* word-class observations.
	DisableClasses bool
}

// Line is one retained (labelable) line of a WHOIS record.
type Line struct {
	// Raw is the original text of the line, untrimmed.
	Raw string
	// Title is the trimmed text left of the separator ("" if none).
	Title string
	// Value is the trimmed text right of the separator, or the whole
	// trimmed line when there is no separator.
	Value string
	// HasSep reports whether a title/value separator was found.
	HasSep bool
	// Obs holds the observation strings for feature extraction.
	Obs []string
}

// Tokenize splits text into retained lines with observations attached.
func Tokenize(text string, opts Options) []Line {
	rawLines := strings.Split(text, "\n")
	out := make([]Line, 0, len(rawLines))
	pendingNL := false
	prevIndent := -1
	for _, raw := range rawLines {
		raw = strings.TrimRight(raw, "\r")
		if !hasAlnum(raw) {
			pendingNL = true
			continue
		}
		ln := buildLine(raw, opts)
		if !opts.DisableLayout {
			if pendingNL {
				ln.Obs = append(ln.Obs, MarkNL)
			}
			if len(out) == 0 {
				ln.Obs = append(ln.Obs, MarkBOL)
			}
			indent := leadingSpace(raw)
			if prevIndent >= 0 {
				if indent < prevIndent {
					ln.Obs = append(ln.Obs, MarkSHL)
				} else if indent > prevIndent {
					ln.Obs = append(ln.Obs, MarkSHR)
				}
			}
			prevIndent = indent
		}
		pendingNL = false
		out = append(out, ln)
	}
	if len(out) > 0 {
		last := &out[len(out)-1]
		if !opts.DisableLayout {
			last.Obs = append(last.Obs, MarkEOL)
		}
	}
	return out
}

func buildLine(raw string, opts Options) Line {
	trimmed := strings.TrimSpace(raw)
	title, value, hasSep := SplitTitleValue(trimmed)
	ln := Line{Raw: raw, Title: title, Value: value, HasSep: hasSep}
	// Most lines produce a handful of word observations plus a few markers
	// and classes; one right-sized allocation beats append's doubling.
	ln.Obs = make([]string, 0, 16)

	if !opts.DisableLayout {
		if hasSep {
			ln.Obs = append(ln.Obs, MarkSEP)
			if value == "" {
				ln.Obs = append(ln.Obs, MarkNoV)
			}
		}
		if startsWithSymbol(trimmed) {
			ln.Obs = append(ln.Obs, MarkSYM)
		}
	}

	appendWords := func(text, suffix string) {
		for _, w := range Words(text) {
			if opts.DisableTitleValue {
				ln.Obs = append(ln.Obs, w)
			} else {
				ln.Obs = append(ln.Obs, w+suffix)
			}
		}
	}
	appendWords(title, "@T")
	if hasSep {
		appendWords(value, "@V")
	} else {
		appendWords(trimmed, "@V")
	}

	if !opts.DisableClasses {
		ln.Obs = append(ln.Obs, classes(value)...)
	}
	return ln
}

// Resplit re-derives every line's Title, Value and HasSep from its Raw
// text, exactly as Tokenize does. The record codec (internal/store)
// keeps only Raw, so a decoded record that is served again — a
// forwarded cluster answer, a warm-start preload — is resplit first.
func Resplit(lines []Line) {
	for i := range lines {
		ln := &lines[i]
		ln.Title, ln.Value, ln.HasSep = SplitTitleValue(strings.TrimSpace(ln.Raw))
	}
}

// SplitTitleValue finds the first separator in a trimmed line and splits it
// into a title and value. Separators, per §3.3 and §4.2 of the paper, are
// colons, tabs, and ellipses (runs of two or more dots); a colon that is
// part of a URL scheme ("http://", "https://") is not a separator. The
// bracketed-title convention of Japanese registrars ("[Domain Name] X")
// is also recognized.
func SplitTitleValue(s string) (title, value string, ok bool) {
	if strings.HasPrefix(s, "[") {
		if end := strings.IndexByte(s, ']'); end > 1 {
			title = strings.TrimSpace(s[1:end])
			value = strings.TrimSpace(s[end+1:])
			if title != "" && value != "" {
				return title, value, true
			}
		}
	}
	idx, width := -1, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case ':':
			if isSchemeColon(s, i) {
				continue
			}
			idx, width = i, 1
		case '\t':
			idx, width = i, 1
		case '.':
			j := i
			for j < len(s) && s[j] == '.' {
				j++
			}
			if j-i >= 2 {
				idx, width = i, j-i
			} else {
				continue
			}
		default:
			continue
		}
		break
	}
	if idx < 0 {
		return "", strings.TrimSpace(s), false
	}
	// A separator at position 0 means there is no title; treat the line as
	// value-only (common for "> ..." decorations already filtered by SYM).
	title = strings.TrimSpace(s[:idx])
	value = strings.TrimSpace(s[idx+width:])
	// Aligned formats pad with dots and then add a colon
	// ("Registrar......: eNom"); drop the residual colon from the value.
	if strings.HasPrefix(value, ":") {
		value = strings.TrimSpace(value[1:])
	}
	if title == "" {
		return "", strings.TrimSpace(s), false
	}
	return title, value, true
}

func isSchemeColon(s string, i int) bool {
	if i+2 < len(s) && s[i+1] == '/' && s[i+2] == '/' {
		return true
	}
	return false
}

// Words splits text into lowercased alphanumeric words. Punctuation is
// discarded; words keep interior digits (so "2015" and "ns1" survive).
// Words are sliced out of text directly, so an already-lowercase word (the
// common case in WHOIS values) costs no allocation beyond the slice.
func Words(text string) []string {
	var out []string
	start := -1
	needLower := false
	flush := func(end int) {
		if start >= 0 {
			w := text[start:end]
			if needLower {
				w = strings.ToLower(w)
			}
			out = append(out, w)
			start = -1
			needLower = false
		}
	}
	for i, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
			if unicode.ToLower(r) != r {
				needLower = true
			}
		} else {
			flush(i)
		}
	}
	flush(len(text))
	return out
}

// CountWords reports how many words Words would return without
// allocating the slice — the hot-path form for callers (the compiled
// template matcher) that only need the count.
func CountWords(text string) int {
	n := 0
	in := false
	for _, r := range text {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if !in {
				n++
				in = true
			}
		} else {
			in = false
		}
	}
	return n
}

// HasAlnum reports whether s contains at least one letter or digit —
// the retention test Tokenize applies per line. Exported so alternate
// line iterators (the compiled template matcher) retain exactly the
// lines Tokenize would.
func HasAlnum(s string) bool {
	for _, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			return true
		}
	}
	return false
}

func hasAlnum(s string) bool { return HasAlnum(s) }

func leadingSpace(s string) int {
	n := 0
	for _, r := range s {
		switch r {
		case ' ':
			n++
		case '\t':
			n += 8
		default:
			return n
		}
	}
	return n
}

func startsWithSymbol(s string) bool {
	for _, r := range s {
		if unicode.IsSpace(r) {
			continue
		}
		switch r {
		case '#', '%', '*', '>', ';', '-', '[', '=':
			return true
		}
		return false
	}
	return false
}

// classes inspects the value side of a line and emits word-class
// observations.
func classes(value string) []string {
	var out []string
	add := func(c string) {
		for _, x := range out {
			if x == c {
				return
			}
		}
		out = append(out, c)
	}
	fields := strings.FieldsFunc(value, func(r rune) bool { return r == ' ' || r == ',' || r == ';' })
	for _, f := range fields {
		f = strings.Trim(f, "()[]")
		switch {
		case isFiveDigit(f):
			add(Cls5Digit)
			add(ClsNum)
		case isAllDigits(f):
			add(ClsNum)
			if len(f) == 4 && (strings.HasPrefix(f, "19") || strings.HasPrefix(f, "20")) {
				add(ClsYear)
			}
		case looksEmail(f):
			add(ClsEmail)
		case looksURL(f):
			add(ClsURL)
		// Order matters among the digit-heavy classes: a date like
		// 2015-02-27 and a dotted quad both pass the loose phone test.
		case looksDate(f):
			add(ClsDate)
		case looksIP(f):
			add(ClsIP)
		case looksPhone(f):
			add(ClsPhone)
		case len(f) >= 2 && isAllUpperLetters(f):
			add(ClsCaps)
		}
	}
	return out
}

func isFiveDigit(s string) bool { return len(s) == 5 && isAllDigits(s) }

func isAllDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < '0' || r > '9' {
			return false
		}
	}
	return true
}

func isAllUpperLetters(s string) bool {
	for _, r := range s {
		if !unicode.IsUpper(r) {
			return false
		}
	}
	return len(s) > 0
}

func looksEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	return at > 0 && at < len(s)-1 && strings.Contains(s[at:], ".")
}

func looksURL(s string) bool {
	ls := strings.ToLower(s)
	return strings.HasPrefix(ls, "http://") || strings.HasPrefix(ls, "https://") || strings.HasPrefix(ls, "www.")
}

// looksPhone accepts digit strings with separators and an optional leading
// '+', requiring at least 7 digits total.
func looksPhone(s string) bool {
	digits := 0
	for i, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '+' && i == 0:
		case r == '-' || r == '.' || r == '(' || r == ')' || r == ' ':
		default:
			return false
		}
	}
	return digits >= 7
}

// looksDate accepts common WHOIS date shapes: 2015-02-27, 27-feb-2015,
// 2015/02/27, 02/27/2015, and ISO timestamps.
func looksDate(s string) bool {
	s = strings.ToLower(s)
	if t := strings.IndexByte(s, 't'); t > 0 && strings.Count(s[:t], "-") == 2 {
		s = s[:t] // 2015-02-27t12:00:00z
	}
	seps := 0
	digits := 0
	letters := 0
	for _, r := range s {
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '-' || r == '/' || r == '.':
			seps++
		case r >= 'a' && r <= 'z':
			letters++
		default:
			return false
		}
	}
	if seps != 2 || digits < 4 {
		return false
	}
	return letters == 0 || letters == 3 // e.g. feb
}

// looksIP accepts dotted-quad IPv4 literals.
func looksIP(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if !isAllDigits(p) || len(p) > 3 {
			return false
		}
	}
	return true
}
