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
	"unicode/utf8"
	"unsafe"
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
//
// A record's observations share two allocations. Every word observation
// is lowercased and suffixed straight into one byte arena and carved out
// of it as a string; every line's Obs is carved from one []string backing
// array, capped at its own length so that appending to a line copies it
// rather than overwriting the next line. Marker and class observations
// are the package constants.
func Tokenize(text string, opts Options) []Line {
	t := tokenizer{
		opts: opts,
		// Sized from the text: WHOIS records average one observation per
		// four bytes and a little more than one arena byte per text byte
		// (measured on the synth populations). A record outside those
		// ratios grows the buffer; strings already carved stay valid.
		obs:   make([]string, 0, len(text)/4+16),
		arena: make([]byte, 0, len(text)+len(text)/4),
	}
	out := make([]Line, 0, strings.Count(text, "\n")+1)
	pendingNL := false
	prevIndent := -1
	for rest, more := text, true; more; {
		var raw string
		raw, rest, more = strings.Cut(rest, "\n")
		raw = strings.TrimRight(raw, "\r")
		if !HasAlnum(raw) {
			pendingNL = true
			continue
		}
		start := len(t.obs)
		ln := t.line(raw)
		if !opts.DisableLayout {
			if pendingNL {
				t.obs = append(t.obs, MarkNL)
			}
			if len(out) == 0 {
				t.obs = append(t.obs, MarkBOL)
			}
			indent := leadingSpace(raw)
			if prevIndent >= 0 {
				if indent < prevIndent {
					t.obs = append(t.obs, MarkSHL)
				} else if indent > prevIndent {
					t.obs = append(t.obs, MarkSHR)
				}
			}
			prevIndent = indent
		}
		pendingNL = false
		ln.Obs = t.obs[start:len(t.obs):len(t.obs)]
		out = append(out, ln)
	}
	if len(out) > 0 && !opts.DisableLayout {
		// The last line's observations end the backing array, so the
		// EOL marker extends them in place.
		last := &out[len(out)-1]
		start := len(t.obs) - len(last.Obs)
		t.obs = append(t.obs, MarkEOL)
		last.Obs = t.obs[start:len(t.obs):len(t.obs)]
	}
	return out
}

// tokenizer holds one record's observation storage while Tokenize runs.
type tokenizer struct {
	opts Options
	// obs is the backing array every line's Obs is carved from.
	obs []string
	// arena holds the bytes of every word observation back to back.
	// Bytes are only ever appended, never rewritten, so a string carved
	// from it stays immutable even after a later append moves the
	// buffer.
	arena []byte
}

// line splits one retained line and appends its separator, symbol, word
// and class observations to t.obs; Tokenize adds the markers that depend
// on neighbouring lines.
func (t *tokenizer) line(raw string) Line {
	trimmed := strings.TrimSpace(raw)
	title, value, hasSep := SplitTitleValue(trimmed)
	if !t.opts.DisableLayout {
		if hasSep {
			t.obs = append(t.obs, MarkSEP)
			if value == "" {
				t.obs = append(t.obs, MarkNoV)
			}
		}
		if startsWithSymbol(trimmed) {
			t.obs = append(t.obs, MarkSYM)
		}
	}
	// Without a separator the title is empty and the value is the whole
	// trimmed line, so every word is a value word.
	t.words(title, "@T")
	t.words(value, "@V")
	if !t.opts.DisableClasses {
		t.classes(value)
	}
	return Line{Raw: raw, Title: title, Value: value, HasSep: hasSep}
}

// words appends one observation per word of s: the word lowercased as
// strings.ToLower would, then suffix unless title/value annotation is
// disabled. A word is a maximal run of letters and digits.
func (t *tokenizer) words(s, suffix string) {
	if t.opts.DisableTitleValue {
		suffix = ""
	}
	for i := 0; i < len(s); {
		if w, ok := wordRune(s[i:]); !ok {
			i += w
			continue
		}
		start := len(t.arena)
		for i < len(s) {
			if c := s[i]; c < utf8.RuneSelf {
				if !isASCIIAlnum(c) {
					break
				}
				j := i + 1
				for j < len(s) && s[j] < utf8.RuneSelf && isASCIIAlnum(s[j]) {
					j++
				}
				k := len(t.arena)
				t.arena = append(t.arena, s[i:j]...)
				lowerASCII(t.arena[k:])
				i = j
				continue
			}
			r, n := utf8.DecodeRuneInString(s[i:])
			if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
				break
			}
			t.arena = utf8.AppendRune(t.arena, unicode.ToLower(r))
			i += n
		}
		t.arena = append(t.arena, suffix...)
		t.obs = append(t.obs, unsafe.String(&t.arena[start], len(t.arena)-start))
	}
}

// classes appends the word-class observations of a line's value side,
// each at most once, in the order their first field is seen.
func (t *tokenizer) classes(value string) {
	start := len(t.obs)
	add := func(c string) {
		for _, x := range t.obs[start:] {
			if x == c {
				return
			}
		}
		t.obs = append(t.obs, c)
	}
	for i := 0; i < len(value); {
		if isFieldSep(value[i]) {
			i++
			continue
		}
		j := i
		for j < len(value) && !isFieldSep(value[j]) {
			j++
		}
		f := strings.Trim(value[i:j], "()[]")
		i = j
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
}

// isFieldSep reports whether c separates the fields classes inspects.
func isFieldSep(c byte) bool { return c == ' ' || c == ',' || c == ';' }

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

// CountWords reports how many word observations Tokenize emits for
// text, without emitting them — the form for callers (the compiled
// template matcher, the header heuristics of the baseline parsers) that
// only need the count.
func CountWords(text string) int {
	n := 0
	in := false
	for i := 0; i < len(text); {
		w, ok := wordRune(text[i:])
		if ok && !in {
			n++
		}
		in = ok
		i += w
	}
	return n
}

// HasAlnum reports whether s contains at least one letter or digit —
// the retention test Tokenize applies per line. Exported so alternate
// line iterators (the compiled template matcher) retain exactly the
// lines Tokenize would.
func HasAlnum(s string) bool {
	for i := 0; i < len(s); {
		w, ok := wordRune(s[i:])
		if ok {
			return true
		}
		i += w
	}
	return false
}

// wordRune decodes the first rune of a non-empty s and reports its width
// and whether it is a letter or digit, the runes words are made of.
// Invalid UTF-8 decodes as a one-byte U+FFFD, which is neither.
func wordRune(s string) (width int, ok bool) {
	if c := s[0]; c < utf8.RuneSelf {
		return 1, isASCIIAlnum(c)
	}
	r, w := utf8.DecodeRuneInString(s)
	return w, unicode.IsLetter(r) || unicode.IsDigit(r)
}

// lowerASCII lowers the ASCII letters of b in place.
func lowerASCII(b []byte) {
	for i, c := range b {
		if 'A' <= c && c <= 'Z' {
			b[i] = c + 'a' - 'A'
		}
	}
}

// isASCIIAlnum is unicode.IsLetter || unicode.IsDigit on an ASCII byte.
func isASCIIAlnum(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c|0x20 && c|0x20 <= 'z'
}

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

// looksURL accepts strings that start with http://, https:// or www.,
// in any letter case.
func looksURL(s string) bool {
	return hasLowerPrefix(s, "http://") || hasLowerPrefix(s, "https://") || hasLowerPrefix(s, "www.")
}

// hasLowerPrefix reports strings.HasPrefix(strings.ToLower(s), prefix)
// for an ASCII prefix, without building the lowered string.
func hasLowerPrefix(s, prefix string) bool {
	for k := 0; k < len(prefix); k++ {
		if s == "" {
			return false
		}
		r, w := lowerRune(s)
		if r != rune(prefix[k]) {
			return false
		}
		s = s[w:]
	}
	return true
}

// lowerRune decodes the first rune of a non-empty s and lowers it as
// strings.ToLower does. Invalid UTF-8 decodes as a one-byte U+FFFD.
func lowerRune(s string) (r rune, width int) {
	if c := s[0]; c < utf8.RuneSelf {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		return rune(c), 1
	}
	r, width = utf8.DecodeRuneInString(s)
	return unicode.ToLower(r), width
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
// 2015/02/27, 02/27/2015, and ISO timestamps. Runes are judged after
// lowering, so the two non-ASCII runes that lower to ASCII letters
// (U+0130 to 'i', U+212A to 'k') count as letters.
func looksDate(s string) bool {
	seps, digits, letters, dashes := 0, 0, 0, 0
	sawT := false
	for len(s) > 0 {
		r, w := lowerRune(s)
		if r == 't' && !sawT {
			sawT = true
			if digits+seps+letters > 0 && dashes == 2 {
				break // 2015-02-27t12:00:00z: judge the date part alone
			}
		}
		s = s[w:]
		switch {
		case r >= '0' && r <= '9':
			digits++
		case r == '-' || r == '/' || r == '.':
			seps++
			if r == '-' {
				dashes++
			}
		case r >= 'a' && r <= 'z':
			letters++
		default:
			return false
		}
		if seps > 2 || letters > 3 {
			return false
		}
	}
	return seps == 2 && digits >= 4 && (letters == 0 || letters == 3) // e.g. feb
}

// looksIP accepts dotted-quad IPv4 literals: four runs of one to three
// digits joined by three dots.
func looksIP(s string) bool {
	dots, run := 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c == '.':
			if run == 0 {
				return false
			}
			dots++
			run = 0
		case c >= '0' && c <= '9':
			run++
			if run > 3 {
				return false
			}
		default:
			return false
		}
	}
	return dots == 3 && run > 0
}
