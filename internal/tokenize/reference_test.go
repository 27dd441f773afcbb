package tokenize

// The tokenizer as it was before observations moved into a per-record
// arena: one string allocation per word, strings.Split over the record,
// strings.FieldsFunc over each value. It is kept here, unchanged apart
// from its names, as the differential oracle the arena tokenizer must
// match byte for byte (FuzzTokenizeMatchesReference,
// TestTokenizeMatchesReferenceSynth, BenchmarkTokenizeReference).

import (
	"strings"
	"unicode"
)

// referenceTokenize splits text into retained lines with observations
// attached.
func referenceTokenize(text string, opts Options) []Line {
	rawLines := strings.Split(text, "\n")
	out := make([]Line, 0, len(rawLines))
	pendingNL := false
	prevIndent := -1
	for _, raw := range rawLines {
		raw = strings.TrimRight(raw, "\r")
		if !containsAlnum(raw) {
			pendingNL = true
			continue
		}
		ln := referenceBuildLine(raw, opts)
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

func referenceBuildLine(raw string, opts Options) Line {
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
		for _, w := range referenceWords(text) {
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
		ln.Obs = append(ln.Obs, referenceClasses(value)...)
	}
	return ln
}

// referenceWords splits text into lowercased alphanumeric words.
// Punctuation is discarded; words keep interior digits (so "2015" and
// "ns1" survive).
func referenceWords(text string) []string {
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

// referenceClasses inspects the value side of a line and emits
// word-class observations.
func referenceClasses(value string) []string {
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
		case referenceIsFiveDigit(f):
			add(Cls5Digit)
			add(ClsNum)
		case referenceIsAllDigits(f):
			add(ClsNum)
			if len(f) == 4 && (strings.HasPrefix(f, "19") || strings.HasPrefix(f, "20")) {
				add(ClsYear)
			}
		case referenceLooksEmail(f):
			add(ClsEmail)
		case referenceLooksURL(f):
			add(ClsURL)
		// Order matters among the digit-heavy classes: a date like
		// 2015-02-27 and a dotted quad both pass the loose phone test.
		case referenceLooksDate(f):
			add(ClsDate)
		case referenceLooksIP(f):
			add(ClsIP)
		case referenceLooksPhone(f):
			add(ClsPhone)
		case len(f) >= 2 && referenceIsAllUpper(f):
			add(ClsCaps)
		}
	}
	return out
}

func referenceLooksURL(s string) bool {
	ls := strings.ToLower(s)
	return strings.HasPrefix(ls, "http://") || strings.HasPrefix(ls, "https://") || strings.HasPrefix(ls, "www.")
}

// referenceLooksDate accepts common WHOIS date shapes: 2015-02-27,
// 27-feb-2015, 2015/02/27, 02/27/2015, and ISO timestamps.
func referenceLooksDate(s string) bool {
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

// referenceLooksIP accepts dotted-quad IPv4 literals.
func referenceLooksIP(s string) bool {
	parts := strings.Split(s, ".")
	if len(parts) != 4 {
		return false
	}
	for _, p := range parts {
		if !referenceIsAllDigits(p) || len(p) > 3 {
			return false
		}
	}
	return true
}

func referenceIsFiveDigit(s string) bool { return len(s) == 5 && referenceIsAllDigits(s) }

func referenceIsAllDigits(s string) bool {
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

func referenceIsAllUpper(s string) bool {
	for _, r := range s {
		if !unicode.IsUpper(r) {
			return false
		}
	}
	return len(s) > 0
}

func referenceLooksEmail(s string) bool {
	at := strings.IndexByte(s, '@')
	return at > 0 && at < len(s)-1 && strings.Contains(s[at:], ".")
}

// referenceLooksPhone accepts digit strings with separators and an optional leading
// '+', requiring at least 7 digits total.
func referenceLooksPhone(s string) bool {
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
