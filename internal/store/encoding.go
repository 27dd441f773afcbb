// Package store is the persistence layer under the crawl → parse →
// survey pipeline: an append-only, segmented record log holding parsed
// WHOIS records and their derived survey facts, plus a versioned artifact
// format for trained CRF models. The paper's §6 survey covers 102M .com
// registrations; at that scale neither the parsed corpus nor the trained
// parser can live only in process memory, and "WHOIS Right?" shows these
// corpora get re-collected and re-compared over time — so both must
// survive restarts, crashes, and partial crawls.
//
// On-disk layout (see DESIGN.md §5d for the full diagram):
//
//	dir/
//	  00000001.seg        sealed segment
//	  00000002.seg        sealed segment
//	  00000003.seg        active segment (append target)
//
// Every segment starts with an 8-byte header (magic "WSG1", one format
// version byte, three reserved zero bytes) followed by frames:
//
//	frame := uvarint(len(payload)) | payload | crc32c(payload) LE32
//
// The CRC is Castagnoli (CRC32C). A frame whose length varint is torn,
// whose payload is short, or whose CRC mismatches marks the end of the
// recoverable region: Open truncates a torn tail on the newest segment
// (a crash mid-append) and refuses corruption anywhere else.
//
// Only the active segment ever grows. A sealed segment is immutable: no
// code path rewrites, merges or removes one, so a reader's snapshot and
// a sidecar built from a sealed segment stay valid for the store's
// lifetime.
package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"unsafe"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/survey"
	"repro/internal/tokenize"
)

// Segment header.
var segMagic = [4]byte{'W', 'S', 'G', '1'}

const (
	segVersion   = 1
	segHeaderLen = 8

	// maxFramePayload bounds a single record frame. The decoder refuses
	// larger length prefixes before allocating, so a corrupt varint can
	// never cause a multi-gigabyte allocation.
	maxFramePayload = 16 << 20

	// frameCRCLen is the trailing checksum size.
	frameCRCLen = 4
)

// castagnoli is the CRC32C table shared by frames and model artifacts.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Decode errors. ErrTornFrame specifically means "the bytes end mid-frame"
// — recoverable when it is the tail of the newest segment, fatal anywhere
// else.
var (
	ErrTornFrame   = errors.New("store: torn frame")
	ErrBadChecksum = errors.New("store: frame checksum mismatch")
	ErrFrameTooBig = errors.New("store: frame exceeds size limit")
	ErrBadRecord   = errors.New("store: malformed record payload")
)

// Record is one persisted entry: a domain's parsed WHOIS record plus the
// survey facts derived from it. Text optionally carries the raw record
// (the serve warm-start path needs the exact query text to compute cache
// keys); Parsed is optional for thin-only crawls. Facts.Domain always
// mirrors Domain after decoding.
type Record struct {
	Domain string
	Text   string
	Parsed *core.ParsedRecord
	Facts  survey.Facts
}

// Payload flag bits. flagHasModelVersion and flagHasDomainMeta gate
// fields appended at the very end of the payload (in that order), so
// records written before either existed decode unchanged.
const (
	flagPrivacy         = 1 << 0
	flagBlacklisted     = 1 << 1
	flagHasParsed       = 1 << 2
	flagHasText         = 1 << 3
	flagHasModelVersion = 1 << 4
	// flagHasDomainMeta gates the parsed record's NameServers and
	// Statuses lists — the domain-block multi-values the consistency
	// engine compares against RDAP. Only ever set alongside
	// flagHasParsed.
	flagHasDomainMeta = 1 << 5
)

// recordKind tags the payload type, leaving room for future frame kinds
// (checkpoints, tombstones) without a format-version bump. The decoder
// refuses every other kind, and Open refuses a segment holding a frame of
// an unknown kind, on the newest segment as on a sealed one.
const recordKind = 1

// appendUvarint, appendString: little encoding helpers over a shared buf.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendRecord encodes rec into buf (reusing its capacity) and returns
// the payload. The layout is positional — see decodeRecord, its exact
// mirror.
func appendRecord(buf []byte, rec *Record) []byte {
	buf = append(buf, recordKind)
	var flags byte
	if rec.Facts.Privacy {
		flags |= flagPrivacy
	}
	if rec.Facts.Blacklisted {
		flags |= flagBlacklisted
	}
	if rec.Parsed != nil {
		flags |= flagHasParsed
	}
	if rec.Text != "" {
		flags |= flagHasText
	}
	modelVersion := rec.Facts.ModelVersion
	if modelVersion == "" && rec.Parsed != nil {
		modelVersion = rec.Parsed.ModelVersion
	}
	if modelVersion != "" {
		flags |= flagHasModelVersion
	}
	if rec.Parsed != nil && (len(rec.Parsed.NameServers) > 0 || len(rec.Parsed.Statuses) > 0) {
		flags |= flagHasDomainMeta
	}
	buf = append(buf, flags)
	buf = appendString(buf, rec.Domain)
	buf = appendString(buf, rec.Facts.Registrar)
	buf = appendString(buf, rec.Facts.Country)
	buf = binary.AppendUvarint(buf, uint64(rec.Facts.CreatedYear))
	buf = appendString(buf, rec.Facts.PrivacySvc)
	buf = appendString(buf, rec.Facts.Org)
	if rec.Text != "" {
		buf = appendString(buf, rec.Text)
	}
	if pr := rec.Parsed; pr != nil {
		buf = appendString(buf, pr.Registrar)
		buf = appendString(buf, pr.RegistrarURL)
		buf = appendString(buf, pr.DomainName)
		buf = appendString(buf, pr.WhoisServer)
		buf = appendString(buf, pr.CreatedDate)
		buf = appendString(buf, pr.UpdatedDate)
		buf = appendString(buf, pr.ExpiresDate)
		buf = appendContact(buf, &pr.Registrant)
		buf = binary.AppendUvarint(buf, uint64(len(pr.Lines)))
		for i := range pr.Lines {
			buf = appendString(buf, pr.Lines[i].Raw)
			buf = append(buf, byte(pr.Blocks[i]), byte(pr.Fields[i]))
		}
	}
	if modelVersion != "" {
		buf = appendString(buf, modelVersion)
	}
	if flags&flagHasDomainMeta != 0 {
		buf = appendStrings(buf, rec.Parsed.NameServers)
		buf = appendStrings(buf, rec.Parsed.Statuses)
	}
	return buf
}

func appendStrings(buf []byte, ss []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(ss)))
	for _, s := range ss {
		buf = appendString(buf, s)
	}
	return buf
}

func appendContact(buf []byte, c *core.Contact) []byte {
	buf = appendString(buf, c.Name)
	buf = appendString(buf, c.ID)
	buf = appendString(buf, c.Org)
	buf = appendString(buf, c.Street)
	buf = appendString(buf, c.City)
	buf = appendString(buf, c.State)
	buf = appendString(buf, c.Postcode)
	buf = appendString(buf, c.Country)
	buf = appendString(buf, c.Phone)
	buf = appendString(buf, c.Fax)
	buf = appendString(buf, c.Email)
	return buf
}

// span is the payload range [lo, hi) of one encoded string.
type span struct{ lo, hi int }

// reader is a bounds-checked cursor over a payload. Every read method
// reports failure instead of panicking or reading past the slice — the
// decoder's fuzz target leans on this.
//
// Decoded strings are not copied one by one: own copies the payload,
// minus the raw text, into one immutable string once, and str slices
// every later string out of it.
type reader struct {
	b   []byte
	pos int
	bad bool

	s   string // the payload without its text span; see own
	cut int    // payload offset of the text span
	gap int    // length of the text span
}

func (r *reader) fail() { r.bad = true }

func (r *reader) byte() byte {
	if r.bad || r.pos >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *reader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.fail()
		return 0
	}
	r.pos += n
	return v
}

// span reads one length-prefixed string's range and steps past it.
func (r *reader) span() span {
	n := r.uvarint()
	if r.bad {
		return span{}
	}
	if n > uint64(len(r.b)-r.pos) {
		r.fail()
		return span{}
	}
	sp := span{r.pos, r.pos + int(n)}
	r.pos = sp.hi
	return sp
}

// own copies every payload byte outside text into one string, the
// backing of every string at and str return. The raw text stays out of
// it (the caller gives the text its own allocation), so a decoded
// ParsedRecord never pins the record's raw text.
func (r *reader) own(text span) {
	buf := make([]byte, 0, len(r.b)-(text.hi-text.lo))
	buf = append(append(buf, r.b[:text.lo]...), r.b[text.hi:]...)
	r.s = unsafe.String(unsafe.SliceData(buf), len(buf))
	r.cut, r.gap = text.lo, text.hi-text.lo
}

// at returns the string a span read before or after own names.
func (r *reader) at(sp span) string {
	if sp.lo >= r.cut {
		sp.lo -= r.gap
		sp.hi -= r.gap
	}
	return r.s[sp.lo:sp.hi]
}

func (r *reader) str() string {
	sp := r.span()
	if r.bad {
		return ""
	}
	return r.at(sp)
}

// count reads a list length. Each entry costs at least one byte (its
// length varint), so a count beyond the remaining bytes is corrupt —
// rejected before anything is allocated for it.
func (r *reader) count() int {
	n := r.uvarint()
	if !r.bad && n > uint64(len(r.b)-r.pos) {
		r.fail()
	}
	if r.bad {
		return 0
	}
	return int(n)
}

// decodeRecord parses one payload produced by appendRecord. It never
// panics or over-reads: every length is validated against the remaining
// bytes before use. Its allocations do not grow with the record: the
// Record, one copy of the payload that every string is sliced from, the
// raw text, and the parsed record with its line, label and name-server
// arrays.
func decodeRecord(payload []byte) (*Record, error) {
	r := reader{b: payload}
	if kind := r.byte(); r.bad || kind != recordKind {
		return nil, fmt.Errorf("%w: unknown kind", ErrBadRecord)
	}
	flags := r.byte()
	domain, registrar, country := r.span(), r.span(), r.span()
	year := r.uvarint()
	privacySvc, org := r.span(), r.span()
	if r.bad {
		return nil, fmt.Errorf("%w: truncated facts", ErrBadRecord)
	}
	if year > 9999 {
		return nil, fmt.Errorf("%w: implausible year %d", ErrBadRecord, year)
	}
	text := span{r.pos, r.pos}
	if flags&flagHasText != 0 {
		text = r.span()
	}
	r.own(text)
	rec := &Record{}
	rec.Domain = r.at(domain)
	rec.Facts.Domain = rec.Domain
	rec.Facts.Registrar = r.at(registrar)
	rec.Facts.Country = r.at(country)
	rec.Facts.CreatedYear = int(year)
	rec.Facts.PrivacySvc = r.at(privacySvc)
	rec.Facts.Org = r.at(org)
	rec.Facts.Privacy = flags&flagPrivacy != 0
	rec.Facts.Blacklisted = flags&flagBlacklisted != 0
	if text.hi > text.lo {
		rec.Text = string(payload[text.lo:text.hi])
	}
	if flags&flagHasParsed != 0 {
		pr := &core.ParsedRecord{}
		pr.Registrar = r.str()
		pr.RegistrarURL = r.str()
		pr.DomainName = r.str()
		pr.WhoisServer = r.str()
		pr.CreatedDate = r.str()
		pr.UpdatedDate = r.str()
		pr.ExpiresDate = r.str()
		decodeContact(&r, &pr.Registrant)
		nLines := r.uvarint()
		if r.bad {
			return nil, fmt.Errorf("%w: truncated parsed record", ErrBadRecord)
		}
		// Each line costs at least 3 bytes (empty-string varint + two
		// label bytes), so a count beyond remaining/3 is corrupt — reject
		// before allocating.
		if nLines > uint64(len(payload)-r.pos)/3 {
			return nil, fmt.Errorf("%w: line count %d exceeds payload", ErrBadRecord, nLines)
		}
		pr.Lines = make([]tokenize.Line, nLines)
		pr.Blocks = make([]labels.Block, nLines)
		pr.Fields = make([]labels.Field, nLines)
		for i := range pr.Lines {
			pr.Lines[i].Raw = r.str()
			b, fd := r.byte(), r.byte()
			if r.bad {
				return nil, fmt.Errorf("%w: truncated line %d", ErrBadRecord, i)
			}
			if int(b) >= labels.NumBlocks || int(fd) >= labels.NumFields {
				return nil, fmt.Errorf("%w: label out of range at line %d", ErrBadRecord, i)
			}
			pr.Blocks[i] = labels.Block(b)
			pr.Fields[i] = labels.Field(fd)
		}
		rec.Parsed = pr
	}
	if flags&flagHasModelVersion != 0 {
		rec.Facts.ModelVersion = r.str()
		if rec.Parsed != nil {
			rec.Parsed.ModelVersion = rec.Facts.ModelVersion
		}
	}
	if flags&flagHasDomainMeta != 0 {
		if rec.Parsed == nil {
			return nil, fmt.Errorf("%w: domain meta without parsed record", ErrBadRecord)
		}
		rec.Parsed.NameServers, rec.Parsed.Statuses = decodeStringPair(&r)
	}
	if r.bad {
		return nil, fmt.Errorf("%w: truncated payload", ErrBadRecord)
	}
	if r.pos != len(payload) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadRecord, len(payload)-r.pos)
	}
	return rec, nil
}

// decodeStringPair mirrors two consecutive appendStrings calls. Both
// lists are carved from one backing array, sized by reading ahead to
// the second count. A zero count decodes to nil so the encoder/decoder
// stay exact mirrors (the encoder never writes an empty pair).
func decodeStringPair(r *reader) (a, b []string) {
	na := r.count()
	ahead := *r
	for i := 0; i < na; i++ {
		ahead.span()
	}
	nb := ahead.count()
	if r.bad || ahead.bad {
		r.fail()
		return nil, nil
	}
	all := make([]string, na+nb)
	for i := range na {
		all[i] = r.str()
	}
	r.count()
	for i := na; i < len(all); i++ {
		all[i] = r.str()
	}
	if na > 0 {
		a = all[:na:na]
	}
	if nb > 0 {
		b = all[na:]
	}
	return a, b
}

func decodeContact(r *reader, c *core.Contact) {
	c.Name = r.str()
	c.ID = r.str()
	c.Org = r.str()
	c.Street = r.str()
	c.City = r.str()
	c.State = r.str()
	c.Postcode = r.str()
	c.Country = r.str()
	c.Phone = r.str()
	c.Fax = r.str()
	c.Email = r.str()
}

// EncodeRecord appends rec's payload encoding to buf and returns the
// extended slice — the store's bounds-checked record codec exposed for
// the cluster shard protocol, whose wire format carries parsed records
// in exactly the segment-log payload layout (so the two can never drift
// apart on what a record is). The frame envelope (length, CRC) is the
// transport's business, not the payload's.
func EncodeRecord(buf []byte, rec *Record) []byte { return appendRecord(buf, rec) }

// DecodeRecord parses one payload produced by EncodeRecord (or read
// from a segment frame). It never panics or over-reads on corrupt
// input.
func DecodeRecord(payload []byte) (*Record, error) { return decodeRecord(payload) }

// appendFrame wraps payload in the frame envelope: length varint, bytes,
// CRC32C.
func appendFrame(buf, payload []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, castagnoli))
}

// maxFrameHeader is the most bytes a frame's length prefix may take (a
// valid length fits 4: maxFramePayload < 2^28). A prefix that still
// continues after it is corruption — at the tail of a segment
// indistinguishable from a torn write, so it reports ErrTornFrame and
// the caller decides.
const maxFrameHeader = 5

// frameHeader decodes the length prefix at the start of b, which holds
// every byte the frame has left (or at least maxFrameHeader of them).
// It returns the payload length and the prefix's size. A prefix that
// ends with b is ErrTornFrame; a length over maxFramePayload is
// ErrFrameTooBig. The streaming scanner and the positioned read share
// it, so both read one frame format.
func frameHeader(b []byte) (n, hdr int, err error) {
	var v uint64
	for i := 0; i < maxFrameHeader; i++ {
		if i == len(b) {
			return 0, 0, ErrTornFrame
		}
		c := b[i]
		v |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			if v > maxFramePayload {
				return 0, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, v)
			}
			return int(v), i + 1, nil
		}
	}
	return 0, 0, ErrTornFrame
}

// frameBody checks the n-byte payload and trailing CRC32C at the start
// of b, which holds exactly n+frameCRCLen bytes, and returns the
// payload.
func frameBody(b []byte, n int) ([]byte, error) {
	payload := b[:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, ErrBadChecksum
	}
	return payload, nil
}

// frameScanner streams frames off a reader with a single reusable
// payload buffer, so iterating a multi-gigabyte segment holds one frame
// in memory at a time. It tracks byte offsets for posting seeks and for
// recovery truncation.
type frameScanner struct {
	r   *bufio.Reader
	off int64  // offset of the next unread byte
	buf []byte // reusable payload buffer
}

func newFrameScanner(r io.Reader, start int64) *frameScanner {
	return &frameScanner{r: bufio.NewReaderSize(r, 1<<16), off: start}
}

// next returns the next frame's payload and its start offset. A clean
// end of input returns io.EOF; input that ends mid-frame returns
// ErrTornFrame; an intact frame failing its checksum returns
// ErrBadChecksum. The payload is only valid until the following call.
func (fs *frameScanner) next() (payload []byte, start int64, err error) {
	start = fs.off
	// Peek returns fewer bytes only at the end of the input (or on a
	// read error, which ends the frame just the same).
	head, perr := fs.r.Peek(maxFrameHeader)
	if len(head) == 0 && perr == io.EOF {
		return nil, start, io.EOF
	}
	n, hdr, err := frameHeader(head)
	if err != nil {
		return nil, start, err
	}
	fs.r.Discard(hdr)
	fs.off += int64(hdr)
	need := n + frameCRCLen
	if cap(fs.buf) < need {
		fs.buf = make([]byte, need)
	}
	b := fs.buf[:need]
	if _, rerr := io.ReadFull(fs.r, b); rerr != nil {
		return nil, start, ErrTornFrame
	}
	fs.off += int64(need)
	payload, err = frameBody(b, n)
	return payload, start, err
}
