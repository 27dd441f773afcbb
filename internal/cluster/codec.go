package cluster

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/store"
	"repro/internal/tokenize"
)

// Wire format (DESIGN.md §5g). Every message — request or response —
// travels in the same envelope internal/store frames its record log
// with:
//
//	frame := uvarint(len(payload)) | payload | crc32c(payload) LE32
//
// The CRC is Castagnoli. A request payload is an op byte followed by
// op-specific fields (uvarint-length-prefixed strings/bytes); a
// response payload is a status byte followed by status-specific fields.
// Parsed records reuse the store's bounds-checked record codec
// (store.EncodeRecord/DecodeRecord), so the shard protocol and the
// persistence layer cannot drift apart on what a record is. That codec
// keeps each line's Raw text only; the decoder re-derives titles and
// values (tokenize.Resplit).
//
//	opParse      : domain string | text string
//	opFetchModel : (empty)
//	opApplyModel : artifact
//	opStatus     : (empty)
//
//	artifact     : family string | semver string | WMDL bytes
//
//	stOK         : op-specific body (record payload / artifact /
//	               version string / status fields)
//	stError      : message string
//	stOverloaded : retry-after millis uvarint
//	stNoModel    : (empty)

const (
	opParse      = 1
	opFetchModel = 2
	opApplyModel = 3
	opStatus     = 4

	stOK         = 0
	stError      = 1
	stOverloaded = 2
	stNoModel    = 3
)

// maxWireFrame bounds one protocol frame. Model artifacts are the
// largest payloads (tens of MB for a full-corpus model); parse
// requests/responses are KBs.
const maxWireFrame = 64 << 20

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Wire errors.
var (
	ErrTornWire   = errors.New("cluster: torn wire frame")
	ErrBadWireCRC = errors.New("cluster: wire frame checksum mismatch")
	ErrWireTooBig = errors.New("cluster: wire frame exceeds size limit")
	ErrBadMessage = errors.New("cluster: malformed protocol message")
	ErrRemote     = errors.New("cluster: remote error")
	ErrUnknownOp  = errors.New("cluster: unknown protocol op")
)

// writeFrame writes one framed payload.
func writeFrame(w io.Writer, payload []byte) error {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], uint64(len(payload)))
	if _, err := w.Write(hdr[:n]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32.Checksum(payload, castagnoli))
	_, err := w.Write(crc[:])
	return err
}

// readFrame reads one framed payload into buf (grown as needed) and
// returns the payload slice, valid until the next call with the same
// buf.
func readFrame(r *bufio.Reader, buf []byte) ([]byte, []byte, error) {
	var n uint64
	for shift := uint(0); ; shift += 7 {
		c, err := r.ReadByte()
		if err != nil {
			if shift == 0 && err == io.EOF {
				return nil, buf, io.EOF
			}
			return nil, buf, ErrTornWire
		}
		n |= uint64(c&0x7f) << shift
		if c < 0x80 {
			break
		}
		if shift >= 28 {
			return nil, buf, ErrTornWire
		}
	}
	if n > maxWireFrame {
		return nil, buf, fmt.Errorf("%w: %d bytes", ErrWireTooBig, n)
	}
	need := int(n) + 4
	if cap(buf) < need {
		buf = make([]byte, need)
	}
	b := buf[:need]
	if _, err := io.ReadFull(r, b); err != nil {
		return nil, buf, ErrTornWire
	}
	payload := b[:n]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[n:]) {
		return nil, buf, ErrBadWireCRC
	}
	return payload, buf, nil
}

// appendString length-prefixes s onto buf.
func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// appendBytes length-prefixes b onto buf.
func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

// wireReader is a bounds-checked cursor over a payload, mirroring the
// store decoder's discipline: reads report failure instead of
// panicking.
type wireReader struct {
	b   []byte
	pos int
	bad bool
}

func (r *wireReader) byte() byte {
	if r.bad || r.pos >= len(r.b) {
		r.bad = true
		return 0
	}
	c := r.b[r.pos]
	r.pos++
	return c
}

func (r *wireReader) uvarint() uint64 {
	if r.bad {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.pos:])
	if n <= 0 {
		r.bad = true
		return 0
	}
	r.pos += n
	return v
}

func (r *wireReader) bytes() []byte {
	n := r.uvarint()
	if r.bad || n > uint64(len(r.b)-r.pos) {
		r.bad = true
		return nil
	}
	b := r.b[r.pos : r.pos+int(n)]
	r.pos += int(n)
	return b
}

func (r *wireReader) str() string { return string(r.bytes()) }

// Request encoders/decoders.

func encodeParseReq(buf []byte, domain, text string) []byte {
	buf = append(buf[:0], opParse)
	buf = appendString(buf, domain)
	return appendString(buf, text)
}

func decodeParseReq(body []byte) (domain, text string, err error) {
	r := &wireReader{b: body}
	domain = r.str()
	text = r.str()
	if r.bad || r.pos != len(body) {
		return "", "", fmt.Errorf("%w: parse request", ErrBadMessage)
	}
	return domain, text, nil
}

// appendArtifact encodes a model artifact with its identity.
func appendArtifact(buf []byte, a Artifact) []byte {
	buf = appendString(buf, a.Family)
	buf = appendString(buf, a.SemVer)
	return appendBytes(buf, a.Data)
}

// decodeArtifact decodes a whole body written by appendArtifact. Data
// aliases body.
func decodeArtifact(body []byte) (Artifact, error) {
	r := &wireReader{b: body}
	a := Artifact{Family: r.str(), SemVer: r.str(), Data: r.bytes()}
	if r.bad || r.pos != len(body) {
		return Artifact{}, fmt.Errorf("%w: model artifact", ErrBadMessage)
	}
	return a, nil
}

// Response encoders/decoders.

// encodeRecordResp wraps a parsed record as an stOK response, reusing
// the store record codec for the record body.
func encodeRecordResp(buf []byte, domain string, rec *core.ParsedRecord) []byte {
	buf = append(buf[:0], stOK)
	body := store.EncodeRecord(nil, &store.Record{Domain: domain, Parsed: rec})
	return appendBytes(buf, body)
}

func decodeRecordResp(body []byte) (*core.ParsedRecord, error) {
	r := &wireReader{b: body}
	payload := r.bytes()
	if r.bad || r.pos != len(body) {
		return nil, fmt.Errorf("%w: record response", ErrBadMessage)
	}
	rec, err := store.DecodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadMessage, err)
	}
	if rec.Parsed == nil {
		return nil, fmt.Errorf("%w: record response without parse", ErrBadMessage)
	}
	tokenize.Resplit(rec.Parsed.Lines)
	return rec.Parsed, nil
}

// encodeErrorResp maps an error into a status frame: overload carries
// its Retry-After hint, ErrNoModel its own status, anything else a
// message string.
func encodeErrorResp(buf []byte, err error) []byte {
	var ov *OverloadedError
	switch {
	case errors.As(err, &ov):
		buf = append(buf[:0], stOverloaded)
		return binary.AppendUvarint(buf, uint64(ov.After.Milliseconds()))
	case errors.Is(err, ErrNoModel):
		return append(buf[:0], stNoModel)
	default:
		buf = append(buf[:0], stError)
		return appendString(buf, err.Error())
	}
}

// decodeStatusByte interprets a response's status byte, returning the
// remaining body for stOK and the decoded error otherwise.
func decodeStatusByte(payload []byte) ([]byte, error) {
	r := &wireReader{b: payload}
	switch st := r.byte(); {
	case r.bad:
		return nil, fmt.Errorf("%w: empty response", ErrBadMessage)
	case st == stOK:
		return payload[r.pos:], nil
	case st == stOverloaded:
		ms := r.uvarint()
		if r.bad {
			return nil, fmt.Errorf("%w: overload response", ErrBadMessage)
		}
		return nil, &OverloadedError{After: time.Duration(ms) * time.Millisecond}
	case st == stNoModel:
		return nil, ErrNoModel
	case st == stError:
		msg := r.str()
		if r.bad {
			return nil, fmt.Errorf("%w: error response", ErrBadMessage)
		}
		return nil, fmt.Errorf("%w: %s", ErrRemote, msg)
	default:
		return nil, fmt.Errorf("%w: status %d", ErrBadMessage, st)
	}
}

// Status op body.

func encodeStatusResp(buf []byte, ps PeerStatus) []byte {
	buf = append(buf[:0], stOK)
	buf = appendString(buf, ps.ID)
	buf = appendString(buf, ps.Addr)
	buf = appendString(buf, ps.ModelVersion)
	buf = binary.AppendUvarint(buf, ps.Generation)
	ready := byte(0)
	if ps.Ready {
		ready = 1
	}
	buf = append(buf, ready)
	buf = binary.AppendUvarint(buf, uint64(len(ps.Members)))
	for _, m := range ps.Members {
		buf = appendString(buf, m)
	}
	return buf
}

func decodeStatusResp(body []byte) (PeerStatus, error) {
	r := &wireReader{b: body}
	var ps PeerStatus
	ps.ID = r.str()
	ps.Addr = r.str()
	ps.ModelVersion = r.str()
	ps.Generation = r.uvarint()
	ps.Ready = r.byte() == 1
	n := r.uvarint()
	if r.bad || n > uint64(len(body)) {
		return PeerStatus{}, fmt.Errorf("%w: status response", ErrBadMessage)
	}
	ps.Members = make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		ps.Members = append(ps.Members, r.str())
	}
	if r.bad || r.pos != len(body) {
		return PeerStatus{}, fmt.Errorf("%w: status response", ErrBadMessage)
	}
	return ps, nil
}
