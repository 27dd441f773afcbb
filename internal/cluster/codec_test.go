package cluster

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/leakcheck"
	"repro/internal/tokenize"
)

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{
		{},
		[]byte("x"),
		bytes.Repeat([]byte("abc123"), 1000),
	}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	r := bufio.NewReader(&buf)
	var scratch []byte
	for i, want := range payloads {
		got, s, err := readFrame(r, scratch)
		scratch = s
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d: payload mismatch", i)
		}
	}
	if _, _, err := readFrame(r, scratch); err != io.EOF {
		t.Fatalf("after last frame: err = %v, want io.EOF", err)
	}
}

func TestFrameCorruptCRC(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("hello wire")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-1] ^= 0xff // flip a CRC byte
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil); !errors.Is(err, ErrBadWireCRC) {
		t.Fatalf("err = %v, want ErrBadWireCRC", err)
	}
	// Flip a payload byte instead; same detection.
	buf.Reset()
	if err := writeFrame(&buf, []byte("hello wire")); err != nil {
		t.Fatal(err)
	}
	b = buf.Bytes()
	b[2] ^= 0x01
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(b)), nil); !errors.Is(err, ErrBadWireCRC) {
		t.Fatalf("err = %v, want ErrBadWireCRC", err)
	}
}

func TestFrameTorn(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, []byte("truncate me please")); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	for _, cut := range []int{1, len(b) / 2, len(b) - 1} {
		if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(b[:cut])), nil); !errors.Is(err, ErrTornWire) {
			t.Fatalf("cut at %d: err = %v, want ErrTornWire", cut, err)
		}
	}
}

func TestFrameTooBig(t *testing.T) {
	var hdr [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(hdr[:], maxWireFrame+1)
	if _, _, err := readFrame(bufio.NewReader(bytes.NewReader(hdr[:n])), nil); !errors.Is(err, ErrWireTooBig) {
		t.Fatalf("err = %v, want ErrWireTooBig", err)
	}
}

func TestParseReqRoundTrip(t *testing.T) {
	body := encodeParseReq(nil, "example.com", "Domain Name: EXAMPLE.COM\n")
	if body[0] != opParse {
		t.Fatalf("op byte = %d", body[0])
	}
	domain, text, err := decodeParseReq(body[1:])
	if err != nil {
		t.Fatal(err)
	}
	if domain != "example.com" || text != "Domain Name: EXAMPLE.COM\n" {
		t.Fatalf("round trip mismatch: %q / %q", domain, text)
	}
	// Trailing garbage must be rejected, not silently ignored.
	if _, _, err := decodeParseReq(append(body[1:], 0x00)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	if _, _, err := decodeParseReq(body[1 : len(body)-1]); err == nil {
		t.Fatal("truncated request accepted")
	}
}

func TestRecordRespRoundTrip(t *testing.T) {
	rec := &core.ParsedRecord{
		DomainName:   "example.com",
		Registrar:    "Example Registrar, Inc.",
		CreatedDate:  "1999-07-01",
		ModelVersion: "default/1.0.0+deadbeef",
	}
	resp := encodeRecordResp(nil, "example.com", rec)
	body, err := decodeStatusByte(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecordResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.DomainName != rec.DomainName || got.Registrar != rec.Registrar ||
		got.CreatedDate != rec.CreatedDate || got.ModelVersion != rec.ModelVersion {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

// TestRecordRespDoesNotAliasBody: a forwarded answer outlives the
// connection's read buffer it was decoded from, so none of its strings
// may point into that buffer.
func TestRecordRespDoesNotAliasBody(t *testing.T) {
	rec := &core.ParsedRecord{
		DomainName:   "example.com",
		Registrar:    "Example Registrar, Inc.",
		ModelVersion: "default/1.0.0+deadbeef",
		NameServers:  []string{"ns1.example.net", "ns2.example.net"},
		Statuses:     []string{"clientTransferProhibited"},
	}
	for i := 0; i < 40; i++ {
		rec.Lines = append(rec.Lines, tokenize.Line{Raw: fmt.Sprintf("Registrant Field %d: value %d", i, i)})
		rec.Blocks = append(rec.Blocks, labels.Registrant)
		rec.Fields = append(rec.Fields, labels.FieldName)
	}
	body, err := decodeStatusByte(encodeRecordResp(nil, "example.com", rec))
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecordResp(body)
	if err != nil {
		t.Fatal(err)
	}
	wire := unsafe.String(unsafe.SliceData(body), len(body))
	strs := leakcheck.Strings(got)
	if len(strs) < 3*40 { // Raw, Title and Value per line
		t.Fatalf("only %d strings in the decoded answer", len(strs))
	}
	for _, s := range strs {
		if leakcheck.Overlaps(s, wire) {
			t.Fatalf("decoded string %q aliases the wire buffer", s)
		}
	}
}

func TestErrorRespMapping(t *testing.T) {
	// Overload carries its Retry-After hint across the wire.
	resp := encodeErrorResp(nil, &OverloadedError{After: 1500 * time.Millisecond})
	_, err := decodeStatusByte(resp)
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want OverloadedError", err)
	}
	if ov.After != 1500*time.Millisecond {
		t.Fatalf("After = %s, want 1.5s", ov.After)
	}
	if !errors.Is(err, ErrPeerOverloaded) {
		t.Fatal("OverloadedError does not match ErrPeerOverloaded")
	}

	// ErrNoModel keeps its identity.
	resp = encodeErrorResp(nil, fmt.Errorf("wrapped: %w", ErrNoModel))
	if _, err := decodeStatusByte(resp); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}

	// Anything else becomes an ErrRemote with the message preserved.
	resp = encodeErrorResp(nil, errors.New("disk on fire"))
	_, err = decodeStatusByte(resp)
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	if want := "disk on fire"; err == nil || !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("message lost: %v", err)
	}
}

func TestDecodeStatusByteMalformed(t *testing.T) {
	if _, err := decodeStatusByte(nil); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("empty response: err = %v, want ErrBadMessage", err)
	}
	if _, err := decodeStatusByte([]byte{99}); !errors.Is(err, ErrBadMessage) {
		t.Fatalf("unknown status: err = %v, want ErrBadMessage", err)
	}
}

func TestStatusRespRoundTrip(t *testing.T) {
	want := PeerStatus{
		ID:           "node-a",
		Addr:         "127.0.0.1:9999",
		ModelVersion: "default/1.2.0+0a0b0c0d",
		Generation:   17,
		Ready:        true,
		Members:      []string{"node-a", "node-b", "node-c"},
	}
	resp := encodeStatusResp(nil, want)
	body, err := decodeStatusByte(resp)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeStatusResp(body)
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != want.ID || got.Addr != want.Addr || got.ModelVersion != want.ModelVersion ||
		got.Generation != want.Generation || got.Ready != want.Ready {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if len(got.Members) != 3 || got.Members[0] != "node-a" || got.Members[2] != "node-c" {
		t.Fatalf("members mismatch: %v", got.Members)
	}
	if _, err := decodeStatusResp(body[:len(body)-2]); err == nil {
		t.Fatal("truncated status accepted")
	}
}

// TestWireCRCMatchesStore pins the wire checksum to Castagnoli — the
// same polynomial the store's segment log uses — so a cross-check of
// the two framing layers stays meaningful.
func TestWireCRCMatchesStore(t *testing.T) {
	payload := []byte("polynomial pin")
	want := crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli))
	if got := crc32.Checksum(payload, castagnoli); got != want {
		t.Fatalf("wire CRC table is not Castagnoli: %08x != %08x", got, want)
	}
}
