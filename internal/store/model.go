package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"repro/internal/core"
)

// Model artifact container. A trained parser is the expensive output of
// the whole labeling + optimization pipeline; persisting it behind a
// magic header, an explicit format version, the feature-space dimensions
// of both CRF levels, and a CRC turns "the file loaded" into "the file
// is the model you trained". The payload is the parser's own
// serialization (core.Parser.WriteTo).
//
//	offset  size  field
//	0       4     magic "WMDL"
//	4       2     format version (LE)
//	6       8     first-level feature count (LE)
//	14      8     second-level feature count (LE; 0 = no field model)
//	22      4     CRC32C of payload (LE)
//	26      8     payload length (LE)
//	34      n     payload (gob, core.Parser.WriteTo)
var modelMagic = [4]byte{'W', 'M', 'D', 'L'}

const (
	modelVersion   = 1
	modelHeaderLen = 34
)

// Model artifact errors, distinguishable so callers can report "not a
// model file" vs "damaged model file" vs "model from a different
// format era".
var (
	ErrNotModel        = errors.New("store: not a model artifact")
	ErrModelVersion    = errors.New("store: unsupported model artifact version")
	ErrModelChecksum   = errors.New("store: model artifact checksum mismatch")
	ErrModelDimensions = errors.New("store: model feature dimensions disagree with header")
)

// ModelInfo is the identity a WMDL envelope gives a trained model: the
// artifact format version, both CRF feature-space dimensions, and the
// payload checksum. The CRC doubles as a cheap content fingerprint — two
// artifacts with equal CRC and dimensions are the same trained weights
// for lifecycle purposes (hot reload logging, drift segmentation,
// stamping crawled records with the model that parsed them).
type ModelInfo struct {
	FormatVersion uint16
	BlockFeatures uint64
	FieldFeatures uint64
	PayloadBytes  uint64
	CRC32C        uint32
}

// String renders the identity the way daemons log it, e.g.
// "wmdl v1 crc32c=9a1b2c3d block=104729 field=39916".
func (mi ModelInfo) String() string {
	return fmt.Sprintf("wmdl v%d crc32c=%08x block=%d field=%d",
		mi.FormatVersion, mi.CRC32C, mi.BlockFeatures, mi.FieldFeatures)
}

// parseModelHeader validates a WMDL header and extracts the identity.
func parseModelHeader(hdr []byte) (ModelInfo, error) {
	if len(hdr) < modelHeaderLen {
		return ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	if [4]byte(hdr[:4]) != modelMagic {
		return ModelInfo{}, ErrNotModel
	}
	if v := binary.LittleEndian.Uint16(hdr[4:]); v != modelVersion {
		return ModelInfo{}, fmt.Errorf("%w: %d (want %d)", ErrModelVersion, v, modelVersion)
	}
	return ModelInfo{
		FormatVersion: binary.LittleEndian.Uint16(hdr[4:]),
		BlockFeatures: binary.LittleEndian.Uint64(hdr[6:]),
		FieldFeatures: binary.LittleEndian.Uint64(hdr[14:]),
		CRC32C:        binary.LittleEndian.Uint32(hdr[22:]),
		PayloadBytes:  binary.LittleEndian.Uint64(hdr[26:]),
	}, nil
}

// StatModel reads only the WMDL header of the artifact at path and
// returns its identity, without decoding (or even reading) the payload.
// Daemons call it at startup to log exactly which model they loaded, and
// the lifecycle manager uses it to version cache entries across hot
// reloads.
func StatModel(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("store: stat model: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	return parseModelHeader(hdr)
}

// EncodeModel serializes the trained parser into the versioned artifact
// format: header (magic, format version, both feature dimensions,
// payload CRC32C and length) followed by the payload. It is the one
// encoder every artifact goes through — SaveModel writes its bytes to
// disk, a retrain publishes them straight into the model registry, and
// a daemon that trains at startup opens its model from them.
func EncodeModel(p *core.Parser) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(make([]byte, modelHeaderLen))
	if _, err := p.WriteTo(&buf); err != nil {
		return nil, fmt.Errorf("store: encode model: %w", err)
	}
	data := buf.Bytes()
	payload := data[modelHeaderLen:]
	var fieldDim uint64
	if p.FieldModel() != nil {
		fieldDim = uint64(p.FieldModel().NumFeatures())
	}
	hdr := data[:modelHeaderLen]
	copy(hdr, modelMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:], modelVersion)
	binary.LittleEndian.PutUint64(hdr[6:], uint64(p.BlockModel().NumFeatures()))
	binary.LittleEndian.PutUint64(hdr[14:], fieldDim)
	binary.LittleEndian.PutUint32(hdr[22:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint64(hdr[26:], uint64(len(payload)))
	return data, nil
}

// SaveModel writes the trained parser to path in the versioned artifact
// format, via a temp file + rename so a crash never leaves a torn model
// where a good one stood.
func SaveModel(p *core.Parser, path string) error {
	data, err := EncodeModel(p)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: save model: %w", err)
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: save model: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: save model: %w", err)
	}
	return nil
}

// LoadModel reads a model artifact written by SaveModel, verifying the
// magic, version, checksum, and that the decoded CRF feature spaces
// match the dimensions recorded at save time. The returned parser is
// ready to Parse or to warm-start a Retrain.
func LoadModel(path string) (*core.Parser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("store: load model: %w", err)
	}
	defer f.Close()
	return ReadModel(f)
}

// ReadModel is LoadModel over a stream. Header validation (magic,
// format version) is the same parseModelHeader every other consumer —
// StatModel, VerifyModel, the registry — runs, so "what counts as a
// WMDL" cannot drift between the load path and the registry.
func ReadModel(r io.Reader) (*core.Parser, error) {
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrNotModel)
	}
	info, err := parseModelHeader(hdr)
	if err != nil {
		return nil, err
	}
	const maxModelBytes = 1 << 31
	if info.PayloadBytes > maxModelBytes {
		return nil, fmt.Errorf("%w: payload length %d", ErrNotModel, info.PayloadBytes)
	}
	payload := make([]byte, info.PayloadBytes)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: short payload", ErrModelChecksum)
	}
	if crc32.Checksum(payload, castagnoli) != info.CRC32C {
		return nil, ErrModelChecksum
	}
	p, err := core.Read(bytes.NewReader(payload))
	if err != nil {
		return nil, fmt.Errorf("store: load model: %w", err)
	}
	if got := uint64(p.BlockModel().NumFeatures()); got != info.BlockFeatures {
		return nil, fmt.Errorf("%w: first level %d vs %d", ErrModelDimensions, got, info.BlockFeatures)
	}
	var gotField uint64
	if p.FieldModel() != nil {
		gotField = uint64(p.FieldModel().NumFeatures())
	}
	if gotField != info.FieldFeatures {
		return nil, fmt.Errorf("%w: second level %d vs %d", ErrModelDimensions, gotField, info.FieldFeatures)
	}
	return p, nil
}

// VerifyModel re-reads the artifact at path and confirms the payload is
// exactly what the header promises — magic, format version, payload
// length, and a streamed CRC32C recomputation — without decoding the
// model (no gob, no allocation proportional to feature count). This is
// the integrity check the model registry runs before any promotion and
// `whoisparse model verify` runs offline; LoadModel additionally
// verifies the decoded feature dimensions, which VerifyModel's header
// already pins.
func VerifyModel(path string) (ModelInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return ModelInfo{}, fmt.Errorf("store: verify model: %w", err)
	}
	defer f.Close()
	return verifyModelStream(f)
}

// VerifyModelBytes is VerifyModel over an in-memory artifact — the
// registry publish path and the cluster distribution path both verify
// fetched bytes before anything is written or swapped.
func VerifyModelBytes(data []byte) (ModelInfo, error) {
	return verifyModelStream(bytes.NewReader(data))
}

// verifyModelStream validates header-vs-payload integrity: the payload
// must be present in full, match the recorded CRC32C, and be followed
// by nothing (trailing bytes mean the file is not the artifact the
// header describes).
func verifyModelStream(r io.Reader) (ModelInfo, error) {
	hdr := make([]byte, modelHeaderLen)
	if _, err := io.ReadFull(r, hdr); err != nil {
		return ModelInfo{}, fmt.Errorf("%w: short header", ErrNotModel)
	}
	info, err := parseModelHeader(hdr)
	if err != nil {
		return ModelInfo{}, err
	}
	h := crc32.New(castagnoli)
	n, err := io.Copy(h, r)
	if err != nil {
		return info, fmt.Errorf("store: verify model: %w", err)
	}
	if uint64(n) < info.PayloadBytes {
		return info, fmt.Errorf("%w: payload %d bytes, header promises %d", ErrModelChecksum, n, info.PayloadBytes)
	}
	if uint64(n) > info.PayloadBytes {
		return info, fmt.Errorf("%w: %d trailing bytes after payload", ErrModelChecksum, uint64(n)-info.PayloadBytes)
	}
	if h.Sum32() != info.CRC32C {
		return info, ErrModelChecksum
	}
	return info, nil
}
