package store

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/synth"
)

// trainedParser trains once per test binary on a small synthetic corpus.
var trainedParser *core.Parser

func getParser(t testing.TB) *core.Parser {
	t.Helper()
	if trainedParser == nil {
		recs := synth.GenerateLabeled(synth.Config{N: 200, Seed: 42})
		p, _, err := core.Train(recs, core.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		trainedParser = p
	}
	return trainedParser
}

func TestModelRoundTrip(t *testing.T) {
	p := getParser(t)
	path := filepath.Join(t.TempDir(), "parser.model")
	if err := SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	// SaveModel writes exactly the bytes EncodeModel produces.
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	encoded, err := EncodeModel(p)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, encoded) {
		t.Fatal("SaveModel bytes differ from EncodeModel")
	}
	p2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	// Same model → same parse of the same text.
	text := "Domain Name: roundtrip.com\nRegistrar: Example Registrar\nRegistrant Name: Jane Roe\nRegistrant Country: US\n"
	a, b := p.Parse(text), p2.Parse(text)
	if a.DomainName != b.DomainName || a.Registrar != b.Registrar ||
		a.Registrant.Name != b.Registrant.Name || a.Registrant.Country != b.Registrant.Country {
		t.Fatalf("reloaded model parses differently:\n %+v\n %+v", a, b)
	}
	if got := uint64(p2.BlockModel().NumFeatures()); got != uint64(p.BlockModel().NumFeatures()) {
		t.Fatalf("feature dims changed across round trip: %d", got)
	}
}

func TestModelRejectsCorruption(t *testing.T) {
	p := getParser(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "parser.model")
	if err := SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantErr error
	}{
		{"flipped payload byte", func(b []byte) []byte {
			b[modelHeaderLen+len(b)/2] ^= 0x01
			return b
		}, ErrModelChecksum},
		{"truncated payload", func(b []byte) []byte {
			return b[:len(b)-10]
		}, ErrModelChecksum},
		{"bad magic", func(b []byte) []byte {
			b[0] = 'X'
			return b
		}, ErrNotModel},
		{"future version", func(b []byte) []byte {
			b[4] = 0xff
			return b
		}, ErrModelVersion},
		{"wrong dims in header", func(b []byte) []byte {
			b[6]++ // first-level feature count
			return b
		}, ErrModelDimensions},
		{"short header", func(b []byte) []byte {
			return b[:10]
		}, ErrNotModel},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(append([]byte(nil), data...))
			_, err := ReadModel(bytes.NewReader(mutated))
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
		})
	}
}

func TestModelLegacySniff(t *testing.T) {
	// A legacy bare-gob model file is not an artifact: loading it fails
	// with ErrNotModel rather than decoding weights nobody can verify.
	p := getParser(t)
	path := filepath.Join(t.TempDir(), "legacy.model")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModel(path); !errors.Is(err, ErrNotModel) {
		t.Fatalf("LoadModel on legacy gob: err = %v, want ErrNotModel", err)
	}
}

func TestSaveModelIsAtomic(t *testing.T) {
	p := getParser(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "parser.model")
	if err := SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: no .tmp litter, artifact still valid.
	if err := SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("dir holds %d entries, want 1", len(entries))
	}
	if _, err := LoadModel(path); err != nil {
		t.Fatal(err)
	}
}

func TestStatModelMatchesArtifact(t *testing.T) {
	p := getParser(t)
	path := filepath.Join(t.TempDir(), "parser.model")
	if err := SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	info, err := StatModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if info == (ModelInfo{}) {
		t.Fatal("StatModel returned zero identity for a real artifact")
	}
	if info.FormatVersion != modelVersion {
		t.Errorf("FormatVersion = %d, want %d", info.FormatVersion, modelVersion)
	}
	if got, want := info.BlockFeatures, uint64(p.BlockModel().NumFeatures()); got != want {
		t.Errorf("BlockFeatures = %d, want %d", got, want)
	}
	if got, want := info.FieldFeatures, uint64(p.FieldModel().NumFeatures()); got != want {
		t.Errorf("FieldFeatures = %d, want %d", got, want)
	}
	// The header CRC must match a CRC computed over the payload itself.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := crc32.Checksum(raw[modelHeaderLen:], castagnoli); got != info.CRC32C {
		t.Errorf("CRC32C = %08x, payload hashes to %08x", info.CRC32C, got)
	}
	if info.PayloadBytes != uint64(len(raw)-modelHeaderLen) {
		t.Errorf("PayloadBytes = %d, want %d", info.PayloadBytes, len(raw)-modelHeaderLen)
	}
	// Identity must be stable across stats and carry through String().
	again, err := StatModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if again != info {
		t.Errorf("StatModel not deterministic: %+v vs %+v", again, info)
	}
	if s := info.String(); !strings.Contains(s, "wmdl v1") || !strings.Contains(s, fmt.Sprintf("%08x", info.CRC32C)) {
		t.Errorf("String() = %q missing version or crc", s)
	}
}

func TestVerifyModel(t *testing.T) {
	p := getParser(t)
	path := filepath.Join(t.TempDir(), "parser.model")
	if err := SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	info, err := VerifyModel(path)
	if err != nil {
		t.Fatal(err)
	}
	stat, err := StatModel(path)
	if err != nil {
		t.Fatal(err)
	}
	if info != stat {
		t.Fatalf("VerifyModel identity %+v != StatModel %+v", info, stat)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if binfo, err := VerifyModelBytes(data); err != nil || binfo != info {
		t.Fatalf("VerifyModelBytes = %+v, %v", binfo, err)
	}

	// StatModel only reads the header; Verify re-hashes the payload, so
	// a payload flip passes the former and fails the latter.
	flipped := append([]byte(nil), data...)
	flipped[modelHeaderLen+len(flipped)/3] ^= 0x40
	bad := filepath.Join(t.TempDir(), "flipped.model")
	if err := os.WriteFile(bad, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StatModel(bad); err != nil {
		t.Fatalf("StatModel caught a payload flip it cannot see: %v", err)
	}
	if _, err := VerifyModel(bad); !errors.Is(err, ErrModelChecksum) {
		t.Fatalf("VerifyModel on flipped payload = %v, want ErrModelChecksum", err)
	}
	if _, err := VerifyModelBytes(flipped); !errors.Is(err, ErrModelChecksum) {
		t.Fatalf("VerifyModelBytes on flipped payload = %v, want ErrModelChecksum", err)
	}

	// Truncation and trailing junk both break the seal.
	if _, err := VerifyModelBytes(data[:len(data)-7]); !errors.Is(err, ErrModelChecksum) {
		t.Fatalf("truncated artifact = %v, want ErrModelChecksum", err)
	}
	if _, err := VerifyModelBytes(append(append([]byte(nil), data...), "junk"...)); !errors.Is(err, ErrModelChecksum) {
		t.Fatalf("trailing junk = %v, want ErrModelChecksum", err)
	}
	if _, err := VerifyModelBytes([]byte("no")); !errors.Is(err, ErrNotModel) {
		t.Fatalf("junk bytes = %v, want ErrNotModel", err)
	}
	if _, err := VerifyModel(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("VerifyModel on missing file succeeded")
	}
}

func TestStatModelRejectsNonModel(t *testing.T) {
	path := filepath.Join(t.TempDir(), "not.model")
	if err := os.WriteFile(path, []byte("plainly not a model artifact"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := StatModel(path); !errors.Is(err, ErrNotModel) {
		t.Errorf("StatModel on junk = %v, want ErrNotModel", err)
	}
	if _, err := StatModel(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Error("StatModel on missing file succeeded")
	}
}
