package lifecycle

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/store"
)

// seedRegistry publishes p as <family>/1.0.0 and walks it to serving.
func seedRegistry(t *testing.T, p *core.Parser, family string) *modelreg.Registry {
	t.Helper()
	reg, err := modelreg.Open(t.TempDir(), modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seed.wmdl")
	if err := store.SaveModel(p, path); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(modelreg.PublishRequest{Family: family, ArtifactPath: path}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate(family, "1.0.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(family, "1.0.0"); err != nil {
			t.Fatal(err)
		}
	}
	return reg
}

func TestOpenRegistryStampsCanonicalVersion(t *testing.T) {
	recs, weak, strong := fixtures(t)
	reg := seedRegistry(t, weak, "default")

	m, err := Open(reg.Root(), "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Registry() == nil || m.Family() != "default" {
		t.Fatalf("registry source not recognized: %v %q", m.Registry(), m.Family())
	}
	snap := m.Current()
	if snap.Family != "default" || snap.SemVer != "1.0.0" {
		t.Fatalf("snapshot identity = %q/%q", snap.Family, snap.SemVer)
	}
	want := modelreg.FormatVersionString("default", "1.0.0", snap.Info.CRC32C)
	if snap.Version != want {
		t.Fatalf("version = %q, want %q", snap.Version, want)
	}
	rec := m.Parse(recs[0].Text)
	if rec.ModelVersion != want {
		t.Fatalf("stamped %q, want %q", rec.ModelVersion, want)
	}

	// Nothing new serving: reload is a no-op.
	if _, changed, err := m.Reload(); err != nil || changed {
		t.Fatalf("idle reload: changed=%v err=%v", changed, err)
	}

	// Publish + promote a new version out-of-band (another process, the
	// CLI); reload picks it up.
	path := filepath.Join(t.TempDir(), "v2.wmdl")
	if err := store.SaveModel(strong, path); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Publish(modelreg.PublishRequest{Family: "default", ArtifactPath: path, Parent: "1.0.0"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.SetCandidate("default", "1.1.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote("default", "1.1.0"); err != nil {
			t.Fatal(err)
		}
	}
	snap2, changed, err := m.Reload()
	if err != nil || !changed {
		t.Fatalf("reload after promote: changed=%v err=%v", changed, err)
	}
	if snap2.SemVer != "1.1.0" {
		t.Fatalf("reloaded semver = %q", snap2.SemVer)
	}
	if m.Parse(recs[0].Text).ModelVersion != snap2.Version {
		t.Fatal("parse not stamped with reloaded version")
	}

	// A family with no serving pointer does not open.
	if _, err := Open(reg.Root(), "tld-com", Options{}); err == nil {
		t.Fatal("Open of a family with nothing serving succeeded")
	}
}
