package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/synth"
)

// registryFixture publishes two versions into a fresh registry —
// 1.0.0 promoted to serving, 1.1.0 staged as candidate — opens the
// serving stack with -model pointing at the registry, and returns the
// registry, the live model manager, and the daemon's debug mux.
func registryFixture(t *testing.T) (*modelreg.Registry, *lifecycle.Manager, http.Handler) {
	t.Helper()
	recs := synth.GenerateLabeled(synth.Config{N: 80, Seed: 29})
	pA, _, err := core.Train(recs[:40], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pB, _, err := core.Retrain(pA, recs, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	artA := filepath.Join(dir, "a.wmdl")
	artB := filepath.Join(dir, "b.wmdl")
	if err := store.SaveModel(pA, artA); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveModel(pB, artB); err != nil {
		t.Fatal(err)
	}

	reg, err := modelreg.Open(t.TempDir(), modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	fam := modelreg.DefaultFamily
	mustPublish := func(path, version, parent string) {
		t.Helper()
		if _, err := reg.Publish(modelreg.PublishRequest{
			Family: fam, Version: version, Parent: parent, ArtifactPath: path,
		}); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(artA, "1.0.0", "")
	if err := reg.SetCandidate(fam, "1.0.0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(fam, "1.0.0"); err != nil {
			t.Fatal(err)
		}
	}
	mustPublish(artB, "1.1.0", "1.0.0")
	if err := reg.SetCandidate(fam, "1.1.0"); err != nil {
		t.Fatal(err)
	}

	st, err := stack.Open(stack.Config{Model: reg.Root()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return reg, st.Model, debugMux(obs.NewRegistry(), st, nil)
}

func postJSON(t *testing.T, h http.Handler, target string) (int, map[string]any) {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, nil))
	var body map[string]any
	if rr.Code == http.StatusOK {
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			t.Fatalf("POST %s: bad JSON: %v\n%s", target, err, rr.Body.String())
		}
	}
	return rr.Code, body
}

// TestAdminStageMoveDrivesRegistry walks the staged candidate to
// serving through the promote endpoint, confirms the daemon swapped to
// it, and rolls back — the prior serving version must still be on disk,
// verify clean, and come back live.
func TestAdminStageMoveDrivesRegistry(t *testing.T) {
	reg, mgr, mux := registryFixture(t)
	fam := modelreg.DefaultFamily

	if !strings.HasPrefix(mgr.Current().Version, fam+"/1.0.0+") {
		t.Fatalf("fixture serving %q", mgr.Current().Version)
	}

	// candidate -> shadow: the daemon keeps serving 1.0.0.
	code, body := postJSON(t, mux, "/admin/model/promote?version=1.1.0")
	if code != http.StatusOK || body["stage"] != "shadow" {
		t.Fatalf("promote to shadow: %d %v", code, body)
	}
	if !strings.HasPrefix(mgr.Current().Version, fam+"/1.0.0+") {
		t.Fatalf("shadow promote moved serving to %q", mgr.Current().Version)
	}

	// shadow -> serving: the daemon swaps in the same request.
	code, body = postJSON(t, mux, "/admin/model/promote?version=1.1.0")
	if code != http.StatusOK || body["stage"] != "serving" || body["swapped"] != true {
		t.Fatalf("promote to serving: %d %v", code, body)
	}
	if !strings.HasPrefix(mgr.Current().Version, fam+"/1.1.0+") {
		t.Fatalf("serving promote left daemon on %q", mgr.Current().Version)
	}

	// The displaced version is still on disk and verifies.
	if _, err := reg.Verify(fam, "1.0.0"); err != nil {
		t.Fatalf("old serving version no longer verifies: %v", err)
	}

	// Rollback restores it, live.
	code, body = postJSON(t, mux, "/admin/model/rollback?version=1.0.0")
	if code != http.StatusOK || body["swapped"] != true {
		t.Fatalf("rollback: %d %v", code, body)
	}
	if !strings.HasPrefix(mgr.Current().Version, fam+"/1.0.0+") {
		t.Fatalf("rollback left daemon on %q", mgr.Current().Version)
	}

	// Guard rails: GET is rejected, a missing version is a 400, an
	// illegal transition surfaces as 422.
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/model/promote?version=1.1.0", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET promote = %d", rr.Code)
	}
	if code, _ := postJSON(t, mux, "/admin/model/promote"); code != http.StatusBadRequest {
		t.Errorf("promote without version = %d", code)
	}
	if code, _ := postJSON(t, mux, "/admin/model/promote?version=9.9.9"); code != http.StatusUnprocessableEntity {
		t.Errorf("promote of absent version = %d", code)
	}
}

// TestAdminReloadServingAndModels pins the read side: reload is a
// POST-only no-op while the pointer is unchanged, and /admin/models
// lists every version with its stage.
func TestAdminReloadServingAndModels(t *testing.T) {
	reg, mgr, mux := registryFixture(t)

	code, body := postJSON(t, mux, "/admin/reload")
	if code != http.StatusOK || body["changed"] != false {
		t.Fatalf("idle reload: %d %v", code, body)
	}
	if body["version"] != mgr.Current().Version {
		t.Fatalf("reload reported %v, serving %q", body["version"], mgr.Current().Version)
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/reload", nil))
	if rr.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET reload = %d", rr.Code)
	}

	// An out-of-band promote (CLI, another process) becomes visible.
	for i := 0; i < 2; i++ {
		if _, err := reg.Promote(modelreg.DefaultFamily, "1.1.0"); err != nil {
			t.Fatal(err)
		}
	}
	code, body = postJSON(t, mux, "/admin/reload")
	if code != http.StatusOK || body["changed"] != true {
		t.Fatalf("post-promote reload: %d %v", code, body)
	}
	if v, _ := body["version"].(string); !strings.Contains(v, "/1.1.0+") {
		t.Fatalf("reload landed on %v", body["version"])
	}

	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/models", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET models = %d: %s", rr.Code, rr.Body.String())
	}
	var listings []modelreg.FamilyListing
	if err := json.Unmarshal(rr.Body.Bytes(), &listings); err != nil {
		t.Fatalf("models JSON: %v\n%s", err, rr.Body.String())
	}
	if len(listings) != 1 || len(listings[0].Versions) != 2 {
		t.Fatalf("listings = %+v", listings)
	}
	stages := map[string]string{}
	for _, v := range listings[0].Versions {
		stages[v.Version] = v.Stage
	}
	if stages["1.1.0"] != "serving" {
		t.Fatalf("stages = %v", stages)
	}
}

// TestStoreWithoutParse is rdapd -parse=false -store DIR: the debug mux
// answers /admin/query over the store and mounts no model endpoints.
func TestStoreWithoutParse(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range synth.Generate(synth.Config{N: 30, Seed: 5}) {
		rec := &store.Record{Domain: d.Reg.Domain, Text: d.Render().Text}
		rec.Facts.Registrar, rec.Facts.CreatedYear = d.Reg.RegistrarName, d.Reg.Created.Year()
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	s, err := stack.OpenStore(dir, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	mux := debugMux(obs.NewRegistry(), s, nil)

	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/query?since=1900", nil))
	var body struct{ Matched int }
	if err := json.Unmarshal(rr.Body.Bytes(), &body); rr.Code != http.StatusOK || err != nil {
		t.Fatalf("GET /admin/query = %d: %s", rr.Code, rr.Body.String())
	}
	if body.Matched != 30 {
		t.Fatalf("matched %d records, want 30", body.Matched)
	}
	for _, path := range []string{"/admin/model", "/admin/consistency"} {
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
		if rr.Code != http.StatusNotFound {
			t.Fatalf("GET %s without a parse stack = %d, want 404", path, rr.Code)
		}
	}
}
