package main

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/synth"
)

// crawlInto writes recs through the crawl sink, parsing with model,
// into a fresh store and returns its directory.
func crawlInto(t *testing.T, model string, recs []*synth.Domain) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sink, err := newSink(st, model, modelreg.DefaultFamily, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range recs {
		if err := sink.Put(d.Reg.Domain, d.Reg.RegistrarName, d.Render().Text); err != nil {
			t.Fatal(err)
		}
	}
	if err := sink.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}

// TestCrawledStoreWarmStartsServingStack: a store crawled with model
// file X is stamped with the name a stack serving X stamps, so the
// stack's warm start admits it — and admits nothing a different model
// parsed.
func TestCrawledStoreWarmStartsServingStack(t *testing.T) {
	labeled := synth.GenerateLabeled(synth.Config{N: 60, Seed: 17})
	pX, _, err := core.Train(labeled[:30], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pY, _, err := core.Retrain(pX, labeled, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	fileX, fileY := filepath.Join(dir, "x.wmdl"), filepath.Join(dir, "y.wmdl")
	if err := store.SaveModel(pX, fileX); err != nil {
		t.Fatal(err)
	}
	if err := store.SaveModel(pY, fileY); err != nil {
		t.Fatal(err)
	}
	domains := synth.Generate(synth.Config{N: 40, Seed: 3})

	crawledX := crawlInto(t, fileX, domains)
	st, err := stack.Open(stack.Config{Model: fileX, Store: crawledX})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Serve.Stats().Preloads == 0 {
		t.Fatal("stack serving X preloaded nothing from a store crawled with X")
	}
	var stamps uint64
	it := st.Store.Iter()
	for it.Next() {
		if it.Record().Parsed.ModelVersion == st.Model.Current().Version {
			stamps++
		}
	}
	it.Close()
	if stamps != st.Serve.Stats().Preloads {
		t.Fatalf("preloaded %d, store holds %d records stamped %s", st.Serve.Stats().Preloads, stamps, st.Model.Current().Version)
	}

	crawledY := crawlInto(t, fileY, domains)
	other, err := stack.Open(stack.Config{Model: fileX, Store: crawledY})
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()
	if other.Serve.Stats().Preloads != 0 {
		t.Fatalf("stack serving X preloaded %d records parsed by Y", other.Serve.Stats().Preloads)
	}
}
