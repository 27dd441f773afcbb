package lifecycle

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
)

// Shared fixtures, trained once per test binary: a deliberately weak
// "live" model (small training slice) and a strong candidate
// warm-started from it over a much larger slice — so promotion tests
// have real headroom instead of coin-flip ties. The weak model is built
// separately so benchmarks (which only serve, never promote) skip the
// expensive retrain.
var (
	corpusOnce sync.Once
	fixCorpus  []*labels.LabeledRecord
	weakOnce   sync.Once
	fixWeak    *core.Parser
	weakErr    error
	strongOnce sync.Once
	fixStrong  *core.Parser
	strongErr  error
)

func testCorpus(t testing.TB) []*labels.LabeledRecord {
	t.Helper()
	corpusOnce.Do(func() {
		fixCorpus = synth.GenerateLabeled(synth.Config{N: 420, Seed: 11})
	})
	return fixCorpus
}

func weakParser(t testing.TB) *core.Parser {
	t.Helper()
	recs := testCorpus(t)
	weakOnce.Do(func() {
		fixWeak, _, weakErr = core.Train(recs[:40], core.DefaultConfig())
	})
	if weakErr != nil {
		t.Fatal(weakErr)
	}
	return fixWeak
}

func fixtures(t testing.TB) ([]*labels.LabeledRecord, *core.Parser, *core.Parser) {
	t.Helper()
	recs := testCorpus(t)
	weak := weakParser(t)
	strongOnce.Do(func() {
		fixStrong, _, strongErr = core.Retrain(weak, recs[:300], core.DefaultConfig())
	})
	if strongErr != nil {
		t.Fatal(strongErr)
	}
	return recs, weak, fixStrong
}

func holdoutSet(t testing.TB) []*labels.LabeledRecord {
	recs, _, _ := fixtures(t)
	return recs[300:]
}

// encode is store.EncodeModel for fixtures.
func encode(t testing.TB, p *core.Parser) []byte {
	t.Helper()
	data, err := store.EncodeModel(p)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// openParser opens p the way a daemon opens a model it trained at
// startup: encoded once, then verified and named from those bytes.
func openParser(t testing.TB, p *core.Parser, opts Options) *Manager {
	t.Helper()
	m, err := OpenBytes(encode(t, p), "", opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// stamp is the canonical version string for data served as
// default/<semver>.
func stamp(t testing.TB, data []byte, semver string) string {
	t.Helper()
	info, err := store.VerifyModelBytes(data)
	if err != nil {
		t.Fatal(err)
	}
	return modelreg.FormatVersionString(modelreg.DefaultFamily, semver, info.CRC32C)
}

func TestStateString(t *testing.T) {
	want := map[State]string{
		StateServing:      "serving",
		StateDriftFlagged: "drift-flagged",
		StateRetraining:   "retraining",
		StateShadow:       "shadow",
		State(99):         "state(99)",
	}
	for s, w := range want {
		if got := s.String(); got != w {
			t.Errorf("State(%d).String() = %q, want %q", s, got, w)
		}
	}
}

func TestManagerStampsVersion(t *testing.T) {
	recs, weak, _ := fixtures(t)
	m := openParser(t, weak, Options{})
	snap := m.Current()
	want := stamp(t, encode(t, weak), ImplicitVersion)
	if snap.Seq != 1 || snap.Version != want {
		t.Fatalf("initial snapshot = seq %d version %q, want 1/%s", snap.Seq, snap.Version, want)
	}
	if snap.Family != modelreg.DefaultFamily || snap.SemVer != ImplicitVersion || snap.Path != "" {
		t.Fatalf("in-memory identity = %q/%q path %q", snap.Family, snap.SemVer, snap.Path)
	}
	if got := m.State(); got != StateServing {
		t.Fatalf("initial state = %v, want serving", got)
	}
	rec := m.Parse(recs[0].Text)
	if rec.ModelVersion != want {
		t.Fatalf("ModelVersion = %q, want %q", rec.ModelVersion, want)
	}
	// Nothing to re-read: reload of an in-memory model is a no-op.
	if s, changed, err := m.Reload(); err != nil || changed || s != snap {
		t.Fatalf("in-memory reload: changed=%v err=%v", changed, err)
	}
	if _, err := OpenBytes([]byte("not a model"), "", Options{}); err == nil {
		t.Fatal("OpenBytes accepted junk")
	}
}

func TestAttachAndSwapInvalidatesCache(t *testing.T) {
	recs, weak, strong := fixtures(t)
	m := openParser(t, weak, Options{})
	ps := serve.New(weak, serve.Options{Workers: 2})
	defer ps.Close()
	m.Attach(ps)
	v1 := m.Current().Version

	ctx := context.Background()
	text := recs[0].Text
	rec, err := ps.ParseWait(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != v1 {
		t.Fatalf("pre-swap ModelVersion = %q, want %q", rec.ModelVersion, v1)
	}
	// Cache hit still carries the stamp.
	rec, err = ps.ParseWait(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != v1 {
		t.Fatalf("cached ModelVersion = %q, want %q", rec.ModelVersion, v1)
	}

	data := encode(t, strong)
	snap, changed, err := m.Apply(data, "", "1.2.0")
	if err != nil || !changed {
		t.Fatalf("apply: changed=%v err=%v", changed, err)
	}
	if want := stamp(t, data, "1.2.0"); snap.Seq != 2 || snap.Version != want {
		t.Fatalf("swap snapshot = seq %d version %q, want 2/%s", snap.Seq, snap.Version, want)
	}
	// The same text must re-parse under the new model — a stale cache
	// hit would still carry the old stamp.
	rec, err = ps.ParseWait(ctx, text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != snap.Version {
		t.Fatalf("post-swap ModelVersion = %q, want %q (stale cache?)", rec.ModelVersion, snap.Version)
	}

	// Applying the version already serving does nothing: no new
	// snapshot, no cache invalidation.
	gen := ps.Generation()
	again, changed, err := m.Apply(data, "", "1.2.0")
	if err != nil || changed || again != snap {
		t.Fatalf("re-apply: changed=%v err=%v", changed, err)
	}
	if ps.Generation() != gen {
		t.Fatal("re-applying the serving version bumped the cache generation")
	}
	if _, _, err := m.Apply(data[:len(data)-1], "", "1.3.0"); err == nil {
		t.Fatal("apply of a truncated artifact succeeded")
	}
	if m.Current() != snap {
		t.Fatal("failed apply replaced the live snapshot")
	}
	if m.Metrics() == nil {
		t.Fatal("Metrics() returned nil registry")
	}
}

func TestOpenFileAndReload(t *testing.T) {
	recs, weak, strong := fixtures(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "parser.wmdl")
	if err := store.SaveModel(weak, path); err != nil {
		t.Fatal(err)
	}
	infoA, err := store.StatModel(path)
	if err != nil {
		t.Fatal(err)
	}

	m, err := Open(path, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Registry() != nil {
		t.Fatal("bare file opened with a registry")
	}
	snap := m.Current()
	if want := modelreg.FormatVersionString("default", ImplicitVersion, infoA.CRC32C); snap.Version != want {
		t.Fatalf("version = %q, want %q", snap.Version, want)
	}
	if snap.Info != infoA || snap.Path != path {
		t.Fatalf("snapshot identity = %+v/%q, want %+v/%q", snap.Info, snap.Path, infoA, path)
	}
	if rec := m.Parse(recs[0].Text); rec.ModelVersion != snap.Version {
		t.Fatalf("stamp = %q, want %q", rec.ModelVersion, snap.Version)
	}

	// The file is unchanged: reload is a no-op.
	if s, changed, err := m.Reload(); err != nil || changed || s != snap {
		t.Fatalf("idle reload: changed=%v err=%v", changed, err)
	}

	// Operator replaces the file and reloads: the new artifact swaps in
	// under the same implicit version, named by its own CRC.
	if err := store.SaveModel(strong, path); err != nil {
		t.Fatal(err)
	}
	infoB, _ := store.StatModel(path)
	snap2, changed, err := m.Reload()
	if err != nil || !changed {
		t.Fatalf("reload: changed=%v err=%v", changed, err)
	}
	if want := modelreg.FormatVersionString("default", ImplicitVersion, infoB.CRC32C); snap2.Version != want {
		t.Fatalf("reloaded version = %q, want %q", snap2.Version, want)
	}
	if m.Current() != snap2 {
		t.Fatal("Current() is not the reloaded snapshot")
	}

	// A corrupt artifact must be rejected with the old model untouched.
	if err := os.WriteFile(path, []byte("not a model"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.Reload(); err == nil {
		t.Fatal("reload of junk artifact succeeded")
	}
	if m.Current() != snap2 {
		t.Fatal("failed reload replaced the live snapshot")
	}
	if _, err := Open(filepath.Join(dir, "missing.wmdl"), "", Options{}); err == nil {
		t.Fatal("Open of a missing path succeeded")
	}
}

// TestReloadKeepsAppliedNameForSameBytes is a cluster joiner started on
// a bare file: after it applies the fleet's artifact, a reload of a file
// holding the same bytes keeps the fleet's name, and one holding other
// bytes swaps back to the file.
func TestReloadKeepsAppliedNameForSameBytes(t *testing.T) {
	_, weak, strong := fixtures(t)
	path := filepath.Join(t.TempDir(), "parser.wmdl")
	if err := store.SaveModel(weak, path); err != nil {
		t.Fatal(err)
	}
	m, err := Open(path, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fleet, changed, err := m.Apply(data, "", "1.0.0")
	if err != nil || !changed || fleet.Version != stamp(t, data, "1.0.0") {
		t.Fatalf("apply under the fleet name: %v changed=%v err=%v", fleet, changed, err)
	}
	if s, changed, err := m.Reload(); err != nil || changed || s != fleet {
		t.Fatalf("reload of the same bytes: %s changed=%v err=%v", s.Version, changed, err)
	}
	if err := store.SaveModel(strong, path); err != nil {
		t.Fatal(err)
	}
	if data, err = os.ReadFile(path); err != nil {
		t.Fatal(err)
	}
	s, changed, err := m.Reload()
	if want := stamp(t, data, ImplicitVersion); err != nil || !changed || s.Version != want {
		t.Fatalf("reload of other bytes: %s changed=%v err=%v, want %s", s.Version, changed, err, want)
	}
}

// TestHotSwapUnderLoad is the end-to-end acceptance test: goroutines
// hammer a serving layer while the manager hot-reloads models
// underneath them. Every response must be attributable to exactly one
// known model version, and immediately after each swap a fresh request
// must be served by exactly the just-promoted version (no stale cache
// hits, no torn model state). Run with -race to check the memory model
// side.
func TestHotSwapUnderLoad(t *testing.T) {
	recs, weak, strong := fixtures(t)
	path := filepath.Join(t.TempDir(), "parser.wmdl")
	if err := store.SaveModel(weak, path); err != nil {
		t.Fatal(err)
	}

	const swaps = 6
	// Reloads alternate the file between the two models; both names
	// are the only valid stamps.
	valid := map[string]bool{
		stamp(t, encode(t, weak), ImplicitVersion):   true,
		stamp(t, encode(t, strong), ImplicitVersion): true,
	}

	m, err := Open(path, "", Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New(weak, serve.Options{Workers: 4, CacheCapacity: 256})
	defer ps.Close()
	m.Attach(ps)

	texts := make([]string, 8)
	for i := range texts {
		texts[i] = recs[i].Text
	}

	ctx := context.Background()
	stop := make(chan struct{})
	const hammers = 4
	seen := make([]map[string]bool, hammers)
	errs := make([]error, hammers)
	ready := make(chan struct{}, hammers)
	var wg sync.WaitGroup
	for g := 0; g < hammers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			local := map[string]bool{}
			seen[g] = local
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				rec, err := ps.ParseWait(ctx, texts[(i+g)%len(texts)])
				if err != nil {
					errs[g] = err
					return
				}
				local[rec.ModelVersion] = true
				if i == 0 {
					ready <- struct{}{}
				}
			}
		}(g)
	}
	// On GOMAXPROCS=1 the swap loop below can finish before the hammer
	// goroutines are ever scheduled; don't start swapping until every
	// hammer has a first parse in hand, so the load genuinely overlaps
	// the swaps.
	for g := 0; g < hammers; g++ {
		<-ready
	}

	for i := 1; i <= swaps; i++ {
		next := strong
		if i%2 == 0 {
			next = weak
		}
		if err := store.SaveModel(next, path); err != nil {
			t.Fatal(err)
		}
		snap, changed, err := m.Reload()
		if err != nil || !changed {
			t.Fatalf("reload %d: changed=%v err=%v", i, changed, err)
		}
		// A request admitted after the swap must be served by exactly
		// the new version: the parse function and cache generation
		// moved together, so neither a stale cached result nor a parse
		// by the old model can answer it.
		rec, err := ps.ParseWait(ctx, texts[i%len(texts)])
		if err != nil {
			t.Fatal(err)
		}
		if rec.ModelVersion != snap.Version {
			t.Fatalf("after swap %d: got version %q, want %q", i, rec.ModelVersion, snap.Version)
		}
	}
	close(stop)
	wg.Wait()

	total := 0
	for g := 0; g < hammers; g++ {
		if errs[g] != nil {
			t.Fatalf("hammer %d: %v", g, errs[g])
		}
		for v := range seen[g] {
			total++
			if v == "" {
				t.Fatal("response with empty ModelVersion: unattributable parse")
			}
			if !valid[v] {
				t.Fatalf("response stamped with unknown version %q (torn swap?)", v)
			}
		}
	}
	if total == 0 {
		t.Fatal("hammers observed no versions at all")
	}
	if got := m.Metrics().Counter("lifecycle.swaps").Value(); got != swaps {
		t.Fatalf("lifecycle.swaps = %d, want %d", got, swaps)
	}
	if got := m.Metrics().Counter("lifecycle.reloads").Value(); got != swaps {
		t.Fatalf("lifecycle.reloads = %d, want %d", got, swaps)
	}
}

// TestManagerDriftLifecycle drives the sentinel through the manager's
// observe path with synthetic observations: flag on sustained low
// confidence, then clear the flag when confidence recovers.
func TestManagerDriftLifecycle(t *testing.T) {
	_, weak, _ := fixtures(t)
	m := openParser(t, weak, Options{
		SampleEvery: 1, Window: 8, MinWindow: 4,
		ConfidenceFloor: 0.5,
	})
	rec := &core.ParsedRecord{
		Registrar: "Example Registrar",
		Blocks:    []labels.Block{labels.Registrar, labels.Null},
	}
	for i := 0; i < 8; i++ {
		m.observe(m.Current(), rec, 0.1)
	}
	if got := m.State(); got != StateDriftFlagged {
		t.Fatalf("state = %v, want drift-flagged", got)
	}
	if got := m.Flagged(); len(got) != 1 || got[0] != "Example Registrar" {
		t.Fatalf("Flagged() = %v", got)
	}
	if got := m.Metrics().Counter("lifecycle.drift.events").Value(); got != 1 {
		t.Fatalf("drift.events = %d, want 1", got)
	}

	// Recovery: enough healthy observations flush the window.
	for i := 0; i < 16; i++ {
		m.observe(m.Current(), rec, 0.99)
	}
	if got := m.State(); got != StateServing {
		t.Fatalf("state after recovery = %v, want serving", got)
	}
	if got := m.Flagged(); len(got) != 0 {
		t.Fatalf("Flagged() after recovery = %v, want empty", got)
	}

	// A record the model could not attribute to a registrar pools
	// under the synthetic key.
	anon := &core.ParsedRecord{Blocks: []labels.Block{labels.Null}}
	for i := 0; i < 8; i++ {
		m.observe(m.Current(), anon, 0.1)
	}
	if got := m.Flagged(); len(got) != 1 || got[0] != "(unattributed)" {
		t.Fatalf("Flagged() = %v, want [(unattributed)]", got)
	}
}
