package stack

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/leakcheck"
	"repro/internal/modelreg"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// Shared fixtures, trained once per test binary: two small models
// saved as WMDL files.
var (
	fixOnce    sync.Once
	fixDir     string
	fixRecs    []*labels.LabeledRecord
	fixA, fixB string // artifact paths
	fixErr     error
)

func TestMain(m *testing.M) {
	code := m.Run()
	if fixDir != "" {
		os.RemoveAll(fixDir)
	}
	os.Exit(code)
}

func models(t *testing.T) (recs []*labels.LabeledRecord, fileA, fileB string) {
	t.Helper()
	fixOnce.Do(func() {
		fixRecs = synth.GenerateLabeled(synth.Config{N: 80, Seed: 31})
		var err error
		if fixDir, err = os.MkdirTemp("", "stack-models"); err != nil {
			fixErr = err
			return
		}
		pA, _, err := core.Train(fixRecs[:30], core.DefaultConfig())
		if err != nil {
			fixErr = err
			return
		}
		pB, _, err := core.Retrain(pA, fixRecs[:60], core.DefaultConfig())
		if err != nil {
			fixErr = err
			return
		}
		fixA, fixB = filepath.Join(fixDir, "a.wmdl"), filepath.Join(fixDir, "b.wmdl")
		if fixErr = store.SaveModel(pA, fixA); fixErr == nil {
			fixErr = store.SaveModel(pB, fixB)
		}
	})
	if fixErr != nil {
		t.Fatal(fixErr)
	}
	return fixRecs, fixA, fixB
}

// registry publishes fileA as default/1.0.0 (serving) and fileB as
// default/1.1.0 (candidate).
func registry(t *testing.T, fileA, fileB string) *modelreg.Registry {
	t.Helper()
	reg, err := modelreg.Open(t.TempDir(), modelreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []struct{ path, version, parent string }{
		{fileA, "1.0.0", ""}, {fileB, "1.1.0", "1.0.0"},
	} {
		if _, err := reg.Publish(modelreg.PublishRequest{
			Family: modelreg.DefaultFamily, Version: v.version, Parent: v.parent, ArtifactPath: v.path,
		}); err != nil {
			t.Fatal(err)
		}
		if err := reg.SetCandidate(modelreg.DefaultFamily, v.version); err != nil {
			t.Fatal(err)
		}
		if v.version == "1.0.0" {
			for i := 0; i < 2; i++ {
				if _, err := reg.Promote(modelreg.DefaultFamily, v.version); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	return reg
}

// canonical is the stamp for the artifact at path served as
// default/<semver>.
func canonical(t *testing.T, path, semver string) string {
	t.Helper()
	info, err := store.VerifyModel(path)
	if err != nil {
		t.Fatal(err)
	}
	return modelreg.FormatVersionString(modelreg.DefaultFamily, semver, info.CRC32C)
}

func open(t *testing.T, cfg Config) *Stack {
	t.Helper()
	s, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func post(t *testing.T, h http.Handler, target string) map[string]any {
	t.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, target, nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("POST %s = %d: %s", target, rr.Code, rr.Body.String())
	}
	var body map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
		t.Fatalf("POST %s: %v", target, err)
	}
	return body
}

func TestModelSourcesShareOneName(t *testing.T) {
	recs, fileA, fileB := models(t)
	reg := registry(t, fileA, fileB)

	// A bare file is the implicit one-version registry at 0.0.0; the
	// registry names its serving version; both carry the CRC of the
	// same verified bytes.
	bare := open(t, Config{Model: fileA})
	if got, want := bare.Model.Current().Version, canonical(t, fileA, "0.0.0"); got != want {
		t.Fatalf("bare file serves %q, want %q", got, want)
	}
	fromReg := open(t, Config{Model: reg.Root()})
	if got, want := fromReg.Model.Current().Version, canonical(t, fileA, "1.0.0"); got != want {
		t.Fatalf("registry serves %q, want %q", got, want)
	}
	rec, err := fromReg.Serve.Parse(context.Background(), recs[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != fromReg.Model.Current().Version {
		t.Fatalf("served record stamped %q", rec.ModelVersion)
	}
	// A family with the same weights names them under its own family.
	other := open(t, Config{Model: fileA, Family: "tld-com"})
	info, _ := store.VerifyModel(fileA)
	if got, want := other.Model.Current().Version, modelreg.FormatVersionString("tld-com", "0.0.0", info.CRC32C); got != want {
		t.Fatalf("family stamp %q, want %q", got, want)
	}
	if _, err := Open(Config{Model: filepath.Join(t.TempDir(), "missing.wmdl")}); err == nil {
		t.Fatal("Open of a missing model succeeded")
	}
}

// TestClusteredPromoteStampsOnce drives a registry promote through the
// admin endpoint on the origin of a two-node cluster: both nodes must
// end up stamping the registry's canonical name, and the origin's cache
// must be invalidated exactly once — its own rollout apply is a no-op —
// while the answers it cached from the peer before the promote are
// dropped.
func TestClusteredPromoteStampsOnce(t *testing.T) {
	recs, fileA, fileB := models(t)
	reg := registry(t, fileA, fileB)

	origin := open(t, Config{Model: reg.Root(), Cluster: ClusterConfig{Listen: "127.0.0.1:0", ID: "a"}})
	originAddr := origin.Node.Status().Addr
	// The peer starts on the bare file and joins the fleet's model.
	peer := open(t, Config{Model: fileA, Cluster: ClusterConfig{
		Listen: "127.0.0.1:0", ID: "b", Peers: "a=" + originAddr, Join: originAddr,
	}})
	origin.Node.AddPeer("b", cluster.DialTCP(peer.Node.Status().Addr))

	v1 := canonical(t, fileA, "1.0.0")
	if got := peer.Model.Current().Version; got != v1 {
		t.Fatalf("joined peer serves %q, want %q", got, v1)
	}
	// Forward the peer's domains through the origin before the promote,
	// so its remote-result cache holds v1 answers the promote must drop.
	ctx := context.Background()
	sample := recs[:16]
	for _, r := range sample {
		if _, err := origin.Node.ParseDomain(ctx, r.Domain, r.Text); err != nil {
			t.Fatal(err)
		}
	}
	if origin.Metrics.Counter("cluster.forwards").Value() == 0 {
		t.Fatal("no sample domain is owned by the peer")
	}

	mux := http.NewServeMux()
	origin.AdminHandlers(mux)
	gen := origin.Serve.Generation()
	if body := post(t, mux, "/admin/model/promote?version=1.1.0"); body["stage"] != "shadow" {
		t.Fatalf("promote to shadow: %v", body)
	}
	if origin.Serve.Generation() != gen {
		t.Fatal("shadow promote invalidated the origin's cache")
	}
	body := post(t, mux, "/admin/model/promote?version=1.1.0")
	if body["stage"] != "serving" || body["swapped"] != true {
		t.Fatalf("promote to serving: %v", body)
	}
	if got := origin.Serve.Generation(); got != gen+1 {
		t.Fatalf("origin cache generation %d -> %d, want exactly one bump", gen, got)
	}
	if got := origin.Metrics.Counter("cluster.model.applies").Value(); got != 0 {
		t.Fatalf("origin re-applied its own model %d times", got)
	}

	v2 := canonical(t, fileB, "1.1.0")
	for _, s := range []*Stack{origin, peer} {
		if got := s.Model.Current().Version; got != v2 {
			t.Fatalf("%s serves %q, want %q", s.Node.ID(), got, v2)
		}
		if got := s.Node.Status().ModelVersion; got != v2 {
			t.Fatalf("%s status %q, want %q", s.Node.ID(), got, v2)
		}
		// Whichever node owns the domain, the answer carries v2.
		for _, r := range sample {
			rec, err := s.Node.ParseDomain(ctx, r.Domain, r.Text)
			if err != nil {
				t.Fatal(err)
			}
			if rec.ModelVersion != v2 {
				t.Fatalf("%s answered %s stamped %q, want %q", s.Node.ID(), r.Domain, rec.ModelVersion, v2)
			}
		}
	}
}

// TestJoinerFetchesLiveModel pins the model-distribution contract: a
// registry pointer moved out of band, with no reload, does not reach a
// joining peer — it fetches the model the origin serves, so the ring
// never splits across versions. The move reaches the fleet only
// through the origin's promote endpoint (Reload plus Rollout).
func TestJoinerFetchesLiveModel(t *testing.T) {
	_, fileA, fileB := models(t)
	reg := registry(t, fileA, fileB)
	origin := open(t, Config{Model: reg.Root(), Cluster: ClusterConfig{Listen: "127.0.0.1:0", ID: "a"}})
	for i := 0; i < 2; i++ { // candidate → shadow → serving, behind the origin's back
		if _, err := reg.Promote(modelreg.DefaultFamily, "1.1.0"); err != nil {
			t.Fatal(err)
		}
	}
	originAddr := origin.Node.Status().Addr
	peer := open(t, Config{Model: fileB, Cluster: ClusterConfig{
		Listen: "127.0.0.1:0", ID: "b", Peers: "a=" + originAddr, Join: originAddr,
	}})
	origin.Node.AddPeer("b", cluster.DialTCP(peer.Node.Status().Addr))

	v1, v2 := canonical(t, fileA, "1.0.0"), canonical(t, fileB, "1.1.0")
	for _, s := range []*Stack{origin, peer} {
		if got := s.Model.Current().Version; got != v1 {
			t.Fatalf("%s serves %q after the out-of-band promote, want the origin's %q", s.Node.ID(), got, v1)
		}
	}

	mux := http.NewServeMux()
	origin.AdminHandlers(mux)
	body := post(t, mux, "/admin/model/promote?version=1.1.0")
	if body["stage"] != "serving" || body["serving"] != v2 || body["swapped"] != true {
		t.Fatalf("promote of the registry's serving version: %v", body)
	}
	for _, s := range []*Stack{origin, peer} {
		if got := s.Node.Status().ModelVersion; got != v2 {
			t.Fatalf("%s serves %q after the promote, want %q", s.Node.ID(), got, v2)
		}
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/model", nil))
	var model map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &model); err != nil || model["version"] != v2 || model["state"] != "serving" {
		t.Fatalf("GET /admin/model = %s (%v)", rr.Body.String(), err)
	}
}

// TestDecodedAnswersRenderLikeLocalParses: a /parsed answer forwarded
// from the owning node over the shard protocol, and one preloaded from
// the store at warm start, both come through the record codec, which
// keeps only each line's raw text. Each must render the same /parsed
// JSON as a local parse of the same text, line titles and values
// included.
func TestDecodedAnswersRenderLikeLocalParses(t *testing.T) {
	recs, fileA, _ := models(t)
	sample := recs[:24]
	render := func(name string, rec *core.ParsedRecord) string {
		b, err := json.Marshal(rdap.ParsedFromRecord(name, rec))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	ctx := context.Background()

	a := open(t, Config{Model: fileA, Cluster: ClusterConfig{Listen: "127.0.0.1:0", ID: "a"}})
	b := open(t, Config{Model: fileA, Cluster: ClusterConfig{
		Listen: "127.0.0.1:0", ID: "b", Peers: "a=" + a.Node.Status().Addr,
	}})
	a.Node.AddPeer("b", cluster.DialTCP(b.Node.Status().Addr))
	for _, r := range sample {
		got, err := a.Node.ParseDomain(ctx, r.Domain, r.Text)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := render(r.Domain, got), render(r.Domain, a.Model.Parse(r.Text)); g != w {
			t.Fatalf("%s via the cluster renders\n%s\nwant\n%s", r.Domain, g, w)
		}
	}
	if a.Metrics.Counter("cluster.forwards").Value() == 0 {
		t.Fatal("no sample domain is owned by the peer")
	}

	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sample {
		if err := st.Append(&store.Record{Domain: r.Domain, Text: r.Text, Parsed: a.Model.Parse(r.Text)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	warm := open(t, Config{Model: fileA, Store: dir})
	for _, r := range sample {
		got, err := warm.Serve.Parse(ctx, r.Text)
		if err != nil {
			t.Fatal(err)
		}
		if g, w := render(r.Domain, got), render(r.Domain, warm.Model.Parse(r.Text)); g != w {
			t.Fatalf("%s after warm start renders\n%s\nwant\n%s", r.Domain, g, w)
		}
	}
	if st := warm.Serve.Stats(); st.Preloads == 0 || st.Hits != uint64(len(sample)) {
		t.Fatalf("warm start served %d of %d from %d preloads", st.Hits, len(sample), st.Preloads)
	}
}

// TestReloadFollowsBareFile pins the file source: the admin reload is a
// no-op until the file changes, then swaps under the same implicit
// version with the new CRC.
func TestReloadFollowsBareFile(t *testing.T) {
	_, fileA, fileB := models(t)
	path := filepath.Join(t.TempDir(), "parser.wmdl")
	data, err := os.ReadFile(fileA)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s := open(t, Config{Model: path, Tiered: true})
	mux := http.NewServeMux()
	s.AdminHandlers(mux)
	if body := post(t, mux, "/admin/reload"); body["changed"] != false {
		t.Fatalf("idle reload: %v", body)
	}
	if data, err = os.ReadFile(fileB); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	body := post(t, mux, "/admin/reload")
	if want := canonical(t, fileB, "0.0.0"); body["changed"] != true || body["version"] != want {
		t.Fatalf("reload after replace: %v, want %s", body, want)
	}
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, "/admin/tiered", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("GET /admin/tiered = %d", rr.Code)
	}
	// No registry: the registry endpoints are not mounted.
	rr = httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/admin/model/promote?version=1.0.0", nil))
	if rr.Code != http.StatusNotFound {
		t.Fatalf("promote without a registry = %d, want 404", rr.Code)
	}
}

// TestCloseJoinsEveryGoroutine assembles rdapd's fullest configuration —
// a store with sealed segments, the L0 router, and a two-node cluster
// over loopback TCP with the SIGHUP loop armed — pushes traffic through
// it, and requires Close to return the goroutine count to where it was
// before Open.
func TestCloseJoinsEveryGoroutine(t *testing.T) {
	recs, fileA, _ := models(t)
	version := canonical(t, fileA, "0.0.0")
	dir := seedStore(t, recs, version)

	// os/signal starts its watcher goroutine once per process; start
	// it before counting.
	c := make(chan os.Signal, 1)
	signal.Notify(c, syscall.SIGHUP)
	signal.Stop(c)
	before := runtime.NumGoroutine()

	a, err := Open(Config{Model: fileA, Tiered: true, Store: dir,
		Cluster: ClusterConfig{Listen: "127.0.0.1:0", ID: "a"}})
	if err != nil {
		t.Fatal(err)
	}
	if a.Serve.Stats().Preloads == 0 {
		t.Fatal("warm start preloaded nothing from a store stamped by the serving model")
	}
	b, err := Open(Config{Model: fileA, Tiered: true, Cluster: ClusterConfig{
		Listen: "127.0.0.1:0", ID: "b", Peers: "a=" + a.Node.Status().Addr, Join: a.Node.Status().Addr,
	}})
	if err != nil {
		a.Close()
		t.Fatal(err)
	}
	a.Node.AddPeer("b", cluster.DialTCP(b.Node.Status().Addr))
	a.ReloadOnSIGHUP()
	b.ReloadOnSIGHUP()
	ctx := context.Background()
	for i, r := range recs {
		entry := a
		if i%2 == 1 {
			entry = b
		}
		if _, err := entry.Node.ParseDomain(ctx, r.Domain, r.Text); err != nil {
			t.Fatal(err)
		}
	}
	if a.Metrics.Counter("cluster.forwards").Value()+b.Metrics.Counter("cluster.forwards").Value() == 0 {
		t.Fatal("no request crossed the ring")
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if after := leakcheck.Goroutines(t, before); after != before {
		t.Fatalf("goroutines: %d before Open, %d after Close", before, after)
	}
}

// TestWarmStartDoesNotPinText: every answer the warm start preloads
// keeps none of its record's raw text alive — the cache holds answers,
// not texts.
func TestWarmStartDoesNotPinText(t *testing.T) {
	recs, _, _ := models(t)
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	const version = "default/1.0.0+deadbeef"
	for _, r := range recs[:20] {
		lines := tokenize.Tokenize(r.Text, tokenize.Options{})
		pr := &core.ParsedRecord{
			Lines:        lines,
			Blocks:       make([]labels.Block, len(lines)),
			Fields:       make([]labels.Field, len(lines)),
			DomainName:   r.Domain,
			Registrar:    r.Registrar,
			NameServers:  []string{"ns1." + r.Domain},
			ModelVersion: version,
		}
		if err := st.Append(&store.Record{Domain: r.Domain, Text: r.Text, Parsed: pr}); err != nil {
			t.Fatal(err)
		}
	}
	var strs int
	n, err := warmStart(func(text string, pr *core.ParsedRecord) {
		for _, s := range leakcheck.Strings(pr) {
			strs++
			if leakcheck.Overlaps(s, text) {
				t.Fatalf("preloaded answer for %s: %q points into the raw text", pr.DomainName, s)
			}
		}
	}, st, version)
	if err != nil || n != 20 || strs < 20*10 {
		t.Fatalf("warm start preloaded %d records with %d strings (%v); want 20", n, strs, err)
	}
}

// seedStore writes a store of several sealed segments whose records are
// parsed and stamped with version.
func seedStore(t *testing.T, recs []*labels.LabeledRecord, version string) string {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir, store.Options{SegmentBytes: 8 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range recs {
		pr := &core.ParsedRecord{DomainName: r.Domain, Registrar: r.Registrar, ModelVersion: version}
		f := survey.FactsFrom(pr, false)
		if err := st.Append(&store.Record{Domain: fmt.Sprintf("%s-%d", r.Domain, i), Text: r.Text, Parsed: pr, Facts: f}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return dir
}
