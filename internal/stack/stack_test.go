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
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/store"
	"repro/internal/survey"
	"repro/internal/synth"
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
	deadline := time.Now().Add(2 * time.Second)
	after := runtime.NumGoroutine()
	for after > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond) // exited goroutines may not be reaped yet
		after = runtime.NumGoroutine()
	}
	if after != before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines: %d before Open, %d after Close\n%s", before, after, buf[:runtime.Stack(buf, true)])
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
