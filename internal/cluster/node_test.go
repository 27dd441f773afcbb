package cluster

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// errClient is a ShardClient that fails every call the same way.
type errClient struct{ err error }

func (c errClient) Parse(context.Context, string, string) (*core.ParsedRecord, error) {
	return nil, c.err
}
func (c errClient) FetchModel(context.Context) (Artifact, error)         { return Artifact{}, c.err }
func (c errClient) ApplyModel(context.Context, Artifact) (string, error) { return "", c.err }
func (c errClient) Status(context.Context) (PeerStatus, error)           { return PeerStatus{}, c.err }
func (c errClient) Close() error                                         { return nil }

func TestNodeRequiresID(t *testing.T) {
	ps := serve.NewFunc(echoParse("x"), serve.Options{Workers: 1})
	defer ps.Close()
	if _, err := NewNode(ps, nil, Options{}); err == nil {
		t.Fatal("NewNode accepted an empty ID")
	}
}

func TestNodeOwnerServesLocally(t *testing.T) {
	reg := obs.NewRegistry()
	n := testNode(t, "solo", echoParse("solo"), Options{Metrics: reg})
	rec, err := n.ParseDomain(context.Background(), "example.com", "text")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "solo" {
		t.Fatalf("served by %q, want solo", rec.Registrar)
	}
	if got := reg.Counter("cluster.local.owned").Value(); got != 1 {
		t.Fatalf("local.owned = %d, want 1", got)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 0 {
		t.Fatalf("forwards = %d, want 0", got)
	}
}

func TestNodeForwardsToOwner(t *testing.T) {
	regA := obs.NewRegistry()
	regB := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: regA})
	b := testNode(t, "node-b", echoParse("node-b"), Options{Metrics: regB})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")

	rec, err := a.ParseDomain(context.Background(), d, "text-"+d)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "node-b" {
		t.Fatalf("%s served by %q, want its owner node-b", d, rec.Registrar)
	}
	if got := regA.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d, want 1", got)
	}
	if got := regB.Counter("cluster.handle.parses").Value(); got != 1 {
		t.Fatalf("peer handled = %d, want 1", got)
	}

	// Second identical request: answered from the remote-result LRU, no
	// second trip to the owner.
	if _, err := a.ParseDomain(context.Background(), d, "text-"+d); err != nil {
		t.Fatal(err)
	}
	if got := regA.Counter("cluster.remote.hits").Value(); got != 1 {
		t.Fatalf("remote.hits = %d, want 1", got)
	}
	if got := regA.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards after cache hit = %d, want still 1", got)
	}
}

func TestNodeForwardCoalesces(t *testing.T) {
	regA := obs.NewRegistry()
	block := make(chan struct{})
	var calls atomic.Int32
	bFn := func(text string) *core.ParsedRecord {
		calls.Add(1)
		<-block
		return &core.ParsedRecord{DomainName: text, Registrar: "node-b"}
	}
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: regA, ForwardTimeout: 10 * time.Second})
	b := testNode(t, "node-b", bFn, Options{})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")

	const concurrent = 8
	var wg sync.WaitGroup
	errs := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec, err := a.ParseDomain(context.Background(), d, "text-"+d)
			if err != nil {
				errs <- err
				return
			}
			if rec.Registrar != "node-b" {
				errs <- fmt.Errorf("served by %q", rec.Registrar)
			}
		}()
	}
	// Wait until at least one twin has joined the in-flight forward,
	// then let the owner's parse finish.
	deadline := time.Now().Add(5 * time.Second)
	for regA.Counter("cluster.forward.coalesced").Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("no forward ever coalesced")
		}
		time.Sleep(time.Millisecond)
	}
	close(block)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("owner parsed %d times for %d concurrent identical requests", got, concurrent)
	}
}

func TestNodeDegradesOnPeerFailure(t *testing.T) {
	reg := obs.NewRegistry()
	// BackoffBase far beyond the test's runtime: the second request must
	// land inside the failure-backoff window.
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg, BackoffBase: 10 * time.Second})
	a.AddPeer("node-b", errClient{err: errors.New("synthetic peer failure")})
	d1 := domainOwnedBy(t, a.Ring(), "node-b")
	d2 := ""
	for i := 0; i < 10000; i++ {
		d := fmt.Sprintf("other%d.com", i)
		if a.Ring().Lookup(d) == "node-b" {
			d2 = d
			break
		}
	}
	if d2 == "" {
		t.Fatal("no second domain owned by node-b")
	}

	rec, err := a.ParseDomain(context.Background(), d1, "text1")
	if err != nil {
		t.Fatal(err)
	}
	if rec.Registrar != "node-a" {
		t.Fatalf("degraded request served by %q, want local node-a", rec.Registrar)
	}
	if got := reg.Counter("cluster.forward.errors").Value(); got != 1 {
		t.Fatalf("forward.errors = %d, want 1", got)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 1 {
		t.Fatalf("degraded = %d, want 1", got)
	}

	// The peer is now inside its backoff window: the next request for
	// its keys degrades immediately without touching the wire.
	if _, err := a.ParseDomain(context.Background(), d2, "text2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d after backoff, want still 1", got)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 2 {
		t.Fatalf("degraded = %d, want 2", got)
	}
}

func TestNodeHonorsPeerRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	a.AddPeer("node-b", errClient{err: &OverloadedError{After: 100 * time.Millisecond}})
	var owned []string
	for i := 0; len(owned) < 3 && i < 20000; i++ {
		d := fmt.Sprintf("domain%d.com", i)
		if a.Ring().Lookup(d) == "node-b" {
			owned = append(owned, d)
		}
	}
	if len(owned) < 3 {
		t.Fatal("not enough domains owned by node-b")
	}

	if _, err := a.ParseDomain(context.Background(), owned[0], "t0"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forward.overloaded").Value(); got != 1 {
		t.Fatalf("overloaded = %d, want 1", got)
	}
	// Within the hint: no wire contact.
	if _, err := a.ParseDomain(context.Background(), owned[1], "t1"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 1 {
		t.Fatalf("forwards = %d inside Retry-After, want 1", got)
	}
	// After the hint expires the peer is retried.
	time.Sleep(150 * time.Millisecond)
	if _, err := a.ParseDomain(context.Background(), owned[2], "t2"); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 2 {
		t.Fatalf("forwards = %d after Retry-After, want 2", got)
	}
}

func TestNodeCancelIsNotPeerFailure(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	a.AddPeer("node-b", errClient{err: context.Canceled})
	d := domainOwnedBy(t, a.Ring(), "node-b")

	if _, err := a.ParseDomain(context.Background(), d, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled surfaced", err)
	}
	if got := reg.Counter("cluster.forward.degraded").Value(); got != 0 {
		t.Fatalf("degraded = %d on caller cancellation, want 0", got)
	}
	// The peer must not be blamed: the next request forwards again.
	if _, err := a.ParseDomain(context.Background(), d, "t"); !errors.Is(err, context.Canceled) {
		t.Fatalf("second err = %v", err)
	}
	if got := reg.Counter("cluster.forwards").Value(); got != 2 {
		t.Fatalf("forwards = %d, want 2 (no backoff on cancel)", got)
	}
}

func TestNodeHandleParseMapsOverload(t *testing.T) {
	ps := serve.NewFunc(echoParse("solo"), serve.Options{Workers: 1})
	n, err := NewNode(ps, nil, Options{ID: "solo", RetryAfterBase: 400 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	ps.Close() // ErrClosed from the serving layer must map like overload
	_, err = n.HandleParse(context.Background(), "example.com", "text")
	var ov *OverloadedError
	if !errors.As(err, &ov) {
		t.Fatalf("err = %v, want OverloadedError", err)
	}
	if ov.After < 200*time.Millisecond || ov.After > 600*time.Millisecond {
		t.Fatalf("Retry-After %s outside the 50-150%% jitter band of 400ms", ov.After)
	}
}

func TestNodeJoinFetchModel(t *testing.T) {
	artA, artB := artifacts(t)
	a := modelNode(t, "node-a", artA, Options{})
	b := modelNode(t, "node-b", artB, Options{})

	version, err := b.JoinFetchModel(context.Background(), &InprocClient{B: a})
	if err != nil {
		t.Fatal(err)
	}
	// The joiner names the model exactly as its sender does:
	// <family>/<semver>+<crc32c of the verified bytes>.
	info, err := store.VerifyModelBytes(artA.Data)
	if err != nil {
		t.Fatal(err)
	}
	if want := modelreg.FormatVersionString("default", "1.0.0", info.CRC32C); version != want {
		t.Fatalf("version = %q, want %q", version, want)
	}
	st := b.Status()
	if !st.Ready || st.ModelVersion != version {
		t.Fatalf("status after join = %+v", st)
	}
	// The fetched model now serves, stamping its version on every parse.
	rec, err := b.HandleParse(context.Background(), "example.com", "Domain Name: EXAMPLE.COM\r\n")
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != version {
		t.Fatalf("parse stamped %q, want %q", rec.ModelVersion, version)
	}
	// The joined node can itself seed the next joiner, under the same
	// identity.
	if got, err := b.ModelArtifact(); err != nil || got.SemVer != "1.0.0" || got.Family != "default" {
		t.Fatalf("joined node serves %q/%q, %v", got.Family, got.SemVer, err)
	}
	// Re-applying the serving model changes nothing.
	gen := b.Status().Generation
	if again, err := b.ApplyModel(artA); err != nil || again != version || b.Status().Generation != gen {
		t.Fatalf("re-apply: %q %v, generation %d -> %d", again, err, gen, b.Status().Generation)
	}
}

// TestNodeWithoutManagerOnlyRoutes pins the routing-only node: with no
// lifecycle manager it has no model to hand a joiner or to swap, and
// says so with ErrNoModel, while parses keep flowing to owners and
// through its own serving layer.
func TestNodeWithoutManagerOnlyRoutes(t *testing.T) {
	artA, _ := artifacts(t)
	a := testNode(t, "node-a", echoParse("node-a"), Options{})
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	link(a, b)
	ctx := context.Background()
	if _, err := (&InprocClient{B: a}).FetchModel(ctx); !errors.Is(err, ErrNoModel) {
		t.Fatalf("FetchModel err = %v, want ErrNoModel", err)
	}
	if _, err := (&InprocClient{B: a}).ApplyModel(ctx, artA); !errors.Is(err, ErrNoModel) {
		t.Fatalf("ApplyModel err = %v, want ErrNoModel", err)
	}
	rep, err := b.Rollout(ctx, artA, 0)
	if err != nil || len(rep.Applied) != 0 || len(rep.Failed) != 2 {
		t.Fatalf("rollout over routing-only nodes: %+v, %v", rep, err)
	}
	if st := a.Status(); !st.Ready || st.ModelVersion != "" {
		t.Fatalf("status after refused apply = %+v", st)
	}
	for _, owner := range []string{"node-a", "node-b"} {
		d := domainOwnedBy(t, a.Ring(), owner)
		rec, err := a.ParseDomain(ctx, d, "text-"+d)
		if err != nil || rec.Registrar != owner {
			t.Fatalf("%s (owner %s) served %+v, %v", d, owner, rec, err)
		}
	}
}

func TestNodeJoinFailsClosed(t *testing.T) {
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	if _, err := b.JoinFetchModel(context.Background(), errClient{err: errors.New("fetch refused")}); err == nil {
		t.Fatal("join succeeded against a dead peer")
	}
	if b.Status().Ready {
		t.Fatal("node ready after a failed join")
	}
	if _, err := b.HandleParse(context.Background(), "example.com", "text"); !errors.Is(err, ErrNotReady) {
		t.Fatalf("err = %v, want ErrNotReady", err)
	}
	// A peer with no artifact keeps the joiner gated too.
	empty := testNode(t, "node-c", echoParse("node-c"), Options{})
	if _, err := b.JoinFetchModel(context.Background(), &InprocClient{B: empty}); !errors.Is(err, ErrNoModel) {
		t.Fatalf("err = %v, want ErrNoModel", err)
	}
}

func TestNodeApplyModelRejectsCorruptArtifact(t *testing.T) {
	artA, artB := artifacts(t)
	n := modelNode(t, "solo", artB, Options{})
	before := n.Status()

	if _, err := n.ApplyModel(Artifact{Data: []byte("not a model")}); err == nil {
		t.Fatal("garbage artifact accepted")
	}
	// Valid header, corrupt payload: the header parses, the full CRC
	// verification must still refuse the swap.
	corrupt := append([]byte(nil), artA.Data...)
	corrupt[len(corrupt)-1] ^= 0xFF
	if _, err := n.ApplyModel(Artifact{Family: artA.Family, SemVer: artA.SemVer, Data: corrupt}); err == nil {
		t.Fatal("corrupt artifact accepted")
	}
	st := n.Status()
	if st.ModelVersion != before.ModelVersion {
		t.Fatalf("version = %q after failed applies, want %q", st.ModelVersion, before.ModelVersion)
	}
	if st.Generation != before.Generation {
		t.Fatal("cache generation bumped by a failed apply")
	}
	// The old model still serves.
	rec, err := n.ParseDomain(context.Background(), "example.com", "Domain Name: EXAMPLE.COM\r\n")
	if err != nil || rec.ModelVersion != before.ModelVersion {
		t.Fatalf("old model not serving after failed apply: %v %+v", err, rec)
	}
}

func TestNodeRollout(t *testing.T) {
	artA, artB := artifacts(t)
	regs := map[string]*obs.Registry{}
	var nodes []*Node
	for _, id := range []string{"node-a", "node-b", "node-c"} {
		reg := obs.NewRegistry()
		regs[id] = reg
		nodes = append(nodes, modelNode(t, id, artA, Options{Metrics: reg}))
	}
	link(nodes...)
	gensBefore := map[string]uint64{}
	for _, n := range nodes {
		gensBefore[n.ID()] = n.Status().Generation
	}

	rep, err := nodes[0].Rollout(context.Background(), artB, 2*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 3 || rep.Failed != nil {
		t.Fatalf("rollout report %+v, want 3 applied, none failed", rep)
	}
	if rep.Version == "" {
		t.Fatal("rollout produced no version")
	}
	for _, n := range nodes {
		st := n.Status()
		if st.ModelVersion != rep.Version {
			t.Fatalf("%s serves %q after rollout, want %q", n.ID(), st.ModelVersion, rep.Version)
		}
		if st.Generation == gensBefore[n.ID()] {
			t.Fatalf("%s cache generation did not bump on swap", n.ID())
		}
	}
	for id, reg := range regs {
		if got := reg.Counter("cluster.model.applies").Value(); got != 1 {
			t.Fatalf("%s applies = %d, want 1", id, got)
		}
	}
}

func TestNodeRolloutReportsFailures(t *testing.T) {
	artA, artB := artifacts(t)
	a := modelNode(t, "node-a", artA, Options{})
	a.AddPeer("node-dead", errClient{err: errors.New("apply refused")})

	rep, err := a.Rollout(context.Background(), artB, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Applied) != 1 || rep.Applied[0] != "node-a" {
		t.Fatalf("applied = %v, want [node-a]", rep.Applied)
	}
	if rep.Failed["node-dead"] == "" {
		t.Fatalf("failed = %v, want node-dead recorded", rep.Failed)
	}
	// The healthy member still swapped.
	if a.Status().ModelVersion != rep.Version {
		t.Fatal("initiating node did not swap")
	}
}

func TestNodeClusterStatus(t *testing.T) {
	a := testNode(t, "node-a", echoParse("node-a"), Options{})
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	link(a, b)
	a.AddPeer("node-dead", errClient{err: errors.New("unreachable")})

	info := a.ClusterStatus(context.Background())
	if info.Self.ID != "node-a" {
		t.Fatalf("self = %+v", info.Self)
	}
	if len(info.Ownership) != 3 {
		t.Fatalf("ownership over %d members, want 3", len(info.Ownership))
	}
	byID := map[string]PeerInfo{}
	for _, p := range info.Peers {
		byID[p.ID] = p
	}
	if byID["node-b"].Status.ID != "node-b" || byID["node-b"].Err != "" {
		t.Fatalf("healthy peer polled wrong: %+v", byID["node-b"])
	}
	if byID["node-dead"].Err == "" {
		t.Fatalf("dead peer reported no error: %+v", byID["node-dead"])
	}
}

func TestNodeRemovePeerRebalances(t *testing.T) {
	reg := obs.NewRegistry()
	a := testNode(t, "node-a", echoParse("node-a"), Options{Metrics: reg})
	b := testNode(t, "node-b", echoParse("node-b"), Options{})
	link(a, b)
	d := domainOwnedBy(t, a.Ring(), "node-b")
	v := a.Ring().Version()

	a.RemovePeer("node-b")
	if a.Ring().Version() == v {
		t.Fatal("ring version unchanged after leave")
	}
	if got := a.Ring().Lookup(d); got != "node-a" {
		t.Fatalf("%s owned by %q after leave, want node-a", d, got)
	}
	// The departed member's keys now serve locally.
	rec, err := a.ParseDomain(context.Background(), d, "text-"+d)
	if err != nil || rec.Registrar != "node-a" {
		t.Fatalf("post-leave serve: %v %+v", err, rec)
	}
	if got := reg.Counter("cluster.ring.rebalances").Value(); got != 2 { // join + leave
		t.Fatalf("rebalances = %d, want 2", got)
	}
}

func TestRemoteCacheLRUAndGeneration(t *testing.T) {
	c := newRemoteCache(2)
	k1 := makeRemoteKey("a.com", "t", 0)
	k2 := makeRemoteKey("b.com", "t", 0)
	k3 := makeRemoteKey("c.com", "t", 0)
	c.add(k1, &core.ParsedRecord{DomainName: "a.com"}, false)
	c.add(k2, &core.ParsedRecord{DomainName: "b.com"}, true)
	if _, ok := c.get(k1); !ok {
		t.Fatal("k1 missing")
	}
	c.add(k3, &core.ParsedRecord{DomainName: "c.com"}, false) // evicts k2 (LRU after k1's touch)
	if _, ok := c.get(k2); ok {
		t.Fatal("k2 survived past capacity")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
	// A generation bump orphans old entries by key construction.
	if k1gen1 := makeRemoteKey("a.com", "t", 1); k1gen1 == k1 {
		t.Fatal("generation not part of the remote key")
	}
}
