package cluster

import (
	"bytes"
	"container/list"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
)

// Options configures a Node. ID is required; everything else has a
// default.
type Options struct {
	// ID is the node's stable ring identity (typically its advertised
	// shard address).
	ID string
	// Addr is the advertised shard-protocol address, reported in
	// Status; empty for in-process nodes.
	Addr string

	// Ring tunes the consistent-hash ring (vnode count, bounded-load
	// factor).
	Ring RingOptions

	// ForwardTimeout bounds one forwarded parse; <= 0 means 2s. A peer
	// that cannot answer within it is marked down and the request
	// degrades to a local cold parse.
	ForwardTimeout time.Duration
	// ApplyTimeout bounds one remote ApplyModel during a rollout
	// (artifact transfer + verify + swap); <= 0 means 30s.
	ApplyTimeout time.Duration
	// BackoffBase is the first per-peer failure backoff; doubles per
	// consecutive failure up to BackoffMax, jittered ±50%. <= 0 means
	// 100ms.
	BackoffBase time.Duration
	// BackoffMax caps the failure backoff; <= 0 means 5s.
	BackoffMax time.Duration
	// RetryAfterBase is the Retry-After hint this node attaches when
	// it sheds a peer's forwarded parse, jittered to 50-150% so a
	// fleet of forwarders spreads its retries; <= 0 means 1s.
	RetryAfterBase time.Duration

	// RemoteCache caps the remote-result/negative LRU (forwarded
	// answers and degraded fallbacks, keyed by domain+text+generation);
	// 0 means 2048, negative disables.
	RemoteCache int

	// Metrics receives cluster.* metrics; nil means a private registry.
	Metrics *obs.Registry
	// Log receives cluster events; nil discards.
	Log *obs.Logger
}

func (o Options) withDefaults() Options {
	if o.ForwardTimeout <= 0 {
		o.ForwardTimeout = 2 * time.Second
	}
	if o.ApplyTimeout <= 0 {
		o.ApplyTimeout = 30 * time.Second
	}
	if o.BackoffBase <= 0 {
		o.BackoffBase = 100 * time.Millisecond
	}
	if o.BackoffMax <= 0 {
		o.BackoffMax = 5 * time.Second
	}
	if o.RetryAfterBase <= 0 {
		o.RetryAfterBase = time.Second
	}
	if o.RemoteCache == 0 {
		o.RemoteCache = 2048
	}
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Log == nil {
		o.Log = obs.NewLogger("cluster", io.Discard)
	}
	return o
}

type nodeMetrics struct {
	localOwned  *obs.Counter   // cluster.local.owned: requests this node owned and served
	handled     *obs.Counter   // cluster.handle.parses: parses served on behalf of peers
	forwards    *obs.Counter   // cluster.forwards: requests forwarded to an owner
	forwardErrs *obs.Counter   // cluster.forward.errors: forwards that failed (non-overload)
	overloaded  *obs.Counter   // cluster.forward.overloaded: forwards shed by the owner
	degraded    *obs.Counter   // cluster.forward.degraded: forwards that fell back to local parse
	remoteHits  *obs.Counter   // cluster.remote.hits: remote-result LRU hits
	coalesced   *obs.Counter   // cluster.forward.coalesced: forwards that joined an in-flight twin
	rebalances  *obs.Counter   // cluster.ring.rebalances: membership changes
	applies     *obs.Counter   // cluster.model.applies: models applied (join or rollout)
	fetches     *obs.Counter   // cluster.model.fetches: artifacts served to joining peers
	rollouts    *obs.Counter   // cluster.rollouts: coordinated swaps initiated here
	forwardTime *obs.Histogram // cluster.forward.seconds
}

func newNodeMetrics(reg *obs.Registry) nodeMetrics {
	return nodeMetrics{
		localOwned:  reg.Counter("cluster.local.owned"),
		handled:     reg.Counter("cluster.handle.parses"),
		forwards:    reg.Counter("cluster.forwards"),
		forwardErrs: reg.Counter("cluster.forward.errors"),
		overloaded:  reg.Counter("cluster.forward.overloaded"),
		degraded:    reg.Counter("cluster.forward.degraded"),
		remoteHits:  reg.Counter("cluster.remote.hits"),
		coalesced:   reg.Counter("cluster.forward.coalesced"),
		rebalances:  reg.Counter("cluster.ring.rebalances"),
		applies:     reg.Counter("cluster.model.applies"),
		fetches:     reg.Counter("cluster.model.fetches"),
		rollouts:    reg.Counter("cluster.rollouts"),
		forwardTime: reg.Histogram("cluster.forward.seconds", obs.DurationBounds()),
	}
}

// peer is one remote member: its client plus failure-backoff state.
type peer struct {
	id     string
	client ShardClient

	failures  atomic.Uint32
	downUntil atomic.Int64 // unix nanos; 0 = up
}

func (p *peer) down() bool {
	until := p.downUntil.Load()
	return until != 0 && time.Now().UnixNano() < until
}

func (p *peer) markDown(d time.Duration) {
	p.downUntil.Store(time.Now().Add(d).UnixNano())
}

func (p *peer) reset() {
	p.failures.Store(0)
	p.downUntil.Store(0)
}

// Node is one member of the serving cluster: it owns a slice of the
// ring, serves its slice from the local serve.Server, forwards the rest
// to owners, and participates in model distribution and coordinated
// hot swaps. Node implements Backend (the receiving side of the shard
// protocol) and rdap.ParseBackend (the serving side of /parsed/).
type Node struct {
	opts Options
	id   string
	ring *Ring
	ps   *serve.Server
	mgr  *lifecycle.Manager // optional; nil = plain serve.Server
	log  *obs.Logger
	met  nodeMetrics

	// peers maps member id -> peer. Guarded by pmu; the ring is the
	// routing source of truth, peers the transport directory.
	pmu   sync.RWMutex
	peers map[string]*peer

	// remote is the generation-keyed remote-result/negative LRU;
	// remoteGen bumps on every model apply/invalidate, orphaning old
	// entries.
	remote    *remoteCache
	remoteGen atomic.Uint64

	// inflight coalesces concurrent forwards for the same key.
	fmu      sync.Mutex
	inflight map[remoteKey]*forwardCall

	// artifact holds the static FetchModel answer; version is the stamp
	// applied to locally-parsed records when no lifecycle manager is
	// attached. provider, when set, overrides artifact as the
	// FetchModel source — the registry-backed path, where the
	// authoritative bytes live on disk and move with the serving
	// pointer rather than with an in-memory copy. With neither, a node
	// with a manager serves the manager's current artifact.
	artifact atomic.Pointer[Artifact]
	provider atomic.Pointer[func() (Artifact, error)]
	version  atomic.Pointer[string]

	ready atomic.Bool
}

type forwardCall struct {
	done chan struct{}
	rec  *core.ParsedRecord
	err  error
}

// NewNode builds a cluster node over a serving layer. mgr may be nil
// (no lifecycle management; ApplyModel then rebinds ps directly and
// stamps records with the same name a manager would). The
// node adds itself to the ring and is ready immediately — use
// JoinFetchModel to gate readiness on fetching a model from a peer.
func NewNode(ps *serve.Server, mgr *lifecycle.Manager, opts Options) (*Node, error) {
	if opts.ID == "" {
		return nil, fmt.Errorf("cluster: node needs an ID")
	}
	o := opts.withDefaults()
	n := &Node{
		opts:     o,
		id:       o.ID,
		ring:     NewRing(o.Ring),
		ps:       ps,
		mgr:      mgr,
		log:      o.Log,
		met:      newNodeMetrics(o.Metrics),
		peers:    make(map[string]*peer),
		inflight: make(map[remoteKey]*forwardCall),
	}
	if o.RemoteCache > 0 {
		n.remote = newRemoteCache(o.RemoteCache)
	}
	empty := ""
	n.version.Store(&empty)
	n.ring.Add(n.id)
	n.ready.Store(true)
	reg := o.Metrics
	reg.GaugeFunc("cluster.ring.nodes", func() float64 { return float64(n.ring.Len()) })
	reg.GaugeFunc("cluster.ring.ownership.self", func() float64 {
		return n.ring.Ownership()[n.id]
	})
	if n.remote != nil {
		reg.GaugeFunc("cluster.remote.entries", func() float64 { return float64(n.remote.len()) })
	}
	return n, nil
}

// ID returns the node's ring identity.
func (n *Node) ID() string { return n.id }

// Ring returns the node's ring (shared routing state; mutate only via
// AddPeer/RemovePeer).
func (n *Node) Ring() *Ring { return n.ring }

// SetModelArtifact installs the artifact this node serves to joining
// peers via FetchModel, without swapping anything locally.
func (n *Node) SetModelArtifact(a Artifact) {
	n.artifact.Store(&a)
}

// SetModelProvider routes FetchModel through fn instead of the static
// artifact: each joining peer gets whatever fn returns at fetch time. A
// registry-backed daemon passes a closure that reads the family's
// current serving artifact, so peers always join on the model the
// registry says is serving — even if this node has not re-resolved
// since the last promote. A nil fn restores the static-artifact path.
func (n *Node) SetModelProvider(fn func() (Artifact, error)) {
	if fn == nil {
		n.provider.Store(nil)
		return
	}
	n.provider.Store(&fn)
}

// AddPeer registers a member and rebalances the ring. Replacing the
// client of an existing peer closes the old one.
func (n *Node) AddPeer(id string, client ShardClient) {
	if id == "" || id == n.id {
		return
	}
	n.pmu.Lock()
	if old, ok := n.peers[id]; ok && old.client != client {
		old.client.Close()
	}
	n.peers[id] = &peer{id: id, client: client}
	n.pmu.Unlock()
	if n.ring.Add(id) {
		n.met.rebalances.Inc()
		n.log.Info("peer joined", "peer", id, "members", n.ring.Len())
	}
}

// RemovePeer drops a member, rebalances the ring, and closes the
// peer's client. Keys it owned redistribute to the survivors; entries
// for them in remote caches age out by LRU.
func (n *Node) RemovePeer(id string) {
	n.pmu.Lock()
	p, ok := n.peers[id]
	delete(n.peers, id)
	n.pmu.Unlock()
	if ok {
		p.client.Close()
	}
	if n.ring.Remove(id) {
		n.met.rebalances.Inc()
		n.log.Info("peer left", "peer", id, "members", n.ring.Len())
	}
}

func (n *Node) peer(id string) *peer {
	n.pmu.RLock()
	p := n.peers[id]
	n.pmu.RUnlock()
	return p
}

// Owner returns the member currently owning domain under the
// bounded-load rule.
func (n *Node) Owner(domain string) string { return n.ring.LookupBounded(domain) }

// ParseDomain serves one request cluster-aware: the ring names the
// domain's owner; if that is this node (or the owner is unreachable)
// the local serving stack answers, otherwise the request forwards to
// the owner — checking the remote-result LRU first, coalescing
// concurrent identical forwards, and degrading to a local cold parse
// when the owner is down, slow, or overloaded. The name matches
// rdap.ParseBackend.
func (n *Node) ParseDomain(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	owner := n.ring.LookupBounded(domain)
	if owner == "" || owner == n.id {
		n.met.localOwned.Inc()
		n.ring.Acquire(n.id)
		defer n.ring.Release(n.id)
		return n.localParse(ctx, text)
	}
	p := n.peer(owner)
	if p == nil {
		// Membership raced (owner left between lookup and here); serve
		// locally rather than failing.
		n.met.localOwned.Inc()
		return n.localParse(ctx, text)
	}
	return n.forward(ctx, p, domain, text)
}

// localParse runs text through the local serving stack (cache →
// coalescing → worker pool).
func (n *Node) localParse(ctx context.Context, text string) (*core.ParsedRecord, error) {
	return n.ps.Parse(ctx, text)
}

// forward resolves a non-owned request through the owner, in order:
// remote-result LRU, in-flight coalescing, the wire. Failure degrades
// to a local cold parse; the degraded result is cached as a negative
// entry so a down owner is not re-asked per request.
func (n *Node) forward(ctx context.Context, p *peer, domain, text string) (*core.ParsedRecord, error) {
	k := makeRemoteKey(domain, text, n.remoteGen.Load())
	if n.remote != nil {
		if rec, ok := n.remote.get(k); ok {
			n.met.remoteHits.Inc()
			return rec, nil
		}
	}

	// Singleflight on the forward path: concurrent identical requests
	// ride one wire round trip.
	n.fmu.Lock()
	if c, ok := n.inflight[k]; ok {
		n.fmu.Unlock()
		n.met.coalesced.Inc()
		select {
		case <-c.done:
			return c.rec, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	c := &forwardCall{done: make(chan struct{})}
	n.inflight[k] = c
	n.fmu.Unlock()

	rec, negative, err := n.forwardOnce(ctx, p, domain, text)
	if n.remote != nil && err == nil {
		n.remote.add(k, rec, negative)
	}
	c.rec, c.err = rec, err
	n.fmu.Lock()
	delete(n.inflight, k)
	n.fmu.Unlock()
	close(c.done)
	return rec, err
}

// forwardOnce performs one forward attempt with per-peer timeout and
// backoff, degrading to a local cold parse on any failure. negative
// marks a degraded (locally-parsed) result, cached so the down owner is
// not re-asked for the same key while it recovers.
func (n *Node) forwardOnce(ctx context.Context, p *peer, domain, text string) (rec *core.ParsedRecord, negative bool, err error) {
	if p.down() {
		return n.degrade(ctx, p, text, ErrPeerDown)
	}
	n.met.forwards.Inc()
	n.ring.Acquire(p.id)
	start := time.Now()
	fctx, cancel := context.WithTimeout(ctx, n.opts.ForwardTimeout)
	rec, ferr := p.client.Parse(fctx, domain, text)
	cancel()
	n.ring.Release(p.id)
	n.met.forwardTime.ObserveSince(start)
	if ferr == nil {
		p.reset()
		return rec, false, nil
	}
	var ov *OverloadedError
	switch {
	case errors.As(ferr, &ov):
		// The owner shed us and said when to come back; honor its
		// (already jittered) hint.
		n.met.overloaded.Inc()
		p.markDown(ov.After)
	case errors.Is(ferr, context.Canceled):
		// Our caller gave up — not the peer's fault, no backoff.
		return nil, false, ferr
	default:
		n.met.forwardErrs.Inc()
		fails := p.failures.Add(1)
		p.markDown(backoff(n.opts.BackoffBase, n.opts.BackoffMax, fails))
		n.log.Warn("forward failed", "peer", p.id, "domain", domain, "err", ferr)
	}
	return n.degrade(ctx, p, text, ferr)
}

// degrade serves a request locally that the owner could not take — the
// "one slow peer must not stall the ring" rule. The result is correct
// (same corpus, maybe a colder cache) and marked negative so the cache
// entry is attributable to degradation, not the owner.
func (n *Node) degrade(ctx context.Context, p *peer, text string, cause error) (*core.ParsedRecord, bool, error) {
	n.met.degraded.Inc()
	rec, err := n.localParse(ctx, text)
	if err != nil {
		// Local shed on top of a dead peer: surface the local error,
		// the caller maps it to 503.
		return nil, false, err
	}
	n.log.Debug("degraded to local parse", "peer", p.id, "cause", cause)
	return rec, true, nil
}

// backoff computes the jittered exponential failure backoff.
func backoff(base, max time.Duration, failures uint32) time.Duration {
	d := base
	for i := uint32(1); i < failures && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return jitter(d)
}

// jitter spreads d to 50-150% so a fleet's retries decorrelate.
func jitter(d time.Duration) time.Duration {
	return d/2 + time.Duration(rand.Int64N(int64(d)))
}

// --- Backend (the receiving side of the shard protocol) ---

// HandleParse serves a parse on behalf of a peer. Overload maps to an
// OverloadedError carrying a jittered Retry-After hint.
func (n *Node) HandleParse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	if !n.ready.Load() {
		return nil, ErrNotReady
	}
	n.met.handled.Inc()
	n.ring.Acquire(n.id)
	rec, err := n.localParse(ctx, text)
	n.ring.Release(n.id)
	if errors.Is(err, serve.ErrOverloaded) || errors.Is(err, serve.ErrClosed) {
		return nil, &OverloadedError{After: jitter(n.opts.RetryAfterBase)}
	}
	return rec, err
}

// ModelArtifact returns the serving artifact for a joining peer: from
// the provider when one is set, else the static artifact, else the
// attached manager's current model.
func (n *Node) ModelArtifact() (Artifact, error) {
	var a Artifact
	if fn := n.provider.Load(); fn != nil {
		var err error
		if a, err = (*fn)(); err != nil {
			return Artifact{}, fmt.Errorf("%w: %v", ErrNoModel, err)
		}
	} else if p := n.artifact.Load(); p != nil {
		a = *p
	} else if n.mgr != nil {
		snap := n.mgr.Current()
		a = Artifact{Family: snap.Family, SemVer: snap.SemVer, Data: snap.Artifact}
	}
	if len(a.Data) == 0 {
		return Artifact{}, ErrNoModel
	}
	n.met.fetches.Inc()
	return a, nil
}

// ApplyModel verifies the artifact (magic, format version, length,
// CRC32C; feature dimensions on decode) and swaps it live under the
// sender's identity: through the lifecycle manager when one is
// attached (cache generation bumps atomically with the parse
// function), directly onto the serve layer otherwise. Either way the
// records are stamped "<family>/<semver>+<crc32c>". Applying the
// version the node already serves leaves its model and serving cache
// alone; verification failure leaves the old model serving. Every
// successful apply invalidates the node's remote-result cache: its
// entries were produced by peers that are swapping on their own
// stagger, and a rollout's origin has reloaded before its own apply.
func (n *Node) ApplyModel(a Artifact) (string, error) {
	version, changed, err := n.applyLocal(a)
	if err != nil {
		return "", err
	}
	n.remoteGen.Add(1) // orphan remote-result entries from the old fleet state
	n.ready.Store(true)
	if changed {
		n.met.applies.Inc()
		n.log.Info("model applied", "version", version, "bytes", len(a.Data))
	}
	return version, nil
}

// applyLocal swaps a into the local serving layer unless its version
// is already serving there.
func (n *Node) applyLocal(a Artifact) (string, bool, error) {
	if n.mgr != nil {
		snap, changed, err := n.mgr.Apply(a.Data, a.Family, a.SemVer)
		if err != nil {
			return "", false, err
		}
		return snap.Version, changed, nil
	}
	version, err := lifecycle.Identify(a.Data, a.Family, a.SemVer)
	if err != nil || version == *n.version.Load() {
		return version, false, err
	}
	p, err := store.ReadModel(bytes.NewReader(a.Data))
	if err != nil {
		return "", false, err
	}
	n.ps.SetParseFunc(func(text string) *core.ParsedRecord {
		rec := p.Parse(text)
		rec.ModelVersion = version
		return rec
	})
	n.version.Store(&version)
	n.artifact.Store(&a)
	return version, true, nil
}

// Status implements Backend.
func (n *Node) Status() PeerStatus {
	return PeerStatus{
		ID:           n.id,
		Addr:         n.opts.Addr,
		ModelVersion: n.modelVersion(),
		Generation:   n.ps.Generation(),
		Ready:        n.ready.Load(),
		Members:      n.ring.Members(),
	}
}

func (n *Node) modelVersion() string {
	if n.mgr != nil {
		return n.mgr.Current().Version
	}
	return *n.version.Load()
}

// --- Join and rollout ---

// JoinFetchModel fetches the serving WMDL from the given peer, verifies
// it, and swaps it in before the node admits traffic — the join path.
// Until it succeeds the node answers peers with ErrNotReady.
func (n *Node) JoinFetchModel(ctx context.Context, from ShardClient) (string, error) {
	n.ready.Store(false)
	a, err := from.FetchModel(ctx)
	if err != nil {
		return "", fmt.Errorf("cluster: join fetch: %w", err)
	}
	version, err := n.ApplyModel(a) // verifies CRC before swapping; sets ready
	if err != nil {
		return "", fmt.Errorf("cluster: join verify: %w", err)
	}
	n.log.Info("joined with fetched model", "version", version, "bytes", len(a.Data))
	return version, nil
}

// RolloutReport describes one coordinated model rollout.
type RolloutReport struct {
	// Version is the version string the artifact produced locally.
	Version string `json:"version"`
	// Applied lists members that verified and swapped, in ring order.
	Applied []string `json:"applied"`
	// Failed maps members that did not swap to the error.
	Failed map[string]string `json:"failed,omitempty"`
}

// Rollout coordinates a cluster-wide hot swap: the artifact is
// verified locally first, then applied member by member in ring order
// with a jittered stagger between members. Each member's ApplyModel
// bumps that member's cache generation at its own staggered instant, so
// the fleet never invalidates all caches at once — the thundering-herd
// control. A member (this node included) already serving the artifact
// under the same identity is left untouched. Members that fail keep
// their old model (and report in Failed); traffic continues throughout,
// every response attributable to exactly one model version.
func (n *Node) Rollout(ctx context.Context, a Artifact, stagger time.Duration) (RolloutReport, error) {
	rep := RolloutReport{Failed: map[string]string{}}
	if _, err := lifecycle.Identify(a.Data, a.Family, a.SemVer); err != nil {
		return rep, fmt.Errorf("cluster: rollout: %w", err)
	}
	n.met.rollouts.Inc()
	members := n.ring.Members()
	sort.Strings(members) // Members is sorted already; keep the contract explicit
	for i, id := range members {
		if i > 0 && stagger > 0 {
			select {
			case <-time.After(jitter(stagger)):
			case <-ctx.Done():
				return rep, ctx.Err()
			}
		}
		var version string
		var err error
		if id == n.id {
			version, err = n.ApplyModel(a)
		} else if p := n.peer(id); p != nil {
			actx, cancel := context.WithTimeout(ctx, n.opts.ApplyTimeout)
			version, err = p.client.ApplyModel(actx, a)
			cancel()
		} else {
			err = fmt.Errorf("no client for member")
		}
		if err != nil {
			rep.Failed[id] = err.Error()
			n.log.Warn("rollout member failed", "member", id, "err", err)
			continue
		}
		rep.Applied = append(rep.Applied, id)
		if rep.Version == "" {
			rep.Version = version
		}
	}
	// Answers forwarded to members that had not swapped yet were cached
	// after this node's own apply; orphan them too.
	n.remoteGen.Add(1)
	if len(rep.Failed) == 0 {
		rep.Failed = nil
	}
	n.log.Info("rollout complete", "version", rep.Version,
		"applied", len(rep.Applied), "failed", len(rep.Failed))
	return rep, nil
}

// --- Cluster status (the /admin/cluster view) ---

// ClusterInfo aggregates the node's own status with a live poll of
// every peer.
type ClusterInfo struct {
	Self      PeerStatus         `json:"self"`
	Ownership map[string]float64 `json:"ownership"`
	Peers     []PeerInfo         `json:"peers,omitempty"`
}

// PeerInfo is one polled peer: its status, or the error that kept it
// from answering.
type PeerInfo struct {
	ID     string     `json:"id"`
	Status PeerStatus `json:"status,omitempty"`
	Err    string     `json:"error,omitempty"`
	Down   bool       `json:"down,omitempty"`
}

// ClusterStatus polls every peer (bounded by ctx) and returns the
// aggregate view.
func (n *Node) ClusterStatus(ctx context.Context) ClusterInfo {
	info := ClusterInfo{Self: n.Status(), Ownership: n.ring.Ownership()}
	n.pmu.RLock()
	ids := make([]string, 0, len(n.peers))
	for id := range n.peers {
		ids = append(ids, id)
	}
	n.pmu.RUnlock()
	sort.Strings(ids)
	for _, id := range ids {
		p := n.peer(id)
		if p == nil {
			continue
		}
		pi := PeerInfo{ID: id, Down: p.down()}
		st, err := p.client.Status(ctx)
		if err != nil {
			pi.Err = err.Error()
		} else {
			pi.Status = st
		}
		info.Peers = append(info.Peers, pi)
	}
	return info
}

// Close closes every peer client. The serve.Server and lifecycle
// manager are owned by the caller.
func (n *Node) Close() error {
	n.pmu.Lock()
	defer n.pmu.Unlock()
	for _, p := range n.peers {
		p.client.Close()
	}
	n.peers = map[string]*peer{}
	return nil
}

// --- Remote-result LRU ---

// remoteKey identifies one forwarded answer: two independent hashes of
// domain+text plus the node's remote generation (bumped on every model
// apply, so entries from the previous fleet state stop matching) — the
// same keying stance as serve's generation-keyed cache.
type remoteKey struct {
	h1, h2 uint64
	gen    uint64
}

func makeRemoteKey(domain, text string, gen uint64) remoteKey {
	h1 := hashDomain(domain)
	// Second, independent dimension over the text with a different
	// offset basis so h1 collisions don't cascade.
	h2 := uint64(fnvOffset64 ^ 0x9e3779b97f4a7c15)
	for i := 0; i < len(text); i++ {
		h2 ^= uint64(text[i])
		h2 *= fnvPrime64
	}
	h2 ^= uint64(len(text))
	return remoteKey{h1: h1, h2: h2, gen: gen}
}

type remoteEntry struct {
	k        remoteKey
	rec      *core.ParsedRecord
	negative bool
}

// remoteCache is a mutex-guarded LRU of forwarded results. negative
// entries hold locally-degraded answers (the owner was unreachable);
// they serve hits like any other entry and age out by LRU pressure or
// generation bump.
type remoteCache struct {
	mu      sync.Mutex
	cap     int
	entries map[remoteKey]*list.Element
	lru     list.List
}

func newRemoteCache(capacity int) *remoteCache {
	return &remoteCache{cap: capacity, entries: make(map[remoteKey]*list.Element)}
}

func (c *remoteCache) get(k remoteKey) (*core.ParsedRecord, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k]
	if !ok {
		return nil, false
	}
	c.lru.MoveToFront(el)
	return el.Value.(*remoteEntry).rec, true
}

func (c *remoteCache) add(k remoteKey, rec *core.ParsedRecord, negative bool) {
	if rec == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		ent := el.Value.(*remoteEntry)
		ent.rec, ent.negative = rec, negative
		c.lru.MoveToFront(el)
		return
	}
	c.entries[k] = c.lru.PushFront(&remoteEntry{k: k, rec: rec, negative: negative})
	for c.lru.Len() > c.cap {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.entries, oldest.Value.(*remoteEntry).k)
	}
}

func (c *remoteCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
