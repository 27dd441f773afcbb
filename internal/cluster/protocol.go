package cluster

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
)

// The shard protocol is deliberately tiny — four operations cover
// routing, model distribution, coordinated swaps, and health:
//
//	Parse       ask the owning shard for a domain's parsed record
//	FetchModel  pull the serving WMDL artifact and its identity (join path)
//	ApplyModel  push a WMDL artifact and its identity and swap it live
//	            (rollout path)
//	Status      node identity, model version, generation, membership
//
// ShardClient is the caller's view, Backend the receiver's; both are
// transport-agnostic. InprocClient wires a client straight onto a
// Backend for tests and single-process clusters; DialTCP/ServeTCP speak
// the length-prefixed CRC32C wire format from codec.go.

// Protocol errors.
var (
	// ErrPeerOverloaded reports that the remote shard shed the request
	// (its admission queue was full). Carries a Retry-After hint via
	// OverloadedError; forwarders back off the peer and degrade to a
	// local parse rather than retrying in a tight loop.
	ErrPeerOverloaded = errors.New("cluster: peer overloaded")
	// ErrPeerDown reports that the peer is inside its failure-backoff
	// window and was not contacted at all.
	ErrPeerDown = errors.New("cluster: peer down (backing off)")
	// ErrNoModel reports that the node has no WMDL artifact to serve.
	ErrNoModel = errors.New("cluster: no model artifact available")
	// ErrNotReady reports that the node has not finished joining (its
	// model fetch has not been verified yet).
	ErrNotReady = errors.New("cluster: node not ready")
)

// OverloadedError is ErrPeerOverloaded plus the peer's jittered
// Retry-After hint. errors.Is(err, ErrPeerOverloaded) matches it.
type OverloadedError struct {
	// After is how long the peer asks us to stay away. Already
	// jittered at the peer, so a fleet of forwarders that all hit the
	// same overloaded shard spreads its retries instead of
	// re-converging on the same instant.
	After time.Duration
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("cluster: peer overloaded, retry after %s", e.After)
}

// Is makes errors.Is(err, ErrPeerOverloaded) true for OverloadedError.
func (e *OverloadedError) Is(target error) bool { return target == ErrPeerOverloaded }

// Artifact is a WMDL model in transit together with the registry
// identity its sender serves it under. The receiver verifies Data and
// stamps its records "<Family>/<SemVer>+<crc32c>" (lifecycle.Identify),
// with the CRC taken from the verified bytes — so every node serving
// the artifact names it the same way as the node it came from.
type Artifact struct {
	Family string
	SemVer string
	Data   []byte
}

// PeerStatus is one node's self-description, returned by the Status
// operation and aggregated by /admin/cluster.
type PeerStatus struct {
	// ID is the node's stable ring identity.
	ID string `json:"id"`
	// Addr is the advertised shard-protocol address ("" in-process).
	Addr string `json:"addr,omitempty"`
	// ModelVersion is the version stamp of the serving model ("" when
	// unversioned).
	ModelVersion string `json:"model_version,omitempty"`
	// Generation is the node's serving-cache generation — it bumps on
	// every model swap or invalidation, so a rollout is observable as a
	// staggered wave of generation bumps across the fleet.
	Generation uint64 `json:"generation"`
	// Ready reports whether the node is admitting traffic (a joining
	// node is not ready until its fetched model verifies).
	Ready bool `json:"ready"`
	// Members is the node's view of the ring membership.
	Members []string `json:"members,omitempty"`
}

// ShardClient is the transport-agnostic view of one peer shard. All
// methods honor ctx cancellation/deadlines. Implementations must be
// safe for concurrent use.
type ShardClient interface {
	// Parse asks the peer to serve domain's parsed record (through its
	// own cache/coalescing stack). Overload surfaces as
	// ErrPeerOverloaded (an *OverloadedError with a Retry-After hint).
	Parse(ctx context.Context, domain, text string) (*core.ParsedRecord, error)
	// FetchModel returns the peer's serving WMDL artifact and its
	// identity. The caller must verify the bytes before serving — the
	// join path depends on it.
	FetchModel(ctx context.Context) (Artifact, error)
	// ApplyModel pushes a WMDL artifact to the peer, which verifies
	// and hot-swaps it, returning the new model version. The rollout
	// path: each ApplyModel that changes the peer's model bumps its
	// cache generation.
	ApplyModel(ctx context.Context, a Artifact) (string, error)
	// Status returns the peer's self-description.
	Status(ctx context.Context) (PeerStatus, error)
	// Close releases transport resources.
	Close() error
}

// Backend is the receiving side of the shard protocol — what a
// transport server dispatches into. *Node implements it.
type Backend interface {
	// HandleParse serves a parse on behalf of a peer.
	HandleParse(ctx context.Context, domain, text string) (*core.ParsedRecord, error)
	// ModelArtifact returns the serving WMDL artifact, or ErrNoModel.
	ModelArtifact() (Artifact, error)
	// ApplyModel verifies the artifact and swaps it live, returning the
	// new model version.
	ApplyModel(a Artifact) (string, error)
	// Status returns the node's self-description.
	Status() PeerStatus
}

// InprocClient adapts a Backend into a ShardClient with direct calls —
// the in-process transport used by tests and single-process multi-node
// setups. The zero cost of the transport is also what the
// BenchmarkShardForward figure isolates: forward overhead without wire
// time.
type InprocClient struct {
	B Backend
}

// Parse implements ShardClient.
func (c *InprocClient) Parse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return c.B.HandleParse(ctx, domain, text)
}

// FetchModel implements ShardClient.
func (c *InprocClient) FetchModel(ctx context.Context) (Artifact, error) {
	if err := ctx.Err(); err != nil {
		return Artifact{}, err
	}
	return c.B.ModelArtifact()
}

// ApplyModel implements ShardClient.
func (c *InprocClient) ApplyModel(ctx context.Context, a Artifact) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return c.B.ApplyModel(a)
}

// Status implements ShardClient.
func (c *InprocClient) Status(ctx context.Context) (PeerStatus, error) {
	if err := ctx.Err(); err != nil {
		return PeerStatus{}, err
	}
	return c.B.Status(), nil
}

// Close implements ShardClient.
func (c *InprocClient) Close() error { return nil }
