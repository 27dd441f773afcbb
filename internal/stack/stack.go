// Package stack assembles the parse-serving stack the daemons run, in
// one place:
//
//	model source ──▶ lifecycle.Manager ──▶ [tiered.Router] ──▶ serve.Server
//	                        │                                     │
//	                        │           [store + query engine] ──▶ warm start
//	                        ▼
//	               [cluster.Node + peers + join + shard TCP server]
//
// The model comes from one source and carries one name: a model
// registry directory or a bare WMDL file (lifecycle.Open), or, with no
// source, a small parser trained at startup and opened from its encoded
// bytes (lifecycle.OpenBytes). A lifecycle.Manager always owns it, so
// every record any daemon serves is stamped
// "<family>/<semver>+<crc32c>". Reload is the one path behind SIGHUP
// and POST /admin/reload, and Close is the one teardown: it joins every
// goroutine the stack started.
package stack

import (
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/labels"
	"repro/internal/lifecycle"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/synth"
	"repro/internal/tiered"
	"repro/internal/tokenize"
)

// Config describes one daemon's serving stack. Only the model fields
// are always used; every other layer is off at its zero value.
type Config struct {
	// Model is the model source: a model registry directory (the
	// Family's serving pointer names the model) or a bare WMDL file.
	// Empty trains a small parser at startup.
	Model string
	// Family is the registry family served; empty means
	// modelreg.DefaultFamily.
	Family string
	// Seed seeds the labeled corpus a startup-trained model and the L0
	// templates are built from (drawn at Seed+7919, so it never
	// overlaps an ecosystem generated at Seed).
	Seed int64
	// Tiered serves through the L0 compiled-template fast path with CRF
	// fallback.
	Tiered bool
	// Serve configures the serving layer; its Metrics is overwritten.
	Serve serve.Options
	// Store, when set, opens the record store in this directory for the
	// stack's lifetime: the serving cache warm-starts from its newest
	// segment, and Query answers predicates over it with sidecars built
	// in the background.
	Store string
	// Cluster shards parses over a consistent-hash ring when its Listen
	// address is set.
	Cluster ClusterConfig
	// Metrics is the registry every layer reports to; nil means a
	// private one.
	Metrics *obs.Registry
	// Log receives the stack's events; nil discards them.
	Log *log.Logger
}

// ClusterConfig places the stack in a serving cluster.
type ClusterConfig struct {
	// Listen serves the shard protocol on this address; empty disables
	// clustering.
	Listen string
	// ID is the node's stable ring identity; empty means the bound
	// Listen address.
	ID string
	// Peers is a comma-separated list of peer shards, each id=addr (or
	// a bare addr, doubling as the id).
	Peers string
	// Join, when set, fetches the fleet's serving model from the shard
	// at this address (verified by CRC32C) before the node admits
	// traffic.
	Join string
}

// Stack is an assembled serving stack. The exported layers are ready to
// use; the optional ones are nil when their Config field was unset.
type Stack struct {
	Metrics *obs.Registry
	Model   *lifecycle.Manager
	Router  *tiered.Router
	Serve   *serve.Server
	Store   *store.Store
	Query   *query.Engine
	Node    *cluster.Node

	log   *log.Logger
	shard *cluster.TCPServer

	wg        sync.WaitGroup // background goroutines: sidecar build, SIGHUP loop
	hup       chan os.Signal
	closeOnce sync.Once
	closeErr  error
}

// trainingRecords is the labeled corpus behind a startup-trained model
// and the L0 templates.
func trainingRecords(seed int64) []*labels.LabeledRecord {
	return synth.GenerateLabeled(synth.Config{N: 200, Seed: seed + 7919})
}

// OpenModel opens the model source at path under a lifecycle.Manager
// (lifecycle.Open). With an empty path it trains a small parser on the
// labeled corpus for seed, encodes it once, and opens it from those
// bytes (lifecycle.OpenBytes), so it is verified and named like any
// other model.
func OpenModel(path, family string, seed int64, opts lifecycle.Options) (*lifecycle.Manager, error) {
	if path != "" {
		return lifecycle.Open(path, family, opts)
	}
	p, _, err := experiments.TrainParser(trainingRecords(seed), experiments.Quick())
	if err != nil {
		return nil, err
	}
	data, err := store.EncodeModel(p)
	if err != nil {
		return nil, err
	}
	return lifecycle.OpenBytes(data, family, opts)
}

// Open assembles the stack cfg describes. On error everything already
// built is torn down again.
func Open(cfg Config) (_ *Stack, err error) {
	s := newStack(cfg.Metrics, cfg.Log)
	reg, w := s.Metrics, s.log.Writer()
	defer func() {
		if err != nil {
			s.Close()
		}
	}()
	if cfg.Tiered {
		s.Router = tiered.NewFromRecords(trainingRecords(cfg.Seed), core.DefaultConfig().Tokenize,
			tiered.Options{Metrics: reg})
		s.log.Printf("tiered: %d registrar templates compiled (L0 fast path on)", s.Router.Status().Templates)
	}
	if cfg.Model == "" {
		s.log.Printf("no -model given; training a small parser (use -model for a full one)")
	}
	s.Model, err = OpenModel(cfg.Model, cfg.Family, cfg.Seed, lifecycle.Options{
		Metrics: reg,
		Log:     obs.NewLogger("lifecycle", w),
		Tiered:  s.Router,
	})
	if err != nil {
		return nil, err
	}
	snap := s.Model.Current()
	s.log.Printf("model: serving %s (%s)", snap.Version, snap.Info)

	opts := cfg.Serve
	opts.Metrics = reg
	s.Serve = serve.New(snap.Parser, opts)
	s.Model.Attach(s.Serve)
	if cfg.Store != "" {
		if err = s.openStore(cfg.Store); err != nil {
			return nil, err
		}
	}
	if cfg.Cluster.Listen != "" {
		if err = s.openCluster(cfg.Cluster, w); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// OpenStore assembles only the record store in dir and its query
// engine — the stack of a daemon that serves no parses. Close joins
// its background sidecar builds. Nil metrics or logger mean a private
// registry and a discarded log.
func OpenStore(dir string, metrics *obs.Registry, logger *log.Logger) (*Stack, error) {
	s := newStack(metrics, logger)
	if err := s.openStore(dir); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

func newStack(metrics *obs.Registry, logger *log.Logger) *Stack {
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	if logger == nil {
		logger = log.New(io.Discard, "", 0)
	}
	return &Stack{Metrics: metrics, log: logger}
}

// openStore opens the record store and its query engine, derives
// sidecars in the background (AutoBuild on every seal, plus one
// BuildAll over what is already there), and warm-starts the serving
// cache when there is one.
func (s *Stack) openStore(dir string) error {
	var err error
	if s.Store, err = store.Open(dir, store.Options{Metrics: s.Metrics}); err != nil {
		return err
	}
	s.Query = query.New(s.Store, query.Options{Metrics: s.Metrics})
	s.Query.AutoBuild()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if built, err := s.Query.BuildAll(); err != nil {
			s.log.Printf("query: sidecar build: %v (queries fall back where needed)", err)
		} else if built > 0 {
			s.log.Printf("query: built sidecars for %d segments", built)
		}
	}()
	if s.Serve == nil {
		return nil
	}
	version := s.Model.Current().Version
	n, err := warmStart(s.Serve.Preload, s.Store, version)
	if err != nil {
		return err
	}
	s.log.Printf("warm start: preloaded %d records parsed by %s from %s", n, version, dir)
	return nil
}

// warmStart replays the newest store segment (the records written
// closest to the previous shutdown) into the serving cache: records that
// carry both their raw text and a parsed view preload under the same
// cache key a live request for that text would compute, with their
// line titles and values re-derived (the store keeps only raw lines).
// Only records stamped by the exact model version serving are admitted
// — anything else would be misattributed. preload is the serving
// cache's Preload.
func warmStart(preload func(text string, pr *core.ParsedRecord), st *store.Store, version string) (int, error) {
	it := st.IterNewestSegment()
	defer it.Close()
	n := 0
	for it.Next() {
		rec := it.Record()
		if rec.Text == "" || rec.Parsed == nil || rec.Parsed.ModelVersion != version {
			continue // thin, unparsed, or parsed by a different model
		}
		tokenize.Resplit(rec.Parsed.Lines)
		preload(rec.Text, rec.Parsed)
		n++
	}
	return n, it.Err()
}

// openCluster builds the node, registers its peers, joins the fleet
// when asked, and serves the shard protocol.
func (s *Stack) openCluster(c ClusterConfig, w io.Writer) error {
	ln, err := net.Listen("tcp", c.Listen)
	if err != nil {
		return err
	}
	id := c.ID
	if id == "" {
		id = ln.Addr().String()
	}
	s.Node, err = cluster.NewNode(s.Serve, s.Model, cluster.Options{
		ID:      id,
		Addr:    ln.Addr().String(),
		Metrics: s.Metrics,
		Log:     obs.NewLogger("cluster", w),
	})
	if err != nil {
		ln.Close()
		return err
	}
	for _, spec := range strings.Split(c.Peers, ",") {
		if spec = strings.TrimSpace(spec); spec == "" {
			continue
		}
		pid, paddr, ok := strings.Cut(spec, "=")
		if !ok {
			pid, paddr = spec, spec
		}
		s.Node.AddPeer(pid, cluster.DialTCP(paddr))
	}
	if c.Join != "" {
		jc := cluster.DialTCP(c.Join)
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		version, err := s.Node.JoinFetchModel(ctx, jc)
		cancel()
		jc.Close()
		if err != nil {
			ln.Close()
			return err
		}
		s.log.Printf("cluster: joined via %s, serving model %s", c.Join, version)
	}
	s.shard = cluster.ServeTCP(ln, s.Node, obs.NewLogger("cluster", w))
	s.log.Printf("cluster: shard %s on %s, %d ring members", id, ln.Addr(), s.Node.Ring().Len())
	return nil
}

// Reload re-reads the model source and swaps the result live
// (lifecycle.Manager.Reload) — the one path behind SIGHUP and POST
// /admin/reload. A failed reload leaves the old model serving.
func (s *Stack) Reload() (*lifecycle.Snapshot, bool, error) {
	snap, changed, err := s.Model.Reload()
	switch {
	case err != nil:
		s.log.Printf("reload failed (still serving %s): %v", s.Model.Current().Version, err)
	case changed:
		s.log.Printf("reload: now serving %s (%s)", snap.Version, snap.Info)
	default:
		s.log.Printf("reload: %s still serving (model source unchanged)", snap.Version)
	}
	return snap, changed, err
}

// ReloadOnSIGHUP calls Reload on every SIGHUP until Close — the classic
// daemon reload contract. Call it at most once.
func (s *Stack) ReloadOnSIGHUP() {
	s.hup = make(chan os.Signal, 1)
	signal.Notify(s.hup, syscall.SIGHUP)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		for range s.hup {
			s.Reload()
		}
	}()
}

// Close tears the stack down in dependency order — shard server, node,
// serving layer (draining admitted parses, then logging its stats and
// the tier split), background goroutines, store (joining its seal
// hooks) — and returns once every goroutine the stack started has
// exited. Safe to call more than once.
func (s *Stack) Close() error {
	s.closeOnce.Do(func() {
		if s.hup != nil {
			signal.Stop(s.hup) // no signal is delivered after Stop returns
			close(s.hup)
		}
		if s.shard != nil {
			s.shard.Close()
		}
		if s.Node != nil {
			s.Node.Close()
		}
		if s.Serve != nil {
			s.Serve.Close()
			s.log.Printf("parse serving: %s", s.Serve.Stats())
		}
		if s.Router != nil {
			st := s.Router.Status()
			s.log.Printf("tiered: %d templates (%d demoted), l0 hits %d, demoted serves %d, l1 fallbacks %d",
				st.Templates, len(st.Demoted), st.L0Hits, st.L0Demoted, st.L1Fallbacks)
		}
		s.wg.Wait()
		if s.Store != nil {
			if err := s.Store.Close(); err != nil {
				s.closeErr = fmt.Errorf("stack: close store: %w", err)
			}
		}
	})
	return s.closeErr
}
