// Package lifecycle is the online model-lifecycle control plane: it owns
// which trained model is live, swaps models with zero downtime, watches
// live traffic for drift, and retrains + shadow-evaluates candidates so
// a worse model is never promoted.
//
// The paper's system is not a one-shot parser: WHOIS templates drift as
// registrars change formats (§5.1), so the deployed model is retrained
// on newly labeled records and redeployed while the daemons keep
// serving. This package closes that loop in-process:
//
//	     ┌──────────────────────────────────────────────┐
//	     ▼                                              │
//	Serving ──drift──▶ DriftFlagged ──▶ Retraining ──▶ Shadow
//	     ▲                                              │
//	     └────────────── promoted ◀─────────────────────┘
//	                     (rejected keeps the old model)
//
// The hot-swap mechanics live in internal/serve: a Manager holds the
// current model in an atomic Snapshot pointer and, on swap, rebinds every
// attached serve.Server to a ParseFunc closed over that snapshot.
// serve.SetParseFunc replaces the parse function and bumps the cache
// generation in a single atomic store, so no request can observe the new
// model with the old cache (or a torn mix); entries cached under the old
// generation simply stop matching and age out of the LRU. Every parse is
// stamped with the snapshot's version string, which makes "which model
// produced this answer" a property of the response, not of wall-clock
// correlation.
//
// A model has one source and one name. Open takes either a model
// registry directory (internal/modelreg; the family's serving pointer
// names the model) or a bare WMDL file, which opens as an implicit
// one-version registry at ImplicitVersion. OpenBytes does the same for
// an artifact that never touched disk (a model trained at startup).
// Whatever the source, every record is stamped
// modelreg.FormatVersionString(family, semver, crc32c), with the CRC
// taken from the verified artifact bytes, so a crawler, a daemon and a
// cluster peer serving the same artifact under the same identity agree
// on its name without coordination.
package lifecycle

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/tiered"
)

// State is the lifecycle position of the serving stack. Transitions are
// Serving → DriftFlagged (sentinel), DriftFlagged/Serving → Retraining →
// Shadow → Serving (promoted or rejected; DriftFlagged again if flags
// remain). Exported via the lifecycle.state gauge.
type State int32

const (
	// StateServing: the live model is healthy and serving.
	StateServing State = iota
	// StateDriftFlagged: at least one registrar window tripped the
	// sentinel; the live model keeps serving while labeling/retraining
	// catches up.
	StateDriftFlagged
	// StateRetraining: a candidate model is being trained.
	StateRetraining
	// StateShadow: the candidate is being evaluated against the live
	// model on held-out labeled data.
	StateShadow
)

func (s State) String() string {
	switch s {
	case StateServing:
		return "serving"
	case StateDriftFlagged:
		return "drift-flagged"
	case StateRetraining:
		return "retraining"
	case StateShadow:
		return "shadow"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// ImplicitVersion is the semver a bare WMDL file (or an in-memory
// artifact) is served under: it opens as a one-version registry.
const ImplicitVersion = "0.0.0"

// ErrNoRegistry reports a registry-only operation (Retrain) on a
// Manager whose model did not come from a model registry.
var ErrNoRegistry = errors.New("lifecycle: manager has no model registry")

// Snapshot is one immutable generation of the serving model. Swaps
// replace the whole snapshot atomically; nothing in it is ever mutated
// after publication.
type Snapshot struct {
	// Parser is the trained model.
	Parser *core.Parser
	// Seq is the in-process generation number, starting at 1 for the
	// model the Manager was opened with and incrementing per swap.
	Seq uint64
	// Info is the identity of the verified WMDL artifact.
	Info store.ModelInfo
	// Artifact is the verified WMDL bytes the parser was decoded from —
	// what a cluster node hands a joining peer.
	Artifact []byte
	// Path is the file the artifact was read from ("" when it came from
	// memory or off the wire).
	Path string
	// Family and SemVer are the registry identity the model is served
	// under; a bare file or in-memory artifact serves at ImplicitVersion.
	Family string
	SemVer string
	// Version is the string stamped into every ParsedRecord this
	// snapshot produces: "<family>/<semver>+<crc32c>".
	Version string
}

// Options configures a Manager. The zero value is usable: drift
// sentinel on with default thresholds, no retraining (Retrain errors
// without Holdout or a registry).
type Options struct {
	// Metrics receives lifecycle.* metrics; nil means a private
	// registry (reachable via Manager.Metrics). Swapped-in models are
	// instrumented against this registry only when it is non-nil, so a
	// daemon that shares one registry across core/serve/store sees
	// every model generation under the same core.* names.
	Metrics *obs.Registry
	// Log receives lifecycle events (swaps, drift flags, promotion
	// verdicts); nil discards them.
	Log *obs.Logger

	// SampleEvery scores every Nth parse with posterior confidence
	// (ParseWithConfidence costs one extra forward-backward over the
	// block lattice); the rest run the plain Viterbi path and feed only
	// the null/other-rate window. <= 0 means 8; 1 scores everything.
	SampleEvery int
	// Window is the per-registrar sliding-window size in observations;
	// <= 0 means 64.
	Window int
	// MinWindow is the minimum observations before a window may flag;
	// <= 0 means 16 (capped at Window).
	MinWindow int
	// ConfidenceFloor flags a registrar whose windowed mean minimum
	// posterior confidence falls below it; <= 0 means 0.5.
	ConfidenceFloor float64
	// NullOtherCeiling flags a registrar whose windowed mean fraction
	// of Null/Other lines exceeds it — the "model stopped recognizing
	// the template" signal (§5.1). <= 0 means 0.9.
	NullOtherCeiling float64

	// Tiered, when non-nil, is the L0 template router the manager serves
	// through: every parse function handed to attached servers is bound
	// via Tiered.Bind, a registrar that trips the drift sentinel has its
	// template demoted (the §2.3 failure mode — the template is exactly
	// what drifted), and a promoted retrain rebuilds the template set
	// from the candidate's training records so both tiers move together.
	// Plain model swaps/reloads leave L0 untouched: templates derive from
	// labeled data, not model weights.
	Tiered *tiered.Router

	// Train is the config candidates are retrained with; the zero value
	// means core.DefaultConfig().
	Train core.Config
	// Holdout is the labeled evaluation set for shadow comparison;
	// Retrain refuses to run without it, because promotion without an
	// independent yardstick is how a worse model goes live.
	Holdout []*labels.LabeledRecord
	// CorpusPath, when set, is recorded in published manifests as the
	// training-data source (Provenance.CorpusPath).
	CorpusPath string
}

func (o Options) withDefaults() Options {
	if o.Metrics == nil {
		o.Metrics = obs.NewRegistry()
	}
	if o.Log == nil {
		o.Log = obs.NewLogger("lifecycle", io.Discard)
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 8
	}
	if o.Window <= 0 {
		o.Window = 64
	}
	if o.MinWindow <= 0 {
		o.MinWindow = 16
	}
	if o.MinWindow > o.Window {
		o.MinWindow = o.Window
	}
	if o.ConfidenceFloor <= 0 {
		o.ConfidenceFloor = 0.5
	}
	if o.NullOtherCeiling <= 0 {
		o.NullOtherCeiling = 0.9
	}
	if o.Train.L2 == 0 && o.Train.MinCount == 0 {
		o.Train = core.DefaultConfig()
	}
	return o
}

type metrics struct {
	swaps       *obs.Counter
	reloads     *obs.Counter
	promotions  *obs.Counter
	rejections  *obs.Counter
	retrainErrs *obs.Counter
	state       *obs.Gauge
	modelSeq    *obs.Gauge

	driftObs     *obs.Counter
	driftEvents  *obs.Counter
	driftFlagged *obs.Gauge
	confidence   *obs.Histogram
	nullRate     *obs.Histogram
}

func newMetrics(reg *obs.Registry) metrics {
	return metrics{
		swaps:       reg.Counter("lifecycle.swaps"),
		reloads:     reg.Counter("lifecycle.reloads"),
		promotions:  reg.Counter("lifecycle.retrain.promotions"),
		rejections:  reg.Counter("lifecycle.retrain.rejections"),
		retrainErrs: reg.Counter("lifecycle.retrain.errors"),
		state:       reg.Gauge("lifecycle.state"),
		modelSeq:    reg.Gauge("lifecycle.model.seq"),

		driftObs:     reg.Counter("lifecycle.drift.observations"),
		driftEvents:  reg.Counter("lifecycle.drift.events"),
		driftFlagged: reg.Gauge("lifecycle.drift.flagged"),
		confidence:   reg.Histogram("lifecycle.drift.confidence", obs.UnitBounds()),
		nullRate:     reg.Histogram("lifecycle.drift.nullrate", obs.UnitBounds()),
	}
}

// Manager owns the live model and the loop around it. All methods are
// safe for concurrent use.
type Manager struct {
	opts Options
	log  *obs.Logger
	met  metrics

	// The model source Reload re-reads: the registry (and the family
	// whose serving pointer it follows) when Open was given a registry
	// directory, else the bare file at path; neither for OpenBytes.
	reg    *modelreg.Registry
	path   string
	family string

	cur   atomic.Pointer[Snapshot]
	seq   atomic.Uint64
	state atomic.Int32

	// mu serializes swaps and the attached-server set, so every server
	// converges on the latest snapshot even under concurrent swaps.
	mu         sync.Mutex
	attached   []*serve.Server
	instrument bool

	// retrainMu serializes train → shadow → promote, one candidate at
	// a time.
	retrainMu sync.Mutex

	sentinel *sentinel
}

// verifyArtifact checks data end to end (magic, format version, length,
// payload CRC32C) and returns the identity it is served under: a
// snapshot still without its parser and sequence number. The CRC in the
// name comes from these verified bytes, never from a caller's claim.
func verifyArtifact(data []byte, family, semver, path string) (Snapshot, error) {
	if family == "" {
		family = modelreg.DefaultFamily
	}
	if semver == "" {
		semver = ImplicitVersion
	}
	info, err := store.VerifyModelBytes(data)
	if err != nil {
		return Snapshot{}, err
	}
	return Snapshot{Info: info, Artifact: data, Path: path, Family: family, SemVer: semver,
		Version: modelreg.FormatVersionString(family, semver, info.CRC32C)}, nil
}

// Identify verifies a WMDL artifact end to end and returns the name it
// is served under as family/semver: "<family>/<semver>+<crc32c>", with
// empty family and semver meaning modelreg.DefaultFamily and
// ImplicitVersion. A cluster node without a Manager stamps what it
// applies with this same name.
func Identify(data []byte, family, semver string) (string, error) {
	a, err := verifyArtifact(data, family, semver, "")
	return a.Version, err
}

// Open builds a Manager over the model source at path: a model registry
// directory, whose serving pointer for family names the model, or a
// bare WMDL file, served as the implicit one-version registry
// <family>/ImplicitVersion. Either way the artifact is fully verified
// before it is decoded, and Reload re-reads the same source. An empty
// family means modelreg.DefaultFamily.
func Open(path, family string, opts Options) (*Manager, error) {
	m := newManager(family, opts)
	m.path = path
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("lifecycle: open model: %w", err)
	}
	if fi.IsDir() {
		if m.reg, err = modelreg.Open(path, modelreg.Options{Metrics: m.opts.Metrics, Log: m.opts.Log}); err != nil {
			return nil, err
		}
	}
	if _, _, err := m.Reload(); err != nil {
		return nil, err
	}
	return m, nil
}

// OpenBytes builds a Manager over an in-memory WMDL artifact — the
// daemon that trains its model at startup encodes it once
// (store.EncodeModel) and opens it here, so it is verified and named
// exactly like a bare file: <family>/ImplicitVersion+<crc32c>. Such a
// manager has no source to Reload from.
func OpenBytes(data []byte, family string, opts Options) (*Manager, error) {
	m := newManager(family, opts)
	if _, _, err := m.install(data, m.family, ImplicitVersion, ""); err != nil {
		return nil, err
	}
	return m, nil
}

func newManager(family string, opts Options) *Manager {
	if family == "" {
		family = modelreg.DefaultFamily
	}
	instrument := opts.Metrics != nil
	opts = opts.withDefaults()
	m := &Manager{
		opts:       opts,
		log:        opts.Log,
		met:        newMetrics(opts.Metrics),
		family:     family,
		instrument: instrument,
	}
	m.sentinel = newSentinel(opts)
	m.setState(StateServing)
	return m
}

// Metrics returns the registry lifecycle metrics land in.
func (m *Manager) Metrics() *obs.Registry { return m.opts.Metrics }

// Registry returns the model registry the manager serves from, or nil
// when the model came from a bare file or from memory.
func (m *Manager) Registry() *modelreg.Registry { return m.reg }

// Family returns the model family the manager serves.
func (m *Manager) Family() string { return m.family }

// Current returns the live snapshot.
func (m *Manager) Current() *Snapshot { return m.cur.Load() }

// State returns the lifecycle state.
func (m *Manager) State() State { return State(m.state.Load()) }

func (m *Manager) setState(s State) {
	m.state.Store(int32(s))
	m.met.state.Set(int64(s))
}

// Attach routes a serve.Server through the manager: its parse function
// is replaced with the current snapshot's stamped+observed ParseFunc
// now, and rebound on every future swap. Attaching bumps the server's
// cache generation, so results cached before attachment (unstamped, from
// an unknown model) are never served again.
func (m *Manager) Attach(ps *serve.Server) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.attached = append(m.attached, ps)
	ps.SetParseFunc(m.parseFuncFor(m.cur.Load()))
}

// Parse runs the current model over text with lifecycle stamping and
// drift observation, bypassing any serving cache.
func (m *Manager) Parse(text string) *core.ParsedRecord {
	return m.parseFuncFor(m.cur.Load())(text)
}

// parseFuncFor binds a snapshot into the ParseFunc handed to serve: it
// stamps every record with the snapshot version and feeds the drift
// sentinel. The closure captures the snapshot, not the manager's
// current pointer, so a request admitted under cache generation G
// always parses with the model that generation belongs to.
func (m *Manager) parseFuncFor(snap *Snapshot) serve.ParseFunc {
	base := func(text string) *core.ParsedRecord {
		var rec *core.ParsedRecord
		if m.sentinel.shouldScore() {
			var conf float64
			rec, conf = snap.Parser.ParseWithConfidence(text)
			rec.ModelVersion = snap.Version
			m.observe(snap, rec, conf)
		} else {
			rec = snap.Parser.Parse(text)
			rec.ModelVersion = snap.Version
		}
		return rec
	}
	if m.opts.Tiered == nil {
		return base
	}
	// Route through L0. Only L1-served records reach the sentinel above
	// — which is the point: records that fall through L0 (no template,
	// mismatch, low match confidence, demoted) are exactly the ones
	// worth scoring.
	return m.opts.Tiered.Bind(base)
}

// observe feeds one scored parse into the sentinel.
func (m *Manager) observe(snap *Snapshot, rec *core.ParsedRecord, conf float64) {
	rate := nullOtherRate(rec)
	m.met.driftObs.Inc()
	m.met.confidence.Observe(conf)
	m.met.nullRate.Observe(rate)

	reg := rec.Registrar
	if reg == "" {
		// A degraded model often stops extracting the registrar at
		// all; pool those under one synthetic key so the signal is
		// not lost.
		reg = "(unattributed)"
	}
	flagged, unflagged, total := m.sentinel.observe(reg, conf, rate)
	if !flagged && !unflagged {
		return
	}
	m.met.driftFlagged.Set(int64(total))
	if flagged {
		m.met.driftEvents.Inc()
		m.log.Warn("drift flagged",
			"registrar", reg, "model", snap.Version,
			"conf", fmt.Sprintf("%.3f", conf), "nullrate", fmt.Sprintf("%.3f", rate))
		if m.State() == StateServing {
			m.setState(StateDriftFlagged)
		}
		if m.opts.Tiered != nil && m.opts.Tiered.Demote(reg) {
			// The drifted registrar's template must stop serving: an
			// exact template is the artifact drift invalidates first
			// (§2.3). L1 takes the registrar until shadow agreement
			// re-promotes it.
			m.log.Warn("template demoted", "registrar", reg)
		}
	}
	if unflagged {
		m.log.Info("drift cleared", "registrar", reg)
		if total == 0 && m.State() == StateDriftFlagged {
			m.setState(StateServing)
		}
	}
}

// Flagged returns the registrars currently past the drift threshold,
// sorted.
func (m *Manager) Flagged() []string {
	fs := m.sentinel.flagged()
	sort.Strings(fs)
	return fs
}

// Reload re-reads the model source and swaps the result live — the one
// path behind SIGHUP and the admin reload endpoint. A registry source
// re-resolves the family's serving pointer (a promote by another
// process becomes visible); a bare file is re-read from disk. When the
// source still names the version already serving, nothing swaps and
// changed is false, so redundant reloads are free; so does a bare file
// holding the bytes already serving. The artifact is
// fully verified before anything is published: a corrupt source leaves
// the old model serving. A manager built by OpenBytes has no source and
// reports the current snapshot unchanged.
func (m *Manager) Reload() (snap *Snapshot, changed bool, err error) {
	if m.path == "" {
		return m.cur.Load(), false, nil
	}
	path, semver := m.path, ImplicitVersion
	if m.reg != nil {
		res, err := m.reg.ResolveServing(m.family)
		if err != nil {
			return nil, false, err
		}
		if cur := m.cur.Load(); cur != nil && cur.Version == res.VersionString() {
			return cur, false, nil
		}
		path, semver = res.Path, res.Version
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("lifecycle: read model: %w", err)
	}
	return m.install(data, m.family, semver, path)
}

// Apply verifies a WMDL artifact that arrived off the wire and swaps it
// live under the sender's identity (family, semver) — the cluster join
// and rollout path. Applying the version already serving does nothing:
// no swap, no cache invalidation. A corrupt or truncated transfer
// leaves the old model serving.
func (m *Manager) Apply(data []byte, family, semver string) (snap *Snapshot, changed bool, err error) {
	return m.install(data, family, semver, "")
}

// install verifies data, and decodes and publishes it unless its
// version is already serving. A bare file (a path outside a registry)
// that still holds the bytes serving changes nothing even under another
// name, so a cluster joiner keeps the fleet's name for the artifact it
// fetched across reloads.
func (m *Manager) install(data []byte, family, semver, path string) (*Snapshot, bool, error) {
	a, err := verifyArtifact(data, family, semver, path)
	if err != nil {
		return nil, false, err
	}
	cur := m.cur.Load()
	if cur != nil && (cur.Version == a.Version || path != "" && m.reg == nil && cur.Info.CRC32C == a.Info.CRC32C) {
		return cur, false, nil
	}
	p, err := store.ReadModel(bytes.NewReader(a.Artifact))
	if err != nil {
		return nil, false, err
	}
	snap, changed := m.swap(p, a)
	if changed && cur != nil {
		m.met.reloads.Inc()
	}
	return snap, changed, nil
}

// swap publishes p as the live model under the identity verifyArtifact
// gave it: the snapshot is completed, every attached server is rebound
// (which bumps its cache generation, so stale entries from the old
// model stop matching), and the snapshot is returned. A concurrent swap
// that already published the same version wins; this one then reports
// no change.
func (m *Manager) swap(p *core.Parser, id Snapshot) (*Snapshot, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.cur.Load()
	if cur != nil && cur.Version == id.Version {
		return cur, false
	}
	seq := m.seq.Add(1)
	snap := &id
	snap.Parser, snap.Seq = p, seq
	// Instrument before publication (Instrument is not safe once the
	// parser is shared — every parser reaching here was just decoded or
	// trained), and only into a caller-provided registry: instrumenting
	// into the manager's private default would silently redirect core.*
	// metrics a daemon already wired elsewhere.
	if m.instrument {
		p.Instrument(m.opts.Metrics)
	}
	m.cur.Store(snap)
	m.met.modelSeq.Set(int64(seq))
	fn := m.parseFuncFor(snap)
	for _, ps := range m.attached {
		ps.SetParseFunc(fn)
	}
	if cur != nil {
		m.met.swaps.Inc()
		m.log.Info("model swapped", "version", snap.Version, "seq", snap.Seq)
	}
	return snap, true
}

// nullOtherRate is the fraction of a record's retained lines labeled
// Null or Other — the block-level "the model recognized nothing here"
// measure. An empty record counts as fully unrecognized.
func nullOtherRate(rec *core.ParsedRecord) float64 {
	if len(rec.Blocks) == 0 {
		return 1
	}
	n := 0
	for _, b := range rec.Blocks {
		if b == labels.Null || b == labels.Other {
			n++
		}
	}
	return float64(n) / float64(len(rec.Blocks))
}
