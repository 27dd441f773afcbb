package lifecycle

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/labels"
	"repro/internal/modelreg"
	"repro/internal/store"
)

// ErrNoHoldout reports a Retrain attempted without held-out labeled
// data to shadow-evaluate against.
var ErrNoHoldout = errors.New("lifecycle: retrain needs Options.Holdout to shadow-evaluate")

// ShadowReport is the side-by-side evaluation of the live model and a
// candidate on the held-out set: block-level (first CRF) and
// field-level (second CRF) metrics for each.
type ShadowReport struct {
	LiveBlocks, CandBlocks eval.Metrics
	LiveFields, CandFields eval.Metrics
}

// candidateNoWorse is the promotion gate: the candidate must match or
// beat the live model on both token-level (line) and record-level (doc)
// error for blocks, and — when the holdout exercises the second level —
// for fields too. "No worse" rather than "strictly better" because a
// retrain on a superset of the old labels typically reproduces the old
// model's behavior exactly on stable templates; demanding improvement
// would block refreshes that only add coverage for new templates.
func (r ShadowReport) candidateNoWorse() bool {
	if r.CandBlocks.LineErrorRate() > r.LiveBlocks.LineErrorRate() ||
		r.CandBlocks.DocErrorRate() > r.LiveBlocks.DocErrorRate() {
		return false
	}
	if r.LiveFields.Docs > 0 && r.CandFields.Docs > 0 {
		if r.CandFields.LineErrorRate() > r.LiveFields.LineErrorRate() ||
			r.CandFields.DocErrorRate() > r.LiveFields.DocErrorRate() {
			return false
		}
	}
	return true
}

// RetrainResult is the outcome of one train → shadow → promote cycle.
type RetrainResult struct {
	// Promoted reports whether the candidate went live.
	Promoted bool
	// Reason explains a rejection (empty on promotion).
	Reason string
	// Stats are the candidate's training statistics.
	Stats core.TrainStats
	// Shadow holds the side-by-side holdout evaluation.
	Shadow ShadowReport
	// Snapshot is the promoted snapshot (nil when rejected).
	Snapshot *Snapshot
	// Manifest is the candidate's registry manifest (set for promoted
	// and rejected candidates alike — rejected versions are parked at
	// the shadow stage with their losing scores on record).
	Manifest *modelreg.Manifest
}

// Retrain runs the §5.1 redeployment loop once: train a candidate on
// records (warm-started from the live model's weights, so optimization
// resumes rather than restarts), shadow-evaluate candidate and live
// model on the held-out set, and promote the candidate only if it is no
// worse on both token- and record-level error. Every candidate is
// published into the manager's model registry with its provenance and
// scores; a winner is walked candidate → shadow → serving and hot-swapped
// into every attached server, a loser is parked at shadow with the live
// model serving untouched. A manager without a registry (opened from a
// bare file or from memory) returns ErrNoRegistry: promotion is a
// registry pointer move, never an in-place overwrite. One retrain runs
// at a time — concurrent calls serialize.
func (m *Manager) Retrain(records []*labels.LabeledRecord) (RetrainResult, error) {
	if len(m.opts.Holdout) == 0 {
		return RetrainResult{}, ErrNoHoldout
	}
	if m.reg == nil {
		return RetrainResult{}, ErrNoRegistry
	}
	if len(records) == 0 {
		return RetrainResult{}, errors.New("lifecycle: retrain with no labeled records")
	}
	m.retrainMu.Lock()
	defer m.retrainMu.Unlock()

	live := m.cur.Load()
	m.setState(StateRetraining)
	// Whatever happens, land back in a serving state that reflects the
	// sentinel's current view (promotion resets it; rejection keeps any
	// standing drift flags).
	defer func() {
		if len(m.sentinel.flagged()) > 0 {
			m.setState(StateDriftFlagged)
		} else {
			m.setState(StateServing)
		}
	}()

	m.log.Info("retraining candidate", "live", live.Version,
		"records", len(records), "holdout", len(m.opts.Holdout))
	cand, stats, err := core.Retrain(live.Parser, records, m.opts.Train)
	if err != nil {
		m.met.retrainErrs.Inc()
		return RetrainResult{}, fmt.Errorf("lifecycle: retrain: %w", err)
	}

	m.setState(StateShadow)
	report, err := shadowEval(live.Parser, cand, m.opts.Holdout)
	if err != nil {
		m.met.retrainErrs.Inc()
		return RetrainResult{}, fmt.Errorf("lifecycle: shadow eval: %w", err)
	}
	res := RetrainResult{Stats: stats, Shadow: report}

	// Publish every candidate — promoted or not — as an immutable
	// version with its provenance and scores, so the training run is
	// auditable either way.
	var id Snapshot
	res.Manifest, id, err = m.publishCandidate(cand, report, len(records))
	if err != nil {
		m.met.retrainErrs.Inc()
		return res, fmt.Errorf("lifecycle: publish candidate: %w", err)
	}

	if !report.candidateNoWorse() {
		m.met.rejections.Inc()
		res.Reason = fmt.Sprintf(
			"candidate worse on holdout: blocks line %.4f vs %.4f, doc %.4f vs %.4f",
			report.CandBlocks.LineErrorRate(), report.LiveBlocks.LineErrorRate(),
			report.CandBlocks.DocErrorRate(), report.LiveBlocks.DocErrorRate())
		m.log.Warn("candidate rejected", "live", live.Version, "reason", res.Reason)
		// Park the loser at the shadow stage: it stays inspectable
		// (`model list` / `model diff`) but can never reach serving
		// without an explicit promote.
		if _, perr := m.reg.Promote(m.family, res.Manifest.Version); perr != nil {
			m.log.Warn("could not park rejected candidate", "err", perr.Error())
		}
		return res, nil
	}

	// Promote: persist first, so the in-process swap and the registry
	// can never disagree about which model is "the promoted one" — walk
	// the published version candidate → shadow → serving, each move
	// verify-gated.
	for i := 0; i < 2; i++ {
		if _, perr := m.reg.Promote(m.family, res.Manifest.Version); perr != nil {
			m.met.retrainErrs.Inc()
			return res, fmt.Errorf("lifecycle: promote: %w", perr)
		}
	}
	snap, _ := m.swap(cand, id)
	if m.opts.Tiered != nil {
		// The candidate's training records are the freshest labeled view
		// of every registrar's format; recompile L0 from them so the
		// template tier tracks the same drift the retrain just absorbed.
		// Rebuild re-arms all templates healthy — the shadow sampler
		// re-demotes any that still disagree with the new model.
		m.opts.Tiered.Rebuild(records, m.opts.Train.Tokenize)
		m.log.Info("templates rebuilt", "registrars", m.opts.Tiered.Status().Templates)
	}
	// The drift evidence indicted the old model; the new one starts
	// with a clean slate.
	m.sentinel.reset()
	m.met.driftFlagged.Set(0)
	m.met.promotions.Inc()
	res.Promoted = true
	res.Snapshot = snap
	m.log.Info("candidate promoted", "version", snap.Version,
		"blocksLine", fmt.Sprintf("%.4f", report.CandBlocks.LineErrorRate()),
		"blocksDoc", fmt.Sprintf("%.4f", report.CandBlocks.DocErrorRate()))
	return res, nil
}

// shadowEval scores both models on the same held-out labeled records.
func shadowEval(live, cand *core.Parser, holdout []*labels.LabeledRecord) (ShadowReport, error) {
	var r ShadowReport
	var err error
	if r.LiveBlocks, err = eval.EvalBlocks(live, holdout); err != nil {
		return r, err
	}
	if r.CandBlocks, err = eval.EvalBlocks(cand, holdout); err != nil {
		return r, err
	}
	if r.LiveFields, err = eval.EvalFields(live, holdout); err != nil {
		return r, err
	}
	if r.CandFields, err = eval.EvalFields(cand, holdout); err != nil {
		return r, err
	}
	return r, nil
}

// publishCandidate encodes a retrain candidate once, publishes those
// bytes into the registry with full provenance, and stages the new
// version as the family's candidate. Called with retrainMu held.
func (m *Manager) publishCandidate(cand *core.Parser, report ShadowReport, trainRecords int) (*modelreg.Manifest, Snapshot, error) {
	data, err := store.EncodeModel(cand)
	if err != nil {
		return nil, Snapshot{}, err
	}
	// The live model is the candidate's parent when the registry knows
	// it (a model applied off the wire may not be in this registry).
	parent := ""
	if live := m.cur.Load(); live.Family == m.family {
		if _, err := m.reg.Manifest(m.family, live.SemVer); err == nil {
			parent = live.SemVer
		}
	}
	manifest, err := m.reg.Publish(modelreg.PublishRequest{
		Family:   m.family,
		Parent:   parent,
		Artifact: data,
		Provenance: modelreg.Provenance{
			CorpusPath:           m.opts.CorpusPath,
			TrainRecords:         trainRecords,
			HoldoutRecords:       len(m.opts.Holdout),
			ShadowTokenAccuracy:  1 - report.CandBlocks.LineErrorRate(),
			ShadowRecordAccuracy: 1 - report.CandBlocks.DocErrorRate(),
			LiveTokenAccuracy:    1 - report.LiveBlocks.LineErrorRate(),
			LiveRecordAccuracy:   1 - report.LiveBlocks.DocErrorRate(),
			Trainer:              "lifecycle.Retrain",
		},
	})
	if err != nil {
		return nil, Snapshot{}, err
	}
	a, err := verifyArtifact(data, m.family, manifest.Version,
		m.reg.ArtifactPath(m.family, manifest.Version))
	if err != nil {
		return manifest, a, err
	}
	return manifest, a, m.reg.SetCandidate(m.family, manifest.Version)
}
