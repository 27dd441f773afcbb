package lifecycle

import (
	"context"
	"errors"
	"testing"

	"repro/internal/eval"
	"repro/internal/labels"
	"repro/internal/serve"
)

func TestRetrainPromotesBetterCandidate(t *testing.T) {
	recs, weak, _ := fixtures(t)
	reg := seedRegistry(t, weak, "default")
	m, err := Open(reg.Root(), "", Options{Holdout: holdoutSet(t)})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New(weak, serve.Options{Workers: 2})
	defer ps.Close()
	m.Attach(ps)

	res, err := m.Retrain(recs[:300])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("candidate trained on 7.5x the data was not promoted: %s", res.Reason)
	}
	if res.Snapshot == nil || m.Current() != res.Snapshot {
		t.Fatal("promoted snapshot is not the live one")
	}
	if res.Shadow.CandBlocks.Docs != len(holdoutSet(t)) {
		t.Fatalf("shadow eval covered %d docs, want %d", res.Shadow.CandBlocks.Docs, len(holdoutSet(t)))
	}

	// Promotion persisted a valid WMDL artifact in the registry whose
	// identity is in the snapshot version.
	resolved, err := reg.ResolveServing("default")
	if err != nil {
		t.Fatalf("promoted artifact unresolvable: %v", err)
	}
	if res.Snapshot.Info != resolved.Info || res.Snapshot.Version != resolved.VersionString() {
		t.Fatalf("snapshot %+v/%q != registry %+v/%q",
			res.Snapshot.Info, res.Snapshot.Version, resolved.Info, resolved.VersionString())
	}
	if res.Snapshot.Path != resolved.Path {
		t.Fatalf("snapshot path = %q, want %q", res.Snapshot.Path, resolved.Path)
	}

	// Serving switched to the promoted model.
	rec, err := ps.ParseWait(context.Background(), recs[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != res.Snapshot.Version {
		t.Fatalf("serving %q after promotion of %q", rec.ModelVersion, res.Snapshot.Version)
	}
	if got := m.State(); got != StateServing {
		t.Fatalf("state = %v, want serving", got)
	}
	if got := m.Metrics().Counter("lifecycle.retrain.promotions").Value(); got != 1 {
		t.Fatalf("promotions = %d, want 1", got)
	}
}

// TestRetrainRejectsWorseCandidate is the safety property: a candidate
// trained on corrupted labels must never be promoted — the old model
// keeps serving and the registry's serving pointer does not move.
func TestRetrainRejectsWorseCandidate(t *testing.T) {
	recs, _, strong := fixtures(t)
	reg := seedRegistry(t, strong, "default")
	m, err := Open(reg.Root(), "", Options{Holdout: holdoutSet(t)})
	if err != nil {
		t.Fatal(err)
	}
	ps := serve.New(strong, serve.Options{Workers: 2})
	defer ps.Close()
	m.Attach(ps)
	before := m.Current()

	// Corrupt a copy of the training slice: rotate every block label,
	// so the candidate learns systematically wrong structure.
	corrupt := make([]*labels.LabeledRecord, 0, 150)
	for _, r := range recs[:150] {
		c := *r
		c.Lines = append([]labels.LabeledLine(nil), r.Lines...)
		for i := range c.Lines {
			c.Lines[i].Block = labels.Block((int(c.Lines[i].Block) + 1) % labels.NumBlocks)
		}
		corrupt = append(corrupt, &c)
	}

	res, err := m.Retrain(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatal("corrupted candidate was promoted")
	}
	if res.Reason == "" {
		t.Fatal("rejection carries no reason")
	}
	if m.Current() != before {
		t.Fatal("rejection replaced the live snapshot")
	}
	if resolved, err := reg.ResolveServing("default"); err != nil || resolved.Version != "1.0.0" {
		t.Fatalf("rejected candidate moved the serving pointer: %+v, %v", resolved, err)
	}
	rec, err := ps.ParseWait(context.Background(), recs[0].Text)
	if err != nil {
		t.Fatal(err)
	}
	if rec.ModelVersion != before.Version {
		t.Fatalf("serving %q after rejection, want %q", rec.ModelVersion, before.Version)
	}
	if got := m.Metrics().Counter("lifecycle.retrain.rejections").Value(); got != 1 {
		t.Fatalf("rejections = %d, want 1", got)
	}
	if got := m.State(); got != StateServing {
		t.Fatalf("state = %v, want serving", got)
	}
}

func TestRetrainPreconditions(t *testing.T) {
	recs, weak, _ := fixtures(t)
	m := openParser(t, weak, Options{})
	if _, err := m.Retrain(recs[:10]); !errors.Is(err, ErrNoHoldout) {
		t.Fatalf("retrain without holdout: err = %v, want ErrNoHoldout", err)
	}
	// Promotion is a registry pointer move; without a registry there
	// is nowhere to promote to.
	m = openParser(t, weak, Options{Holdout: holdoutSet(t)})
	if _, err := m.Retrain(recs[:10]); !errors.Is(err, ErrNoRegistry) {
		t.Fatalf("retrain without registry: err = %v, want ErrNoRegistry", err)
	}
	m, err := Open(seedRegistry(t, weak, "default").Root(), "", Options{Holdout: holdoutSet(t)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Retrain(nil); err == nil {
		t.Fatal("retrain with no records succeeded")
	}
}

func TestCandidateNoWorseGate(t *testing.T) {
	mk := func(lines, lineErrs, docs, docErrs int) eval.Metrics {
		return eval.Metrics{Lines: lines, LineErrors: lineErrs, Docs: docs, DocErrors: docErrs}
	}
	base := mk(100, 10, 20, 5)
	cases := []struct {
		name string
		r    ShadowReport
		want bool
	}{
		{"equal", ShadowReport{LiveBlocks: base, CandBlocks: base}, true},
		{"better", ShadowReport{LiveBlocks: base, CandBlocks: mk(100, 5, 20, 2)}, true},
		{"worse lines", ShadowReport{LiveBlocks: base, CandBlocks: mk(100, 11, 20, 5)}, false},
		{"worse docs", ShadowReport{LiveBlocks: base, CandBlocks: mk(100, 10, 20, 6)}, false},
		{"fields worse", ShadowReport{
			LiveBlocks: base, CandBlocks: base,
			LiveFields: mk(50, 1, 10, 1), CandFields: mk(50, 2, 10, 1),
		}, false},
		{"fields empty ignored", ShadowReport{
			LiveBlocks: base, CandBlocks: base,
			LiveFields: mk(0, 0, 0, 0), CandFields: mk(0, 0, 0, 0),
		}, true},
	}
	for _, tc := range cases {
		if got := tc.r.candidateNoWorse(); got != tc.want {
			t.Errorf("%s: candidateNoWorse() = %v, want %v", tc.name, got, tc.want)
		}
	}
}
