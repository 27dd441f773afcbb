package lifecycle

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/tiered"
)

// TestTieredDriftE2E is the drift end-to-end contract: a registrar's
// template mutates → the mutated records decline L0 and serve from the
// CRF with no stale-template fields → the sentinel flags the registrar →
// the manager demotes its template → even pristine in-template records
// of that registrar serve from L1 until re-promotion. Runs under -race
// via the lifecycle race target, with concurrent traffic during the
// demotion window.
func TestTieredDriftE2E(t *testing.T) {
	recs, _, strong := fixtures(t)
	router := tiered.New(tiered.Options{ShadowEvery: 1 << 30})
	router.Rebuild(recs, core.DefaultConfig().Tokenize)
	m := openParser(t, strong, Options{
		Tiered:      router,
		SampleEvery: 1, Window: 8, MinWindow: 4,
		ConfidenceFloor: 0.5,
	})
	fn := m.Parse

	// Find a registrar whose clean records the fast path serves.
	var clean *labels.LabeledRecord
	for _, rec := range recs {
		if out := fn(rec.Text); out.Tier == core.TierTemplate {
			clean = rec
			break
		}
	}
	if clean == nil {
		t.Fatal("no record served from L0")
	}
	reg := clean.Registrar

	// Phase 1: the registrar mutates its format. L0 must decline and the
	// served record must be the CRF's own output — not a stale-template
	// labeling — byte for byte.
	mutated := strings.ReplaceAll(clean.Text, ":", " =")
	got := fn(mutated)
	if got.Tier != core.TierCRF {
		t.Fatalf("mutated record served tier %q, want %q", got.Tier, core.TierCRF)
	}
	want, _ := strong.ParseWithConfidence(mutated)
	want.ModelVersion = m.Current().Version
	want.Tier = core.TierCRF
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mutated record differs from direct CRF parse:\n got %+v\nwant %+v", got, want)
	}

	// Phase 2: sustained low confidence on the registrar trips the
	// sentinel, which must demote the template. Concurrent in-template
	// traffic runs throughout (exercised under -race).
	if router.Demoted(reg) {
		t.Fatal("template demoted before any drift evidence")
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn(clean.Text)
				}
			}
		}()
	}
	sick := &core.ParsedRecord{
		Registrar: reg,
		Blocks:    []labels.Block{labels.Registrar, labels.Null},
	}
	for i := 0; i < 8; i++ {
		m.observe(m.Current(), sick, 0.1)
	}
	close(stop)
	wg.Wait()
	// The hammers' healthy L1 observations may have already cleared the
	// sentinel flag again — but demotion is sticky until shadow
	// re-promotion, which is what the serving guarantee rests on.
	if got := m.Metrics().Counter("lifecycle.drift.events").Value(); got == 0 {
		t.Fatal("sentinel never flagged the drifted registrar")
	}
	if !router.Demoted(reg) {
		t.Fatal("sentinel flagged the registrar but its template is not demoted")
	}

	// Phase 3: demoted templates never serve — even the pristine
	// in-template record now comes from L1, matching the CRF exactly.
	for i := 0; i < 20; i++ {
		if out := fn(clean.Text); out.Tier == core.TierTemplate {
			t.Fatalf("iteration %d: demoted template served L0", i)
		}
	}
	direct := strong.Parse(clean.Text)
	served := fn(clean.Text)
	if served.Registrar != direct.Registrar || served.DomainName != direct.DomainName ||
		served.CreatedDate != direct.CreatedDate || served.Registrant != direct.Registrant {
		t.Fatalf("L1-served fields diverge from direct parse:\n got %+v\nwant %+v", served, direct)
	}
	if st := router.Status(); st.L0Demoted == 0 || len(st.Demoted) != 1 || st.Demoted[0] != reg {
		t.Fatalf("router status %+v", st)
	}
}

// TestRetrainRebuildsTemplates: a promoted retrain must recompile L0
// from the candidate's training records and re-arm demoted templates.
func TestRetrainRebuildsTemplates(t *testing.T) {
	recs, weak, _ := fixtures(t)
	router := tiered.New(tiered.Options{ShadowEvery: 1 << 30})
	router.Rebuild(recs[:60], core.DefaultConfig().Tokenize)
	before := router.Status().Templates

	m, err := Open(seedRegistry(t, weak, "default").Root(), "", Options{
		Tiered:  router,
		Holdout: recs[300:360],
	})
	if err != nil {
		t.Fatal(err)
	}
	// Demote something so the rebuild's re-arm is observable.
	var reg string
	for _, rec := range recs[:60] {
		if router.Demote(rec.Registrar) {
			reg = rec.Registrar
			break
		}
	}
	if reg == "" {
		t.Fatal("could not demote any template")
	}

	res, err := m.Retrain(recs[:300])
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("candidate not promoted: %s", res.Reason)
	}
	st := router.Status()
	if st.Templates < before {
		t.Fatalf("template count shrank on rebuild: %d -> %d", before, st.Templates)
	}
	if len(st.Demoted) != 0 {
		t.Fatalf("rebuild left templates demoted: %v", st.Demoted)
	}
	if router.Demoted(reg) {
		t.Fatalf("template %q still demoted after promotion rebuild", reg)
	}

	// The rebound parse functions still route through the router.
	out := m.Parse(recs[0].Text)
	if out.Tier != core.TierTemplate && out.Tier != core.TierCRF {
		t.Fatalf("post-promotion parse has no tier stamp: %+v", out)
	}
}
