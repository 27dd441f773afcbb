package tokenize_test

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/crf"
	"repro/internal/synth"
	"repro/internal/tokenize"
)

// TestMapLinesMatchesReference checks, for both CRF levels of a trained
// parser, that MapLines over the arena tokenizer yields exactly the ids
// a per-line dictionary lookup yields over the reference tokenizer, each
// line's ids capped at their length.
func TestMapLinesMatchesReference(t *testing.T) {
	recs := synth.GenerateLabeled(synth.Config{N: 160, Seed: 14, DriftFraction: 0.3})
	p, _, err := core.Train(recs[:60], core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	opts := p.Config().Tokenize
	for _, level := range []struct {
		name string
		m    *crf.Model
	}{{"block", p.BlockModel()}, {"field", p.FieldModel()}} {
		d := level.m.Dict()
		for _, rec := range recs {
			got := level.m.MapLines(tokenize.Tokenize(rec.Text, opts)).Obs
			ref := tokenize.ReferenceTokenize(rec.Text, opts)
			want := make([][]int, len(ref))
			for i, ln := range ref {
				want[i] = make([]int, 0, len(ln.Obs))
				for _, o := range ln.Obs {
					if id, ok := d.ID(o); ok {
						want[i] = append(want[i], id)
					}
				}
			}
			for i, ids := range got {
				if cap(ids) != len(ids) {
					t.Fatalf("%s model, record %s, line %d: ids not capped at their length (cap %d, len %d)",
						level.name, rec.Domain, i, cap(ids), len(ids))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s model, record %s: MapLines ids differ from the reference\n got %v\nwant %v",
					level.name, rec.Domain, got, want)
			}
		}
	}
}
