package tokenize

import (
	"testing"

	"repro/internal/synth"
)

// benchRecord is one generated record, the input of both tokenizer
// benchmarks and of TestTokenizeAllocs; make benchcheck gates
// BenchmarkTokenize at a fixed ratio over BenchmarkTokenizeReference,
// which holds on any machine.
var benchRecord = synth.Generate(synth.Config{N: 1, Seed: 509})[0].Render().Text

func BenchmarkTokenize(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Tokenize(benchRecord, Options{})
	}
}

func BenchmarkTokenizeReference(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		referenceTokenize(benchRecord, Options{})
	}
}
