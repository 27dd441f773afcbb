package lifecycle

import (
	"context"
	"testing"

	"repro/internal/serve"
	"repro/internal/store"
)

// swapArtifacts names the same weights under two versions, so a
// benchmark can alternate between them and every swap publishes.
func swapArtifacts(b *testing.B, m *Manager) [2]Snapshot {
	data, err := store.EncodeModel(m.Current().Parser)
	if err != nil {
		b.Fatal(err)
	}
	var arts [2]Snapshot
	for i, v := range []string{"0.0.1", "0.0.2"} {
		if arts[i], err = verifyArtifact(data, "", v, ""); err != nil {
			b.Fatal(err)
		}
	}
	return arts
}

// BenchmarkHotSwap measures the cost of publishing a new model to an
// attached serving layer — the zero-downtime promise is only honest if
// the swap itself is cheap enough to run mid-traffic.
func BenchmarkHotSwap(b *testing.B) {
	weak := weakParser(b)
	m := openParser(b, weak, Options{})
	ps := serve.New(weak, serve.Options{Workers: 2})
	defer ps.Close()
	m.Attach(ps)
	arts := swapArtifacts(b, m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.swap(weak, arts[i%2])
	}
}

// BenchmarkParseDuringSwap measures steady-state serving throughput
// with a hot swap every 2048 requests: mostly cache hits, plus the
// amortized cost of the swap and the re-parses it forces (the cache
// generation moves with the model, so each swap re-misses the hot set).
func BenchmarkParseDuringSwap(b *testing.B) {
	recs, weak := testCorpus(b), weakParser(b)
	m := openParser(b, weak, Options{})
	ps := serve.New(weak, serve.Options{Workers: 4, CacheCapacity: 256})
	defer ps.Close()
	m.Attach(ps)
	arts := swapArtifacts(b, m)

	texts := make([]string, 8)
	for i := range texts {
		texts[i] = recs[i].Text
	}
	ctx := context.Background()
	for _, txt := range texts {
		if _, err := ps.ParseWait(ctx, txt); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%2048 == 0 {
			m.swap(weak, arts[(i/2048)%2])
		}
		if _, err := ps.ParseWait(ctx, texts[i%len(texts)]); err != nil {
			b.Fatal(err)
		}
	}
}
