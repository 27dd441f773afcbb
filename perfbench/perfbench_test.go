package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[n-1-i] = float64(i + 1) // descending, to show the input is sorted
		}
		return xs
	}
	for _, tc := range []struct {
		n        int
		want     float64
		value    float64
		pct      float64
		beyond   int
		unsorted bool
	}{
		{n: 1000, want: 0.99, value: 990, pct: 0.99, beyond: 10},
		{n: 2000, want: 0.99, value: 1980, pct: 0.99, beyond: 20},
		{n: 100, want: 0.99, value: 90, pct: 0.90, beyond: 10},
		{n: 40, want: 0.99, value: 30, pct: 0.75, beyond: 10},
		{n: 15, want: 0.99, value: 8, pct: 8.0 / 15, beyond: 7}, // too few: the median
		{n: 101, want: 0.5, value: 51, pct: 51.0 / 101, beyond: 50},
	} {
		xs := seq(tc.n)
		p := percentile(xs, tc.want)
		if p.Value != tc.value || p.N != tc.n || abs(p.Pct-tc.pct) > 1e-9 {
			t.Errorf("n=%d p%.2f: got %+v, want value %v pct %v n %d", tc.n, tc.want, p, tc.value, tc.pct, tc.n)
		}
		above := 0
		for _, x := range xs {
			if x > p.Value {
				above++
			}
		}
		if above != tc.beyond {
			t.Errorf("n=%d p%.2f: %d samples beyond %v, want %d", tc.n, tc.want, above, p.Value, tc.beyond)
		}
		if xs[0] != float64(tc.n) {
			t.Errorf("percentile reordered its input")
		}
	}
	if p := percentile(nil, 0.99); p != (Pct{}) {
		t.Errorf("empty sample: got %+v", p)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestZipfRequestsRepeatForASeed(t *testing.T) {
	a, pa := zipfRequests(7, 5000, 1000, 1.1)
	b, pb := zipfRequests(7, 5000, 1000, 1.1)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(pa, pb) {
		t.Fatal("same seed gave different request sequences")
	}
	c, _ := zipfRequests(8, 5000, 1000, 1.1)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}
	// The most popular domain is the first of the permutation, and the
	// head carries far more than a uniform share.
	counts := make(map[int32]int)
	for _, d := range a {
		if d < 0 || int(d) >= 1000 {
			t.Fatalf("request for domain %d outside the population", d)
		}
		counts[d]++
	}
	if top := counts[int32(pa[0])]; top < 5000/20 {
		t.Errorf("most popular domain got %d of 5000 requests", top)
	}
}

func TestWindowedTakesMediansOverWindows(t *testing.T) {
	var lat []float64
	var at []time.Duration
	// Ten windows of 100ms; one of them stalls.
	for w := 0; w < 10; w++ {
		v := 1.0
		if w == 3 {
			v = 50
		}
		for i := 0; i < 100; i++ {
			lat = append(lat, v)
			at = append(at, time.Duration(w)*100*time.Millisecond+time.Duration(i)*time.Millisecond)
		}
	}
	p50, tail, good, n := windowed(lat, at, time.Second+50*time.Millisecond, 100*time.Millisecond, 10)
	if n != 10 || p50 != 1 || tail != 1 || good != 1000 {
		t.Fatalf("got p50 %v tail %v goodput %v over %d windows", p50, tail, good, n)
	}
}

// TestMetricNamesAndMoves checks BENCHMARK.json against workloads.json:
// names are well formed and unique, every per-layer metric says which
// end-to-end metrics it should move on which workload, and every ledger
// row names a metric the benchmark prints.
func TestMetricNamesAndMoves(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	cfg, err := loadConfig()
	if err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	e2e, layer, seen := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, m := range bf.EndToEnd {
		e2e[m.Name] = true
	}
	for _, m := range bf.PerLayer {
		layer[m.Name] = true
	}
	for _, m := range append(append([]metricSpec(nil), bf.EndToEnd...), bf.PerLayer...) {
		if !name.MatchString(m.Name) {
			t.Errorf("metric name %q", m.Name)
		}
		if seen[m.Name] {
			t.Errorf("metric %s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	workloads := map[string]bool{}
	for _, w := range bf.Workloads {
		workloads[w.Name] = true
		if _, ok := cfg.Workloads[w.Name]; !ok {
			t.Errorf("workload %s has no parameters in workloads.json", w.Name)
		}
	}
	if len(workloads) != len(cfg.Workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, workloads.json %d", len(workloads), len(cfg.Workloads))
	}
	for m := range layer {
		mv, ok := cfg.Moves[m]
		if !ok || len(mv.Moves) == 0 {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", m)
		}
	}
	for m, mv := range cfg.Moves {
		if !layer[m] {
			t.Errorf("moves lists %s, which is not a per-layer metric", m)
		}
		for _, target := range append(append([]string(nil), mv.Moves...), mv.Still...) {
			metric, wl, ok := strings.Cut(target, "@")
			if !ok || !e2e[metric] || !workloads[wl] {
				t.Errorf("%s: %q is not an end-to-end metric on a workload", m, target)
			}
		}
	}
	ledger := map[string]bool{}
	for _, row := range cfg.Ledger {
		ledger[row.File+" "+row.Benchmark] = true
		if row.Metric == "" && row.Note == "" {
			t.Errorf("ledger row %s/%s maps to nothing and says not why", row.File, row.Benchmark)
		}
		if row.Metric != "" && !layer[row.Metric] && !e2e[row.Metric] {
			t.Errorf("ledger row %s/%s maps to unknown metric %s", row.File, row.Benchmark, row.Metric)
		}
	}
	// Every benchmark row of every BENCH_*.json baseline has a ledger row.
	files, err := filepath.Glob(filepath.Join("..", "BENCH_*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range regexp.MustCompile(`"(Benchmark[^"]*)"`).FindAllSubmatch(data, -1) {
			if key := filepath.Base(f) + " " + string(b[1]); !ledger[key] {
				t.Errorf("no ledger row for %s", key)
			}
		}
	}
}
