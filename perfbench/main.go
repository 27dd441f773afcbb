// Command perfbench is the repository's end-to-end benchmark. It trains
// the parser, generates a population and its traffic from --seed,
// assembles the serving stack in-process the way cmd/rdapd and
// cmd/whoissurvey do, drives one workload for --seconds, checks every
// answer, and prints one JSON result line. With --trace 1 it also times
// the calls into each layer and prints per-layer metrics instead.
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload lookup --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"repro/internal/tokenize"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	workload := flag.String("workload", "", "workload to run: lookup, cluster or survey")
	seed := flag.Int64("seed", 1, "seed for the population and the request sequence")
	seconds := flag.Float64("seconds", 20, "measured time per lookup or cluster run")
	trace := flag.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
	flag.Parse()

	cfg, err := loadConfig()
	if err != nil {
		return err
	}
	// BENCHMARK.json names the metrics to print, and their units.
	bf, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	wc, ok := cfg.Workloads[*workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", *workload)
	}
	// Scratch files and span dumps stay inside the checkout, under the
	// directory run.sh builds into.
	const build = ".bench_build"
	workdir := filepath.Join(build, fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(workdir)

	rep := &report{e2e: map[string]float64{}, layer: map[string]float64{},
		spanPath: filepath.Join(build, "spans-"+*workload+".tsv")}
	in, err := prepare(cfg, wc, *seed, workdir)
	if err != nil {
		return err
	}
	rep.note("%s seed %d: %d domains, GOMAXPROCS %d", *workload, *seed, len(in.domains), runtime.GOMAXPROCS(0))
	if *workload == "survey" {
		// The survey's work is fixed in size (a corpus, a number of query
		// cycles, a number of repetitions) so that its percentiles fall on
		// the same queries in every run; --seconds does not apply to it.
		err = runSurvey(in, workdir, *trace == 1, rep)
	} else {
		err = runHTTP(in, *seconds, *trace == 1, rep)
	}
	if err != nil {
		return err
	}
	specs, got := bf.EndToEnd, rep.e2e
	if *trace == 1 {
		specs, got = bf.PerLayer, rep.layer
	}
	return rep.print(specs, got)
}

// report collects a run's metrics, diagnostics and check failures.
type report struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	problems          []string
	notes             []string
	spanPath          string
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// setup records the set-up times; setup_s is their median.
func (r *report) setup(times []float64) {
	r.e2e["setup_s"] = median(times)
	r.note("setup_s %.4f: median of %d set-ups %v", r.e2e["setup_s"], len(times), times)
}

// heap returns freed memory to the OS before the measured phases, so
// rss_mb sees the stack rather than set-up garbage, and notes the live
// heap.
func (r *report) heap() {
	debug.FreeOSMemory()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.note("live heap after set-up %.1f MiB, RSS %.1f MiB", float64(m.HeapAlloc)/(1<<20), float64(readRSS())/(1<<20))
}

// selfTable notes each layer's total self time and the time no span
// covers, as shares of their sum, so the shares add up to 100%. e2e (ns)
// is the end-to-end time the root spans sit in: the sum of HTTP client
// calls, whose own self time is the transport, or a phase's wall time.
// Work that runs in parallel under one span (batch parses on two
// workers) counts once per worker.
func (r *report) selfTable(a *analysis, e2e int64) {
	tot := a.selfTotals()
	uncovered := e2e
	for _, s := range a.spans {
		if _, ok := a.byID[s.parent]; !ok {
			uncovered -= s.end - s.start
		}
	}
	sum := max(uncovered, 0)
	for _, x := range tot {
		sum += x
	}
	var b strings.Builder
	for l := layer(0); l < numLayers; l++ {
		name := layerNames[l]
		if l == lClient {
			// The part of a request no server-side span covers.
			name = "client+transport"
		}
		if tot[l] > 0 {
			fmt.Fprintf(&b, " %s=%.1f%%", name, 100*float64(tot[l])/float64(sum))
		}
	}
	r.note("self time by layer over %d spans (%.3f s):%s; no span=%.1f%%",
		len(a.spans), float64(sum)/1e9, b.String(), 100*float64(max(uncovered, 0))/float64(sum))
}

func (r *report) writeSpans(spans []span) error {
	if err := writeSpans(r.spanPath, spans); err != nil {
		return err
	}
	r.note("%d spans written to %s", len(spans), r.spanPath)
	return nil
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// print writes the diagnostics, then the result line with exactly the
// metrics specs names.
func (r *report) print(specs []metricSpec, got map[string]float64) error {
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]metricOut `json:"metrics"`
	}{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]metricOut{}}
	for _, s := range specs {
		v, ok := got[s.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", s.Name)
		}
		out.Metrics[s.Name] = metricOut{v, s.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, n := range r.notes {
		fmt.Println("#", n)
	}
	fmt.Printf("# fail_frac = %.6f (%d of %d)\n", float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Println("# CHECK FAILED:", p)
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// allocsPer returns the heap allocations per call of fn(0..n-1), on this
// goroutine, from runtime.MemStats deltas.
func allocsPer(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		fn(i)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// allocLayers counts allocations per full parse and per tokenization
// over texts.
func allocLayers(in *inputs, texts []string, L map[string]float64) {
	p := in.parser
	topts := p.Config().Tokenize
	L["core.allocs_per_parse"] = allocsPer(len(texts), func(i int) { p.Parse(texts[i]) })
	L["tokenize.allocs_per_call"] = allocsPer(len(texts), func(i int) { tokenize.Tokenize(texts[i], topts) })
}
