package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// workloads.json holds every fixed parameter of the benchmark, why each
// workload exists, which end-to-end metric each per-layer metric should
// move, and which per-layer metric now measures each older BENCH_*.json
// row. BENCHMARK.json has a fixed set of keys, so these live beside the
// code that reads them.
//
//go:embed workloads.json
var workloadsJSON []byte

type config struct {
	Model struct {
		TrainRecords int   `json:"train_records"`
		TrainSeed    int64 `json:"train_seed"`
	} `json:"model"`
	// PopulationSeed generates the one corpus every run measures.
	PopulationSeed int64                     `json:"population_seed"`
	Workloads      map[string]workloadConfig `json:"workloads"`
	// Moves maps each per-layer metric to the end-to-end metrics it
	// should move ("metric@workload") and those it should leave alone.
	Moves  map[string]move `json:"moves"`
	Ledger []ledgerRow     `json:"ledger"`
}

type workloadConfig struct {
	Why string `json:"why"`
	// Setups is how many times a run builds its stack; setup_s is the
	// median.
	Setups        int     `json:"setups"`
	Population    int     `json:"population"`
	DriftFraction float64 `json:"drift_fraction"`
	BrandFraction float64 `json:"brand_fraction"`
	ZipfS         float64 `json:"zipf_s,omitempty"`
	CacheEntries  int     `json:"cache_entries"`
	Tiered        bool    `json:"tiered"`
	Nodes         int     `json:"nodes,omitempty"`
	Connections   int     `json:"connections,omitempty"`
	// ClosedShare is the share of --seconds the closed loop gets; the
	// open loop, if any, gets the rest.
	ClosedShare    float64 `json:"closed_share,omitempty"`
	OpenRateRPS    float64 `json:"open_rate_rps,omitempty"`
	LatencyLimitMS float64 `json:"latency_limit_ms,omitempty"`
	// Survey: records are ingested in batches of Batch into segments of
	// SegmentBytes, then Predicates run QueryCycles times each, in turn;
	// all of it Reps times over fresh stacks.
	SegmentBytes int64    `json:"segment_bytes,omitempty"`
	Batch        int      `json:"batch,omitempty"`
	QueryCycles  int      `json:"query_cycles,omitempty"`
	Reps         int      `json:"reps,omitempty"`
	Predicates   []string `json:"predicates,omitempty"`
}

type move struct {
	Moves []string `json:"moves"`
	Still []string `json:"still,omitempty"`
}

// ledgerRow names the metric that now measures one BENCH_*.json row on
// this benchmark's corpus and model; Metric is empty, with a Note, where
// none does.
type ledgerRow struct {
	File      string `json:"file"`
	Benchmark string `json:"benchmark"`
	Metric    string `json:"metric"`
	Note      string `json:"note,omitempty"`
}

func loadConfig() (*config, error) {
	var c config
	if err := json.Unmarshal(workloadsJSON, &c); err != nil {
		return nil, fmt.Errorf("workloads.json: %w", err)
	}
	return &c, nil
}

// benchmarkFile is the part of BENCHMARK.json the program reads: the
// metric names and units it must print.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadBenchmark(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}
