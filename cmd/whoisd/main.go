// Command whoisd runs the simulated com WHOIS ecosystem on real TCP
// sockets: a thin registry plus one rate-limited RFC 3912 server per
// registrar. It writes a directory file mapping server names to bound
// addresses (the simulation's stand-in for DNS) and a zone file listing
// the registered domains, then serves until interrupted.
//
// With -parse (default on) every server also answers "--parse <domain>"
// queries: the record is run through the shared parse-serving stack
// (internal/stack: the model under a lifecycle manager, then
// internal/serve's cache + coalescing + bounded workers) and returned as
// a labeled field summary instead of raw text. The model comes from
// -model — a model registry directory or a bare WMDL file, re-read on
// SIGHUP — or is trained on a small synthetic corpus at startup.
//
// Usage:
//
//	whoisd [-n 5000] [-seed 1] [-limit 25] [-window 500ms] [-penalty 1s]
//	       [-dir whois_servers.txt] [-zone zone.txt] [-fail 0.075]
//	       [-parse] [-model parser.wmdl|registry-dir [-model-family default]]
//	       [-parse-workers 0] [-parse-cache 4096]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/stack"
	"repro/internal/synth"
	"repro/internal/whoisd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whoisd: ")
	n := flag.Int("n", 5000, "number of domains to serve")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	limit := flag.Int("limit", 25, "per-source queries per window at each registrar (0 = unlimited)")
	window := flag.Duration("window", 500*time.Millisecond, "rate-limit window")
	penalty := flag.Duration("penalty", time.Second, "rate-limit penalty period")
	dirFile := flag.String("dir", "whois_servers.txt", "directory file to write (name addr per line)")
	zoneFile := flag.String("zone", "zone.txt", "zone file to write (one domain per line)")
	failFrac := flag.Float64("fail", 0.075, "fraction of domains whose thick record is withheld")
	parseMode := flag.Bool("parse", true, "answer '--parse <domain>' queries with the parsed-field summary")
	model := flag.String("model", "",
		"model for -parse: a model registry directory (serves -model-family's serving pointer) or a bare WMDL file; SIGHUP re-reads it (empty = train a small one at startup)")
	modelFamily := flag.String("model-family", modelreg.DefaultFamily,
		"model family: the registry family -model serves, or the family a bare WMDL file is named under")
	parseWorkers := flag.Int("parse-workers", 0, "parse worker pool size (0 = GOMAXPROCS)")
	parseCache := flag.Int("parse-cache", 4096, "parsed-record cache capacity (negative disables)")
	metricsAddr := flag.String("metrics-addr", "", "serve the metrics registry as JSON on this address (empty disables)")
	tieredMode := flag.Bool("tiered", false,
		"answer '--parse' via the L0 compiled-template fast path with CRF fallback (tiered.* in the stats dump)")
	flag.Parse()

	// One registry across the cluster: per-server query counters, the
	// parse-serving layer, and the CRF decoders all report here. It is
	// exported live on -metrics-addr and dumped at shutdown either way.
	reg := obs.NewRegistry()
	logger := obs.NewLogger("whoisd", os.Stderr)

	log.Printf("generating %d domains (seed %d)", *n, *seed)
	domains := synth.Generate(synth.Config{N: *n, Seed: *seed, BrandFraction: 0.02})
	eco := registry.BuildEcosystem(domains, *failFrac)

	// Every registrar server shares one serving stack, so a SIGHUP
	// reload swaps the model into all of them at once; a bad artifact
	// is rejected with the old model still live.
	var st *stack.Stack
	var ps *serve.Server
	if *parseMode {
		var err error
		st, err = stack.Open(stack.Config{
			Model:   *model,
			Family:  *modelFamily,
			Seed:    *seed,
			Tiered:  *tieredMode,
			Serve:   serve.Options{Workers: *parseWorkers, CacheCapacity: *parseCache},
			Metrics: reg,
			Log:     log.Default(),
		})
		if err != nil {
			log.Fatal(err)
		}
		defer st.Close() // drain in-flight parses before exit
		st.ReloadOnSIGHUP()
		ps = st.Serve
		log.Printf("parse mode on: try '--parse <domain>' against any server")
	}

	cluster, err := whoisd.StartCluster(eco, whoisd.ClusterConfig{
		RegistryLimit:  (*limit) * 16,
		RegistrarLimit: *limit,
		Window:         *window,
		Penalty:        *penalty,
		Parse:          ps,
		Log:            logger,
		Metrics:        reg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	if err := writeDirectory(*dirFile, cluster); err != nil {
		log.Fatal(err)
	}
	if err := writeZone(*zoneFile, domains); err != nil {
		log.Fatal(err)
	}

	addr, _ := cluster.Directory.Resolve(registry.RegistryServerName)
	log.Printf("registry %s listening on %s", registry.RegistryServerName, addr)
	log.Printf("%d registrar servers up; directory in %s, zone in %s",
		len(eco.Servers), *dirFile, *zoneFile)
	log.Printf("try: printf 'example.com\\r\\n' | nc %s", addr)

	stopMetrics, err := obs.ServeMetrics(*metricsAddr, reg)
	if err != nil {
		log.Fatal(err)
	}
	defer stopMetrics()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
	obs.WriteFinalStats(os.Stderr, reg)
}

func writeDirectory(path string, cluster *whoisd.Cluster) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write directory: %w", err)
	}
	defer f.Close()
	names := cluster.Directory.Names()
	sort.Strings(names)
	for _, name := range names {
		addr, err := cluster.Directory.Resolve(name)
		if err != nil {
			return err
		}
		fmt.Fprintf(f, "%s %s\n", name, addr)
	}
	return f.Close()
}

func writeZone(path string, domains []*synth.Domain) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write zone: %w", err)
	}
	defer f.Close()
	for _, d := range domains {
		fmt.Fprintln(f, d.Reg.Domain)
	}
	return f.Close()
}
