// Command whoiscrawl crawls a running whoisd ecosystem: for every domain
// in the zone file it performs the two-step thin→thick lookup with
// rate-limit inference and source rotation, then writes the raw thick
// records to a corpus file.
//
// With -store the crawl also streams every thick record into a persistent
// record store as it completes (checkpointed, crash-safe); -resume skips
// domains already in that store, so an interrupted crawl picks up where
// its last checkpoint left off instead of starting over. With -model the
// records are parsed before persisting, so the store is survey-ready,
// and each record is stamped with the model's canonical name — the name
// a daemon serving the same -model stamps, so rdapd -store warm-starts
// from the crawled store.
//
// Usage:
//
//	whoiscrawl [-dir whois_servers.txt] [-zone zone.txt] [-out records.txt]
//	           [-workers 16] [-sources 127.0.0.2,127.0.0.3,127.0.0.4]
//	           [-store storedir] [-resume]
//	           [-model parser.wmdl|registry-dir [-model-family default]]
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"repro/internal/crawler"
	"repro/internal/lifecycle"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/whoisclient"
	"repro/internal/whoisd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("whoiscrawl: ")
	dirFile := flag.String("dir", "whois_servers.txt", "directory file written by whoisd")
	zoneFile := flag.String("zone", "zone.txt", "zone file written by whoisd")
	outFile := flag.String("out", "records.txt", "output corpus file (empty disables)")
	workers := flag.Int("workers", 16, "concurrent crawl workers")
	sources := flag.String("sources", "127.0.0.2,127.0.0.3,127.0.0.4", "comma-separated source IPs")
	timeout := flag.Duration("timeout", 10*time.Minute, "overall crawl deadline")
	storeDir := flag.String("store", "", "stream crawled records into this persistent store directory")
	resume := flag.Bool("resume", false, "skip domains already persisted in -store (resume an interrupted crawl)")
	modelFile := flag.String("model", "",
		"parse records before persisting with this model: a model registry directory (serves -model-family's serving pointer) or a bare WMDL file (requires -store)")
	modelFamily := flag.String("model-family", modelreg.DefaultFamily,
		"model family: the registry family -model serves, or the family a bare WMDL file is named under")
	verbose := flag.Bool("v", false, "log per-query diagnostics (rate limits, retries)")
	flag.Parse()

	dir, err := readDirectory(*dirFile)
	if err != nil {
		log.Fatal(err)
	}
	domains, err := readLines(*zoneFile)
	if err != nil {
		log.Fatal(err)
	}
	if *resume && *storeDir == "" {
		log.Fatal("-resume requires -store")
	}
	if *modelFile != "" && *storeDir == "" {
		log.Fatal("-model requires -store")
	}

	// The crawl registry accumulates per-host retry/rate-limit/byte
	// counters alongside the aggregate stats; it is dumped after the run.
	reg := obs.NewRegistry()
	logger := obs.NewLogger("whoiscrawl", os.Stderr)
	if !*verbose {
		logger.SetLevel(obs.LevelError)
	}

	// Persistent sink: records land in the store as their domains finish,
	// fsynced on the sink's checkpoint cadence, so a crash loses at most
	// one checkpoint's worth of crawling.
	var sink *store.Sink
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{Metrics: reg})
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := st.Close(); err != nil {
				log.Printf("store close: %v", err)
			}
		}()
		if *resume {
			done := make(map[string]bool)
			if err := st.Domains(func(d string) bool {
				done[strings.ToLower(d)] = true
				return true
			}); err != nil {
				log.Fatal(err)
			}
			kept := domains[:0]
			for _, d := range domains {
				if !done[strings.ToLower(d)] {
					kept = append(kept, d)
				}
			}
			log.Printf("resume: skipping %d already-persisted domains, %d remain", len(domains)-len(kept), len(kept))
			domains = kept
		}
		sink, err = newSink(st, *modelFile, *modelFamily, reg)
		if err != nil {
			log.Fatal(err)
		}
	}

	c, err := crawler.New(crawler.Config{
		Resolver:        dir,
		Sources:         strings.Split(*sources, ","),
		Workers:         *workers,
		InitialInterval: 2 * time.Millisecond,
		MaxInterval:     600 * time.Millisecond,
		Log:             logger,
		Metrics:         reg,
		OnResult: func(r crawler.Result) {
			if sink == nil || r.Thick == "" {
				return
			}
			if err := sink.Put(r.Domain, thinRegistrar(r.Thin), r.Thick); err != nil {
				log.Printf("store put %s: %v", r.Domain, err)
			}
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	log.Printf("crawling %d domains with %d workers", len(domains), *workers)
	results, stats := c.Crawl(ctx, domains)

	if sink != nil {
		if err := sink.Flush(); err != nil {
			log.Fatal(err)
		}
		log.Printf("persisted %d records to %s", sink.Written(), *storeDir)
	}

	written := 0
	if *outFile != "" {
		f, err := os.Create(*outFile)
		if err != nil {
			log.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for _, r := range results {
			if r.Thick == "" {
				continue
			}
			// The thin record's registrar is carried along: legacy thick
			// formats omit it, and the survey needs it (§2.2).
			fmt.Fprintf(w, "%%%% DOMAIN %s SERVER %s REGISTRAR %s\n%s\n%%%% END\n",
				r.Domain, r.WhoisServer, thinRegistrar(r.Thin), r.Thick)
			written++
		}
		if err := w.Flush(); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}

	log.Printf("thick records: %d/%d (coverage %.1f%%), failures %.1f%%, rate-limit hits %d, elapsed %v",
		stats.ThickOK, stats.Total, 100*stats.Coverage(), 100*stats.FailureRate(),
		stats.RateLimitHits, stats.Elapsed.Round(time.Millisecond))
	if limited := c.LimitedServers(); len(limited) > 0 {
		for _, s := range limited {
			log.Printf("inferred limit at %s: %.1f q/s", s, c.InferredRate(s))
		}
	}
	if *outFile != "" {
		log.Printf("wrote %d records to %s", written, *outFile)
	}
	log.Printf("final stats:")
	if err := reg.WriteJSON(os.Stderr); err != nil {
		log.Printf("stats dump failed: %v", err)
	}
	fmt.Fprintln(os.Stderr)
}

// newSink streams crawled records into st. With a model it parses each
// record first, through the stack's model opener, so every record is
// stamped with the model's canonical "<family>/<semver>+<crc32c>" — the
// name a serving stack over the same model stamps.
func newSink(st *store.Store, model, family string, reg *obs.Registry) (*store.Sink, error) {
	var opts store.SinkOptions
	if model != "" {
		mgr, err := stack.OpenModel(model, family, 0, lifecycle.Options{Metrics: reg})
		if err != nil {
			return nil, err
		}
		opts.Parse = mgr.Parse // stamps every record with the model's name
		log.Printf("parsing with %s (%s); records stamped with that identity",
			mgr.Current().Version, mgr.Current().Info)
	}
	return store.NewSink(st, opts), nil
}

// thinRegistrar extracts the "Registrar:" value from a thin record.
func thinRegistrar(thin string) string {
	return whoisclient.ParseThin(thin).Registrar
}

func readDirectory(path string) (whoisclient.Resolver, error) {
	lines, err := readLines(path)
	if err != nil {
		return nil, err
	}
	dir := whoisd.NewDirectory()
	for i, line := range lines {
		parts := strings.Fields(line)
		if len(parts) != 2 {
			return nil, fmt.Errorf("%s:%d: want \"name addr\", got %q", path, i+1, line)
		}
		dir.Register(parts[0], parts[1])
	}
	return dir, nil
}

func readLines(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" {
			out = append(out, line)
		}
	}
	return out, sc.Err()
}
