// Command rdapd serves the synthetic registration corpus over RDAP — the
// structured-data protocol the paper's background section (§2.2) expects
// to eventually replace free-text WHOIS. Two views of every domain:
//
//   - /domain/{name}: registry ground truth as an RDAP domain object;
//   - /parsed/{name}: the statistical parser's reading of the domain's
//     raw WHOIS text, served through the shared parse-serving layer
//     (internal/serve: cache + singleflight coalescing + bounded worker
//     pool with load shedding) and shaped as RDAP-flavored JSON.
//
// Comparing the two is the "WHOIS Right?" consistency experiment in
// miniature: structured truth vs. learned parse, same schema. With
// -debug-addr the daemon runs that comparison on demand: GET
// /admin/consistency self-audits the corpus through internal/consistency
// — every domain's WHOIS text goes through the live parser, the result
// is compared field by field against the RDAP truth, and the reply is
// the aggregate agreement summary (per-field and per-registrar
// disagreement breakdowns).
//
//	rdapd -n 2000 -listen 127.0.0.1:8083 -debug-addr 127.0.0.1:8084 &
//	curl -s http://127.0.0.1:8083/domain/<name> | jq .
//	curl -s http://127.0.0.1:8083/parsed/<name> | jq .
//	curl -s http://127.0.0.1:8084/admin/consistency?limit=500 | jq .
package main

import (
	"encoding/json"
	"flag"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/modelreg"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/rdap"
	"repro/internal/serve"
	"repro/internal/stack"
	"repro/internal/store"
	"repro/internal/synth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("rdapd: ")
	n := flag.Int("n", 2000, "number of domains to serve")
	seed := flag.Int64("seed", 1, "corpus generation seed")
	listen := flag.String("listen", "127.0.0.1:0", "listen address")
	parseMode := flag.Bool("parse", true, "serve /parsed/{name} via the statistical parser")
	model := flag.String("model", "",
		"model for -parse: a model registry directory (serves -model-family's serving pointer; POST /admin/model/promote|rollback move it) or a bare WMDL file; SIGHUP or POST /admin/reload re-reads it (empty = train a small one at startup)")
	modelFamily := flag.String("model-family", modelreg.DefaultFamily,
		"model family: the registry family -model serves, or the family a bare WMDL file is named under")
	parseWorkers := flag.Int("parse-workers", 0, "parse worker pool size (0 = GOMAXPROCS)")
	parseQueue := flag.Int("parse-queue", 0, "admission queue depth (0 = 8x workers); overflow answers 503")
	parseCache := flag.Int("parse-cache", 4096, "parsed-record cache capacity (negative disables)")
	storeDir := flag.String("store", "", "open this record store for the daemon's lifetime: serve predicated queries at /admin/query on -debug-addr and, with -parse, warm-start the parse cache from its newest segment")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/pprof and the /admin endpoints on this address (empty disables)")
	tieredMode := flag.Bool("tiered", false,
		"serve /parsed/ through the L0 compiled-template fast path with CRF fallback (status at /admin/tiered)")
	clusterListen := flag.String("cluster-listen", "",
		"serve the shard protocol on this address and route /parsed/ through the consistent-hash ring (empty disables clustering)")
	clusterID := flag.String("cluster-id", "",
		"stable ring identity of this node (default: the bound -cluster-listen address)")
	peersFlag := flag.String("peers", "",
		"comma-separated peer shards, each id=addr (or a bare addr, doubling as the id)")
	clusterJoin := flag.String("cluster-join", "",
		"fetch the serving model from the shard at this address (verified by CRC32C) before admitting traffic; SIGHUP or POST /admin/reload later swaps back to -model only if its bytes differ from the fleet's")
	flag.Parse()

	// One registry shared by every layer: the RDAP handler, the
	// parse-serving layer, and the CRF decoders below it all report here,
	// and --debug-addr exports the lot.
	reg := obs.NewRegistry()

	domains := synth.Generate(synth.Config{N: *n, Seed: *seed, BrandFraction: 0.02})
	srv := rdap.NewServer(domains)
	srv.Instrument(reg)

	// The parse-serving stack: the model under a lifecycle manager
	// (every response stamped with the model that produced it,
	// hot-swapped on SIGHUP or POST /admin/reload), the optional L0
	// router, the serving cache and worker pool, the optional store
	// with warm start, and the optional cluster node. Without -parse,
	// -store still opens the record store and its query engine.
	var st *stack.Stack
	var err error
	switch {
	case *parseMode:
		st, err = stack.Open(stack.Config{
			Model:  *model,
			Family: *modelFamily,
			Seed:   *seed,
			Tiered: *tieredMode,
			Serve: serve.Options{
				Workers:       *parseWorkers,
				QueueDepth:    *parseQueue,
				CacheCapacity: *parseCache,
			},
			Store: *storeDir,
			Cluster: stack.ClusterConfig{
				Listen: *clusterListen,
				ID:     *clusterID,
				Peers:  *peersFlag,
				Join:   *clusterJoin,
			},
			Metrics: reg,
			Log:     log.Default(),
		})
	case *storeDir != "":
		st, err = stack.OpenStore(*storeDir, reg, log.Default())
	}
	if err != nil {
		log.Fatal(err)
	}
	if st != nil {
		defer st.Close() // drain in-flight parses after the listener stops
	}
	if *parseMode {
		if st.Node != nil {
			srv.EnableParsedBackend(st.Node, domains)
		} else {
			srv.EnableParsed(st.Serve, domains)
		}
		st.ReloadOnSIGHUP()
	}

	addr, err := srv.Listen(*listen)
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	if *debugAddr != "" {
		dl, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dbg := &http.Server{Handler: debugMux(reg, st, domains)}
		go func() { _ = dbg.Serve(dl) }()
		defer dbg.Close()
		log.Printf("debug endpoints at http://%s/debug/vars, /debug/pprof/ and /admin/ (model, reload, consistency, ...)", dl.Addr())
	}
	log.Printf("serving %d domains at http://%s/domain/{name}", *n, addr)
	if *parseMode {
		log.Printf("parsed view at http://%s/parsed/{name}", addr)
	}
	log.Printf("example: curl -s http://%s/domain/%s", addr, domains[0].Reg.Domain)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	log.Printf("shutting down")
}

// debugMux is the -debug-addr surface: /debug/vars and /debug/pprof,
// the stack's /admin endpoints (model, registry, tiered, cluster), and
// — over the stack — /admin/query and the /admin/consistency
// self-audit. st is nil with -parse=false and no -store, and has only
// the store and query engine with -parse=false -store.
func debugMux(reg *obs.Registry, st *stack.Stack, domains []*synth.Domain) *http.ServeMux {
	mux := obs.DebugMux(reg)
	if st == nil {
		return mux
	}
	st.AdminHandlers(mux)
	if st.Query != nil {
		mux.HandleFunc("/admin/query", adminQuery(st.Query))
	}
	if st.Model != nil {
		// The audit parses with the live model on every call, so an
		// audit after a hot swap scores the model actually serving.
		mux.HandleFunc("/admin/consistency", adminConsistency(domains, st.Model.Parse))
	}
	return mux
}

// adminQuery answers a predicate over the opened record store through
// the query engine: ?where= takes a full predicate expression, and/or
// ?registrar= ?country= ?year= ?since= add single dimensions. The JSON
// reply carries the match count, the top registrars/countries and the
// per-year histogram of the matching rows, and the planner's execution
// stats (how many segments were pruned, seeked, scanned, rebuilt).
func adminQuery(e *query.Engine) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		parts := make([]string, 0, 5)
		if s := q.Get("where"); s != "" {
			parts = append(parts, s)
		}
		for _, k := range []string{"registrar", "country", "year", "since"} {
			if v := q.Get(k); v != "" {
				parts = append(parts, k+"="+v)
			}
		}
		p, err := query.ParsePred(strings.Join(parts, ","))
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		registrars := make(map[string]int)
		countries := make(map[string]int)
		years := make(map[int]int)
		stats, err := e.Scan(p, func(rec *store.Record) error {
			if rec.Facts.Registrar != "" {
				registrars[rec.Facts.Registrar]++
			}
			if rec.Facts.Country != "" {
				countries[rec.Facts.Country]++
			}
			years[rec.Facts.CreatedYear]++
			return nil
		})
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(map[string]any{
			"predicate":      p.String(),
			"matched":        stats.Matched,
			"stats":          stats,
			"top_registrars": topCounts(registrars, 10),
			"top_countries":  topCounts(countries, 10),
			"years":          yearCounts(years),
		})
	}
}

// adminConsistency self-audits the served corpus through
// internal/consistency: each domain's raw WHOIS text goes through the
// live parse function and the result is compared field by field against
// the RDAP ground truth the daemon serves at /domain/{name}. The reply
// is the auditor's aggregate summary — agreement-taxonomy counts,
// per-field conflict totals, and the per-registrar disagreement ranking.
// ?limit=N audits only the first N domains (the corpus order is the
// deterministic generation order). Like the RDAP surface itself the
// endpoint is read-only: anything but GET/HEAD is answered 405 with an
// Allow header.
func adminConsistency(domains []*synth.Domain, parse func(text string) *core.ParsedRecord) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusMethodNotAllowed)
			_ = json.NewEncoder(w).Encode(map[string]any{
				"error": r.Method + " is not supported; use GET or HEAD",
			})
			return
		}
		limit := len(domains)
		if s := r.URL.Query().Get("limit"); s != "" {
			v, err := strconv.Atoi(s)
			if err != nil || v < 1 {
				http.Error(w, "limit must be a positive integer", http.StatusBadRequest)
				return
			}
			if v < limit {
				limit = v
			}
		}
		a := consistency.NewAuditor()
		for _, d := range domains[:limit] {
			pr := parse(d.Render().Text)
			if pr == nil {
				a.Skip()
				continue
			}
			wv := consistency.FromWHOIS(pr)
			if wv.Domain == "" {
				wv.Domain = strings.ToLower(d.Reg.Domain)
			}
			rv := consistency.FromRDAP(rdap.FromRegistration(&d.Reg))
			a.Observe(consistency.Compare(wv, rv))
		}
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(a.Summary())
	}
}

// keyCount is one row of a ranked JSON breakdown.
type keyCount struct {
	Key string `json:"key"`
	N   int    `json:"n"`
}

// topCounts ranks a breakdown by count (ties by key) and keeps the top k.
func topCounts(m map[string]int, k int) []keyCount {
	out := make([]keyCount, 0, len(m))
	for key, n := range m {
		out = append(out, keyCount{key, n})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].N != out[j].N {
			return out[i].N > out[j].N
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// yearCount is one bar of the per-year JSON histogram; year 0 counts the
// records whose creation year did not parse.
type yearCount struct {
	Year int `json:"year"`
	N    int `json:"n"`
}

func yearCounts(m map[int]int) []yearCount {
	out := make([]yearCount, 0, len(m))
	for y, n := range m {
		out = append(out, yearCount{y, n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Year < out[j].Year })
	return out
}
