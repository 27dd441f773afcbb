package main

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"time"

	whoisparse "repro"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/labels"
	"repro/internal/obs"
	"repro/internal/rdap"
	"repro/internal/serve"
	"repro/internal/synth"
	"repro/internal/tiered"
)

// inputs are everything a run generates before any stack exists.
type inputs struct {
	wc        workloadConfig
	modelPath string                  // the WMDL artifact stacks load, as the daemons' -model
	parser    *core.Parser            // reference parser for the output checks
	trecs     []*labels.LabeledRecord // training records, also the template source
	domains   []*synth.Domain         // population, names unique
	names     []string
	needles   [][]byte // `"ldhName":"<name>"` per domain
	seq       []int32  // request sequence (lookup, cluster)
	perm      []int    // popularity order: perm[0] is requested most
}

// prepare trains the model and generates the population and request
// sequence. Model and population depend only on the configuration, so
// every seed measures one corpus with one model; the seed chooses the
// traffic: which domains are popular and the order of requests, or the
// order the survey ingests the corpus in.
func prepare(cfg *config, wc workloadConfig, seed int64, workdir string) (*inputs, error) {
	in := &inputs{wc: wc, modelPath: filepath.Join(workdir, "parser.model")}
	in.trecs = synth.GenerateLabeled(synth.Config{N: cfg.Model.TrainRecords, Seed: cfg.Model.TrainSeed})
	p, _, err := experiments.TrainParser(in.trecs, experiments.Quick())
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	if err := whoisparse.Save(p, in.modelPath); err != nil {
		return nil, err
	}
	if in.parser, err = whoisparse.Load(in.modelPath); err != nil {
		return nil, err
	}
	all := synth.Generate(synth.Config{N: wc.Population, Seed: cfg.PopulationSeed,
		DriftFraction: wc.DriftFraction, BrandFraction: wc.BrandFraction})
	if wc.ZipfS == 0 {
		// Without a request sequence, the seed orders the corpus.
		r := rand.New(rand.NewSource(seed))
		r.Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
	}
	// Generated names can repeat with different truths; keep the first.
	seen := make(map[string]bool, len(all))
	for _, d := range all {
		name := strings.ToLower(d.Reg.Domain)
		if seen[name] {
			continue
		}
		seen[name] = true
		in.domains = append(in.domains, d)
		in.names = append(in.names, name)
		in.needles = append(in.needles, []byte(`"ldhName":"`+name+`"`))
	}
	if wc.ZipfS > 0 {
		in.seq, in.perm = zipfRequests(seed, 1<<18, len(in.domains), wc.ZipfS)
	}
	return in, nil
}

// node is one daemon's serving stack: the L0 router and the serve layer
// over its own copy of the model.
type node struct {
	router *tiered.Router
	ps     *serve.Server
}

// newNode wires a node the way cmd/rdapd does with -tiered. With a
// tracer, the L1 parse is the decomposed one and the installed
// ParseFunc is wrapped.
func newNode(in *inputs, reg *obs.Registry, t *tracer, l1 *l1Log) (*node, error) {
	p, err := whoisparse.Load(in.modelPath)
	if err != nil {
		return nil, err
	}
	p.Instrument(reg)
	n := &node{}
	n.ps = serve.New(p, serve.Options{CacheCapacity: in.wc.CacheEntries, Metrics: reg})
	var parse serve.ParseFunc = p.Parse
	if t != nil {
		parse = t.decomposedL1(p, l1)
	}
	if in.wc.Tiered {
		n.router = tiered.NewFromRecords(in.trecs, core.DefaultConfig().Tokenize, tiered.Options{Metrics: reg})
		parse = n.router.Bind(parse)
	}
	if t != nil {
		parse = t.parseFunc(parse)
	}
	if in.wc.Tiered || t != nil {
		n.ps.SetParseFunc(parse)
	}
	return n, nil
}

// httpStack is the rdapd stack behind a real HTTP listener, with the
// client the load generator uses. With Nodes == 2 it is two cluster
// nodes joined over loopback TCP; HTTP enters node a only.
type httpStack struct {
	nodes  []*node
	cnodes []*cluster.Node
	tcp    []*cluster.TCPServer
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client
	tr     *http.Transport
}

func buildHTTPStack(in *inputs, t *tracer, l1 *l1Log) (s *httpStack, err error) {
	s = &httpStack{}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	reg := obs.NewRegistry()
	srv := rdap.NewServer(in.domains)
	srv.Instrument(reg)
	regs := []*obs.Registry{reg}
	for i := 1; i < max(in.wc.Nodes, 1); i++ {
		regs = append(regs, obs.NewRegistry())
	}
	for _, r := range regs {
		n, err := newNode(in, r, t, l1)
		if err != nil {
			return s, err
		}
		s.nodes = append(s.nodes, n)
	}

	var backend rdap.ParseBackend = serveBackend{s.nodes[0].ps}
	owned := func(string) bool { return true }
	if len(s.nodes) > 1 {
		if err := s.joinCluster(regs, t); err != nil {
			return s, err
		}
		a := s.cnodes[0]
		backend = a
		owned = func(domain string) bool { return a.Owner(domain) == a.ID() }
	}
	if t != nil {
		backend = tracedBackend{t: t, next: backend, owned: owned}
	}
	srv.EnableParsedBackend(backend, in.domains)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return s, err
	}
	var h http.Handler = srv
	if t != nil {
		h = t.handler(srv)
	}
	// The same deadlines rdap.Server.Listen sets.
	s.hs = &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: 15 * time.Second,
		WriteTimeout: 30 * time.Second, IdleTimeout: 2 * time.Minute}
	s.served = make(chan struct{})
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	s.base = "http://" + ln.Addr().String() + "/parsed/"
	conns := max(in.wc.Connections, 1)
	s.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	s.client = &http.Client{Transport: s.tr, Timeout: 30 * time.Second}
	return s, nil
}

// joinCluster makes a cluster node of every serving node, serves the
// shard protocol for each on loopback and makes every node a peer of
// every other, as rdapd -cluster-listen/-peers does.
func (s *httpStack) joinCluster(regs []*obs.Registry, t *tracer) error {
	ids := []string{"a", "b", "c", "d"}
	var addrs []string
	for i, n := range s.nodes {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		cn, err := cluster.NewNode(n.ps, nil, cluster.Options{ID: ids[i], Addr: ln.Addr().String(), Metrics: regs[i]})
		if err != nil {
			ln.Close()
			return err
		}
		var b cluster.Backend = cn
		if t != nil {
			b = tracedOwner{Backend: cn, t: t}
		}
		srv := cluster.ServeTCP(ln, b, nil)
		s.cnodes = append(s.cnodes, cn)
		s.tcp = append(s.tcp, srv)
		addrs = append(addrs, ln.Addr().String())
	}
	for i, cn := range s.cnodes {
		for j := range s.cnodes {
			if i == j {
				continue
			}
			var c cluster.ShardClient = cluster.DialTCP(addrs[j])
			if t != nil {
				c = tracedShard{ShardClient: c, t: t}
			}
			cn.AddPeer(ids[j], c)
		}
	}
	return nil
}

// close stops everything the stack started and waits for it.
func (s *httpStack) close() {
	if s.hs != nil {
		_ = s.hs.Close()
		<-s.served
	}
	if s.tr != nil {
		s.tr.CloseIdleConnections()
	}
	for _, cn := range s.cnodes {
		_ = cn.Close()
	}
	for _, srv := range s.tcp {
		_ = srv.Close()
	}
	for _, n := range s.nodes {
		n.ps.Close()
	}
}

// warm requests the cacheEntries most popular domains once, from as many
// goroutines as the stack has connections, so caches hold the hot set
// before timing starts.
func (s *httpStack) warm(in *inputs) error {
	n := min(in.wc.CacheEntries, len(in.perm))
	conns := max(in.wc.Connections, 1)
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var b bodyBuf
			for i := w; i < n; i += conns {
				st, err := s.get(nil, in.names[in.perm[i]], &b)
				if err == nil && st != http.StatusOK {
					err = fmt.Errorf("warm-up: %s answered %d", in.names[in.perm[i]], st)
				}
				if err != nil {
					errs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// setupHTTP builds and warms the stack Setups times, timing each,
// and keeps the last one.
func setupHTTP(in *inputs, t *tracer, l1 *l1Log) (*httpStack, []float64, error) {
	var times []float64
	var s *httpStack
	for k := 0; k < max(in.wc.Setups, 1); k++ {
		if s != nil {
			s.close()
		}
		start := time.Now()
		var err error
		if s, err = buildHTTPStack(in, t, l1); err != nil {
			return nil, nil, err
		}
		if err := s.warm(in); err != nil {
			s.close()
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return s, times, nil
}

// servingStats sums the serve layer's counters over every node.
func (s *httpStack) servingStats() serve.Stats {
	var tot serve.Stats
	for _, n := range s.nodes {
		st := n.ps.Stats()
		tot.Hits += st.Hits
		tot.Misses += st.Misses
		tot.Coalesced += st.Coalesced
		tot.Shed += st.Shed
		tot.Parsed += st.Parsed
	}
	return tot
}

// routerStats sums the L0 router's counters over every node.
func (s *httpStack) routerStats() tiered.Status {
	var tot tiered.Status
	for _, n := range s.nodes {
		if n.router == nil {
			continue
		}
		st := n.router.Status()
		tot.L0Hits += st.L0Hits
		tot.L0Demoted += st.L0Demoted
		tot.L1Fallbacks += st.L1Fallbacks
		tot.Disagreements += st.Disagreements
	}
	return tot
}
