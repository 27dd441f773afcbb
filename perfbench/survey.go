package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	whoisparse "repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/query"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/survey"
)

// surveyStack is the whoissurvey -synthetic -store-out path: the serve
// layer's batch parse feeding the survey aggregation and the record
// store, with sidecars built on every seal, and the query engine over it.
type surveyStack struct {
	ps  *serve.Server
	st  *store.Store
	e   *query.Engine
	sv  *survey.Survey
	dir string
}

func buildSurveyStack(in *inputs, dir string, t *tracer, l1 *l1Log) (*surveyStack, error) {
	reg := obs.NewRegistry()
	p, err := whoisparse.Load(in.modelPath)
	if err != nil {
		return nil, err
	}
	p.Instrument(reg)
	s := &surveyStack{dir: dir, sv: survey.New(nil)}
	s.ps = serve.New(p, serve.Options{CacheCapacity: in.wc.CacheEntries, Metrics: reg})
	if t != nil {
		s.ps.SetParseFunc(t.parseFunc(t.decomposedL1(p, l1)))
	}
	if s.st, err = store.Open(dir, store.Options{SegmentBytes: in.wc.SegmentBytes, Metrics: reg}); err != nil {
		s.ps.Close()
		return nil, err
	}
	s.e = query.New(s.st, query.Options{Metrics: reg})
	s.e.AutoBuild()
	return s, nil
}

// close closes the store, and the serve layer unless the ingest already
// ended.
func (s *surveyStack) close() error {
	if s.ps != nil {
		s.ps.Close()
	}
	return s.st.Close()
}

// ingest parses the corpus in batches and adds every record to the
// survey and the store, as whoissurvey -synthetic -store-out does,
// keeping each parse in out. It returns each batch's records per second.
func (s *surveyStack) ingest(in *inputs, texts []string, t *tracer, out []*core.ParsedRecord) (rates []float64, err error) {
	ctx := context.Background()
	traced := t != nil && t.on.Load()
	for lo := 0; lo < len(texts); lo += in.wc.Batch {
		hi := min(lo+in.wc.Batch, len(texts))
		bstart := time.Now()
		var me ref
		var start int64
		if traced {
			me.id, start = t.begin()
			me.req = me.id
			for _, text := range texts[lo:hi] {
				t.bind(text, me)
			}
		}
		prs, err := s.ps.ParseBatch(ctx, texts[lo:hi])
		if traced {
			for _, text := range texts[lo:hi] {
				t.unbind(text, ref{}, false)
			}
			t.end(lBatch, me.id, ref{0, me.id}, start, 0)
		}
		if err != nil {
			return nil, err
		}
		for i, pr := range prs {
			d := lo + i
			f := survey.FactsFrom(pr, in.domains[d].Blacklisted)
			if f.Domain == "" {
				f.Domain = in.names[d]
			}
			var id uint32
			var a int64
			if traced {
				id, a = t.begin()
			}
			s.sv.Add(f)
			if traced {
				t.end(lAdd, id, ref{0, me.req}, a, 0)
				id, a = t.begin()
			}
			err := s.st.Append(&store.Record{Domain: f.Domain, Text: texts[d], Parsed: pr, Facts: f})
			if traced {
				t.end(lAppend, id, ref{0, me.req}, a, 0)
			}
			if err != nil {
				return nil, err
			}
			out[d] = pr
		}
		rates = append(rates, float64(hi-lo)/time.Since(bstart).Seconds())
	}
	return rates, nil
}

// queryCycles runs every predicate in turn, cycles times. A fixed count
// of whole cycles fixes each predicate's share of the samples, and so
// which predicate each percentile falls on. It returns per-query
// latencies (ms), stats, and the records the last cycle matched per
// predicate.
func (s *surveyStack) queryCycles(preds []query.Pred, cycles int, t *tracer) (lat []float64, stats []query.Stats, last [][]*store.Record, err error) {
	traced := t != nil && t.on.Load()
	for cycle := 0; cycle < cycles; cycle++ {
		last = make([][]*store.Record, len(preds))
		for i, p := range preds {
			var id uint32
			var a int64
			if traced {
				id, a = t.begin()
			}
			start := time.Now()
			st, err := s.e.Scan(p, func(rec *store.Record) error {
				last[i] = append(last[i], rec)
				return nil
			})
			lat = append(lat, float64(time.Since(start))/float64(time.Millisecond))
			if traced {
				t.end(lScan, id, ref{0, id}, a, 0)
			}
			if err != nil {
				return nil, nil, nil, err
			}
			stats = append(stats, st)
		}
	}
	return lat, stats, last, nil
}

// checkScans holds query.Engine.Scan to query.Engine.FullScan, as the
// query-differential gate does: for every predicate, the same records
// in the same order, byte for byte.
func (s *surveyStack) checkScans(preds []query.Pred, got [][]*store.Record, stats []query.Stats) error {
	want := make([][][]byte, len(preds))
	err := s.e.FullScan(query.Pred{}, func(rec *store.Record) error {
		var enc []byte
		for i, p := range preds {
			if p.Match(&rec.Facts) {
				if enc == nil {
					enc = store.EncodeRecord(nil, rec)
				}
				want[i] = append(want[i], enc)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	for i, p := range preds {
		if len(got[i]) != len(want[i]) {
			return fmt.Errorf("query %s: Scan matched %d records, FullScan %d", p, len(got[i]), len(want[i]))
		}
		for j, rec := range got[i] {
			if !bytes.Equal(store.EncodeRecord(nil, rec), want[i][j]) {
				return fmt.Errorf("query %s: record %d differs between Scan and FullScan", p, j)
			}
		}
	}
	for k, st := range stats {
		if i := k % len(preds); st.Matched != uint64(len(want[i])) {
			return fmt.Errorf("query %s: a timed Scan matched %d records, FullScan %d", preds[i], st.Matched, len(want[i]))
		}
	}
	return nil
}

// runSurvey drives the survey workload Reps times, each over a fresh
// stack: ingest the corpus of unique records, then, as a separate query
// process over the store would, run the predicate list. Pooling the
// repetitions spreads every figure over the whole run, so one slow
// second of the machine moves a median less. With trace, the last
// repetition is traced and the others are the untraced reference.
func runSurvey(in *inputs, workdir string, trace bool, rep *report) error {
	var t *tracer
	var l1 *l1Log
	if trace {
		t, l1 = newTracer(), newL1Log()
	}
	texts := make([]string, len(in.domains))
	for i, d := range in.domains {
		texts[i] = d.Render().Text
	}
	preds := make([]query.Pred, len(in.wc.Predicates))
	for i, w := range in.wc.Predicates {
		var err error
		if preds[i], err = query.ParsePred(w); err != nil {
			return err
		}
	}

	var setups []float64
	build := func(name string) (*surveyStack, error) {
		start := time.Now()
		s, err := buildSurveyStack(in, filepath.Join(workdir, name), t, l1)
		if err == nil {
			setups = append(setups, time.Since(start).Seconds())
		}
		return s, err
	}
	discard := func(s *surveyStack) error {
		if err := s.close(); err != nil {
			return err
		}
		return os.RemoveAll(s.dir)
	}
	// The first repetition's stack is the last of the set-ups.
	var s *surveyStack
	for k := 0; k < max(in.wc.Setups, 1); k++ {
		if s != nil {
			if err := discard(s); err != nil {
				return err
			}
		}
		var err error
		if s, err = build(fmt.Sprintf("setup-%d", k)); err != nil {
			return err
		}
	}
	rep.heap()

	n := len(texts)
	reps := max(in.wc.Reps, 1)
	ing, qry := [2]phase{{name: "ingest"}, {name: "ingest-traced"}}, [2]phase{{name: "query"}, {name: "query-traced"}}
	var stats, tstats []query.Stats
	var last [][]*store.Record
	rss := startRSS()
	for r := 0; r < reps; r++ {
		if r > 0 {
			var err error
			if s, err = build(fmt.Sprintf("rep-%d", r)); err != nil {
				return err
			}
		}
		traced := trace && r == reps-1
		k := 0
		if traced {
			k = 1
		}
		recs := make([]*core.ParsedRecord, n)
		if t != nil {
			t.on.Store(traced)
		}
		g := markGC()
		start := time.Now()
		rates, err := s.ingest(in, texts, t, recs)
		if err != nil {
			return err
		}
		// Ingest ends when every sealed segment has its sidecars.
		if _, err := s.e.BuildAll(); err != nil {
			return err
		}
		ing[k].wall += time.Since(start)
		ing[k].closeGC(g)
		ing[k].lat = append(ing[k].lat, rates...)
		ing[k].sent += int64(n)
		if t != nil {
			t.on.Store(false)
			ing[k].spans = t.take()
		}

		// Untimed: score the parses, and in the traced run measure what
		// needs the serve layer. Then the ingest process ends.
		if r == reps-1 {
			fieldSurvey(in, recs, rep)
		}
		if traced {
			layerIngest(in, s, texts, &ing[0], &ing[1], rep)
		}
		s.ps.Close()
		s.ps, recs = nil, nil
		debug.FreeOSMemory()

		// One untimed cycle loads every segment's sidecars into the
		// engine's cache before query timing starts.
		if _, _, _, err := s.queryCycles(preds, 1, nil); err != nil {
			return err
		}
		if t != nil {
			t.on.Store(traced)
		}
		g = markGC()
		start = time.Now()
		lat, st, lastCycle, err := s.queryCycles(preds, in.wc.QueryCycles, t)
		if err != nil {
			return err
		}
		qry[k].wall += time.Since(start)
		qry[k].closeGC(g)
		qry[k].lat = append(qry[k].lat, lat...)
		qry[k].sent += int64(len(lat))
		if traced {
			tstats = st
		} else {
			stats = append(stats, st...)
		}
		if t != nil {
			t.on.Store(false)
			qry[k].spans = t.take()
		}
		rep.note("repetition %d: ingest %.1f records/s (median batch), query median %.3f ms", r, median(rates), median(lat))
		if r < reps-1 {
			if err := discard(s); err != nil {
				return err
			}
			debug.FreeOSMemory()
		} else {
			last = lastCycle
		}
	}
	defer s.close()
	rep.e2e["rss_mb"] = rss.Stop()
	rep.setup(setups)

	for _, p := range []*phase{&ing[0], &qry[0], &ing[1], &qry[1]} {
		if p.sent > 0 {
			p.ok = p.sent
			rep.note("%s", p)
			rep.attempted += p.sent
		}
	}
	// Median over batches, like the windows of the HTTP workloads.
	ingested := median(ing[0].lat)
	p50, tail := median(qry[0].lat), percentile(qry[0].lat, 0.99)
	rep.e2e["goodput_rps"] = ingested
	rep.e2e["p50_ms"] = p50
	rep.e2e["p99_ms"] = tail.Value
	rep.note("ingest_rps %.1f: median over %d batches (%.1f records/s over whole repetitions, sidecar builds included; %d segments)",
		ingested, len(ing[0].lat), float64(ing[0].sent)/ing[0].wall.Seconds(), len(s.st.SegmentInfos()))
	rep.note("query_p50_ms %.4f, p%.2f %.4f ms over %d queries", p50, 100*tail.Pct, tail.Value, tail.N)
	for i, p := range preds {
		var xs []float64
		for k := i; k < len(qry[0].lat); k += len(preds) {
			xs = append(xs, qry[0].lat[k])
		}
		rep.note("query %q: median %.3f ms over %d runs, %d matched", p.String(), median(xs), len(xs), len(last[i]))
	}

	// Checks, after the timed phases, on the last repetition's store.
	if err := s.checkScans(preds, last, append(stats, tstats...)); err != nil {
		rep.fail("%v", err)
	}
	if trace {
		layerQuery(s, &qry[0], &qry[1], tstats, rep)
		n, err := checkL1(in.parser, l1)
		if err != nil {
			rep.fail("%v", err)
		}
		rep.note("decomposed L1 parse matched core.Parser.Parse on %d records", n)
		if err := rep.writeSpans(append(ing[1].spans, qry[1].spans...)); err != nil {
			return err
		}
	}
	return nil
}

// fieldSurvey scores every ingested parse against its registry truth.
func fieldSurvey(in *inputs, recs []*core.ParsedRecord, rep *report) {
	var conflicts, comparable int
	for d, pr := range recs {
		c := compareTruth(pr, in, d)
		conflicts += c.Conflicts()
		comparable += c.Comparable()
	}
	rep.e2e["field_err"] = ratio(float64(conflicts), float64(comparable))
	rep.note("field_err %.6f: %d conflicts in %d comparable fields of %d records",
		rep.e2e["field_err"], conflicts, comparable, len(recs))
}

// layerIngest reports the per-layer metrics of the traced ingest; the
// layers the survey bypasses report 0.
func layerIngest(in *inputs, s *surveyStack, texts []string, ref, traced *phase, rep *report) {
	L := rep.layer
	for _, k := range []string{"rdap.self_us", "rdap.resp_bytes", "serve.hit_us", "serve.queue_wait_us", "serve.shed",
		"tiered.l0_share", "tiered.l0_us", "tiered.shadow_share", "tiered.disagreements", "tiered.answer_flips",
		"cluster.forward_share", "cluster.remote_hit_ratio", "cluster.forward_us", "cluster.owner_us", "gen.late_p99_ms"} {
		L[k] = 0
	}
	a := analyze(traced.spans)
	us := func(l layer) float64 { return median(nsTo(a.durations(l, nil), time.Microsecond)) }
	st := s.ps.Stats()
	L["serve.hit_ratio"] = ratio(float64(st.Hits), float64(st.Hits+st.Misses+st.Coalesced))
	coreLayers(a, L)
	L["store.append_us"] = us(lAppend)
	L["survey.add_us"] = us(lAdd)
	var bytes int64
	var records uint64
	sealed := 0
	for _, si := range s.st.SegmentInfos() {
		bytes += si.Size
		records += si.Records
		if si.Sealed {
			sealed++
		}
	}
	L["store.bytes_per_record"] = ratio(float64(bytes), float64(records))
	L["store.segments_sealed"] = float64(sealed)
	gcLayers(ref, L)

	hot := texts[:min(200, len(texts))]
	allocLayers(in, hot, L)
	ctx := context.Background()
	L["serve.hit_allocs"] = allocsPer(len(hot), func(i int) { _, _ = s.ps.Parse(ctx, hot[i]) })

	rep.selfTable(a, int64(traced.wall))
	rr, tr := float64(ref.sent)/ref.wall.Seconds(), float64(traced.sent)/traced.wall.Seconds()
	rep.note("tracing overhead: ingest %.1f -> %.1f records/s (%+.1f%%)", rr, tr, 100*(tr/rr-1))
}

// layerQuery reports the per-layer metrics of the traced queries.
func layerQuery(s *surveyStack, ref, traced *phase, qstats []query.Stats, rep *report) {
	L := rep.layer
	q := analyze(traced.spans)
	L["query.scan_ms"] = median(nsTo(q.durations(lScan, nil), time.Millisecond))
	var read, matched uint64
	var pruned, segs, fallbacks int
	for _, x := range qstats {
		read += x.RecordsRead
		matched += x.Matched
		pruned += x.Pruned
		segs += x.Segments
		fallbacks += x.Fallbacks
	}
	L["query.read_per_match"] = ratio(float64(read), float64(matched))
	L["query.us_per_record_read"] = ratio(float64(traced.wall)/float64(time.Microsecond), float64(read))
	L["query.pruned_share"] = ratio(float64(pruned), float64(segs))
	L["query.fallbacks"] = float64(fallbacks)
	rp, tp := median(ref.lat), median(traced.lat)
	rep.note("tracing overhead: query p50 %.4f -> %.4f ms (%+.1f%%)", rp, tp, 100*(tp/rp-1))
}
