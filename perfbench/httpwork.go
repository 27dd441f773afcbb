package main

import (
	"context"
	"time"
)

// window is the slice of a closed loop each latency and goodput figure
// is taken over before the median across slices is reported.
const window = 500 * time.Millisecond

// runHTTP drives the lookup and cluster workloads: the rdapd stack
// behind HTTP, a closed loop and, for lookup, an open loop at a fixed
// rate. With trace, it runs the closed loop untraced and then traced
// over the same stack, and reports per-layer metrics.
func runHTTP(in *inputs, seconds float64, trace bool, rep *report) error {
	var t *tracer
	var l1 *l1Log
	if trace {
		t, l1 = newTracer(), newL1Log()
	}
	st, setups, err := setupHTTP(in, t, l1)
	if err != nil {
		return err
	}
	defer st.close()
	rep.setup(setups)
	rep.heap()

	ls := &loadState{st: st, in: in, t: t, book: newAnswerBook(),
		limit: time.Duration(in.wc.LatencyLimitMS * float64(time.Millisecond))}
	total := time.Duration(seconds * float64(time.Second))
	closed := time.Duration(float64(total) * in.wc.ClosedShare)
	if in.wc.OpenRateRPS <= 0 {
		closed = total
	}
	open := total - closed

	rss := startRSS()
	var phases []*phase
	var ref, traced, openP *phase
	if trace {
		ref = ls.closedLoop("closed-untraced", closed/2, false)
		traced = ls.closedLoop("closed-traced", closed-closed/2, true)
		phases = append(phases, ref, traced)
	} else {
		ref = ls.closedLoop("closed", closed, false)
		phases = append(phases, ref)
	}
	if open > 0 {
		openP = ls.openLoop("open", open, in.wc.OpenRateRPS)
		phases = append(phases, openP)
	}
	rep.e2e["rss_mb"] = rss.Stop()
	phases = append(phases, ls.sweep())

	for _, p := range phases {
		rep.note("%s", p)
		rep.attempted += p.sent
		rep.failed += p.failed
		if p.wrong > 0 {
			rep.fail("%s: %d wrong answers, first: %s", p.name, p.wrong, p.firstWrong)
		}
	}
	p50, tail := median(ref.lat), percentile(ref.lat, 0.99)
	rep.note("%s: p50 %.4f ms, p%.2f %.4f ms over %d requests, goodput %.1f/s within %.0f ms",
		ref.name, p50, 100*tail.Pct, tail.Value, tail.N, float64(ref.good)/ref.wall.Seconds(), in.wc.LatencyLimitMS)
	wp50, wtail, wgood, windows := windowed(ref.lat, ref.at, ref.wall, window, in.wc.LatencyLimitMS)
	rep.e2e["p50_ms"] = wp50
	rep.e2e["p99_ms"] = wtail
	rep.e2e["goodput_rps"] = wgood
	rep.note("%s: medians over %d windows of %s: p50 %.4f ms, p99 %.4f ms, goodput %.1f/s",
		ref.name, windows, window, wp50, wtail, wgood)
	if openP != nil {
		// due_p99_ms is printed, not reported as a metric: one stall of
		// a shared two-core machine delays every request due during it,
		// which moves this tail between runs by more than any bound.
		due, late := percentile(openP.lat, 0.99), percentile(openP.late, 0.99)
		rep.layer["gen.late_p99_ms"] = late.Value
		rep.note("open at %.0f/s: due_p99_ms %.4f (p%.2f from due time over %d requests); generator late p50 %.4f ms, p%.2f %.4f ms",
			in.wc.OpenRateRPS, due.Value, 100*due.Pct, due.N, median(openP.late), 100*late.Pct, late.Value)
	} else {
		rep.layer["gen.late_p99_ms"] = 0
	}

	// Everything below runs after the timed phases.
	rate, conflicts, comparable, err := fieldError(in, ls.book)
	if err != nil {
		rep.fail("field check: %v", err)
	}
	rep.e2e["field_err"] = rate
	rep.note("field_err %.6f: %d conflicts in %d comparable fields of %d distinct answers",
		rate, conflicts, comparable, len(ls.book.first))
	flipped, err := checkFlips(in, ls.book, len(st.cnodes) > 0)
	if err != nil {
		rep.fail("%v", err)
	}
	rep.layer["tiered.answer_flips"] = float64(ls.book.flips)
	rep.note("%d answers for %d domains differed from the domain's first answer; each is that record's L0 or L1 answer",
		ls.book.flips, flipped)

	if trace {
		layerHTTP(in, st, ref, traced, rep)
		allocHTTP(in, st, rep)
		n, err := checkL1(in.parser, l1)
		if err != nil {
			rep.fail("%v", err)
		}
		rep.note("decomposed L1 parse matched core.Parser.Parse on %d records", n)
		if err := rep.writeSpans(traced.spans); err != nil {
			return err
		}
	}
	return nil
}

// layerHTTP computes the per-layer metrics from the traced closed loop,
// and the tracing overhead against the untraced one before it.
func layerHTTP(in *inputs, st *httpStack, ref, traced *phase, rep *report) {
	a := analyze(traced.spans)
	L := rep.layer
	us := func(xs []int64) float64 { return median(nsTo(xs, time.Microsecond)) }

	var selfRDAP []int64
	for i, s := range a.spans {
		if s.layer == lRDAP {
			selfRDAP = append(selfRDAP, a.self(i))
		}
	}
	L["rdap.self_us"] = us(selfRDAP)
	L["rdap.resp_bytes"] = ratio(float64(traced.respBytes), float64(traced.responses))

	d := func(k int) float64 { return float64(traced.afterServe[k] - traced.beforeServe[k]) }
	L["serve.hit_ratio"] = ratio(d(0), d(0)+d(1)+d(2))
	L["serve.shed"] = d(3)
	L["serve.hit_us"] = us(a.durations(lBackend, func(i int) bool {
		return a.spans[i].flag&flagLocal != 0 && len(a.children[a.spans[i].id]) == 0
	}))
	var waits []int64
	for _, s := range a.spans {
		if s.layer != lParseFunc {
			continue
		}
		if pi, ok := a.byID[s.parent]; ok && (a.spans[pi].layer == lBackend || a.spans[pi].layer == lOwner) {
			p := a.spans[pi]
			waits = append(waits, (p.end-p.start)-(s.end-s.start))
		}
	}
	L["serve.queue_wait_us"] = percentile(nsTo(waits, time.Microsecond), 0.99).Value

	r := func(k int) float64 { return float64(traced.afterRouter[k] - traced.beforeRouter[k]) }
	L["tiered.l0_share"] = ratio(r(0), r(0)+r(1)+r(2))
	L["tiered.disagreements"] = r(3)
	L["tiered.l0_us"] = us(a.durations(lParseFunc, func(i int) bool {
		return a.spans[i].flag&flagL0 != 0 && !a.hasChild(i, lL1)
	}))
	shadowed := a.count(lParseFunc, func(i int) bool { return a.spans[i].flag&flagL0 != 0 && a.hasChild(i, lL1) })
	L["tiered.shadow_share"] = ratio(float64(shadowed)+r(3), float64(a.count(lParseFunc, nil)))

	coreLayers(a, L)

	backends := a.count(lBackend, nil)
	remote := a.count(lBackend, func(i int) bool { return a.spans[i].flag&flagLocal == 0 })
	remoteHits := a.count(lBackend, func(i int) bool {
		return a.spans[i].flag&flagLocal == 0 && !a.hasChild(i, lForward)
	})
	L["cluster.forward_share"] = ratio(float64(a.count(lForward, nil)), float64(backends))
	L["cluster.remote_hit_ratio"] = ratio(float64(remoteHits), float64(remote))
	L["cluster.forward_us"] = us(a.durations(lForward, nil))
	L["cluster.owner_us"] = us(a.durations(lOwner, nil))

	for _, k := range []string{"store.append_us", "store.bytes_per_record", "store.segments_sealed",
		"query.scan_ms", "query.read_per_match", "query.us_per_record_read", "query.pruned_share",
		"query.fallbacks", "survey.add_us"} {
		L[k] = 0
	}
	gcLayers(ref, L)

	// Self time per layer, and the client time no server-side span covers.
	var e2e int64
	for _, x := range a.durations(lClient, nil) {
		e2e += x
	}
	rep.selfTable(a, e2e)
	p50r, p50t := median(ref.lat), median(traced.lat)
	gr, gt := float64(ref.good)/ref.wall.Seconds(), float64(traced.good)/traced.wall.Seconds()
	rep.note("tracing overhead: p50 %.4f -> %.4f ms (%+.1f%%), goodput %.1f -> %.1f/s (%+.1f%%)",
		p50r, p50t, 100*(p50t/p50r-1), gr, gt, 100*(gt/gr-1))
}

// coreLayers reports the decomposed L1 parse's steps.
func coreLayers(a *analysis, L map[string]float64) {
	us := func(l layer) float64 { return median(nsTo(a.durations(l, nil), time.Microsecond)) }
	L["core.parse_us"] = us(lL1)
	L["tokenize.us"] = us(lTokenize)
	L["crf.block_us"] = us(lBlock)
	L["crf.field_us"] = us(lField)
	L["core.extract_us"] = us(lExtract)
}

func gcLayers(p *phase, L map[string]float64) {
	L["gc.cycles"] = float64(p.gcCycles)
	L["gc.pause_p99_ms"] = percentile(p.gcPauses, 0.99).Value
}

// allocHTTP measures allocation counts on one goroutine after the timed
// phases, over the workload's most requested records.
func allocHTTP(in *inputs, st *httpStack, rep *report) {
	var texts, hot []string
	a := st.cnodes
	for _, d := range in.perm[:min(200, len(in.perm))] {
		text := in.domains[d].Render().Text
		texts = append(texts, text)
		if len(a) == 0 || a[0].Owner(in.names[d]) == a[0].ID() {
			hot = append(hot, text)
		}
	}
	ps := st.nodes[0].ps
	ctx := context.Background()
	for _, text := range hot {
		_, _ = ps.Parse(ctx, text) // make sure each is cached
	}
	allocLayers(in, texts, rep.layer)
	rep.layer["serve.hit_allocs"] = allocsPer(len(hot), func(i int) { _, _ = ps.Parse(ctx, hot[i]) })
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
