package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/rdap"
	"repro/internal/serve"
	"repro/internal/tokenize"
)

// layer names a span: one call into one layer's public entry point.
type layer uint8

const (
	lClient    layer = iota // HTTP client call (transport, both sides)
	lRDAP                   // rdap.Server.ServeHTTP
	lBackend                // the ParseBackend given to EnableParsedBackend
	lForward                // the cluster.ShardClient given to AddPeer
	lOwner                  // the cluster.Backend given to ServeTCP
	lParseFunc              // the ParseFunc installed with SetParseFunc
	lL1                     // the L1 function handed to tiered.Router.Bind
	lTokenize               // tokenize.Tokenize
	lBlock                  // block CRF: MapLines + Decode
	lField                  // field CRF: ParseFields
	lExtract                // ExtractFields
	lBatch                  // serve.Server.ParseBatch
	lAdd                    // survey.Survey.Add
	lAppend                 // store.Store.Append
	lScan                   // query.Engine.Scan
	lCheck                  // the benchmark hashing an L1 output for checkL1
	numLayers
)

var layerNames = [numLayers]string{
	"client", "rdap", "backend", "forward", "owner", "parsefunc", "l1",
	"tokenize", "crf.block", "crf.field", "extract",
	"parsebatch", "survey.add", "store.append", "query.scan", "bench.check",
}

// Span flags.
const (
	flagLocal uint8 = 1 << iota // backend: the ring owner is this node
	flagL0                      // parsefunc: the record served came from L0
)

// span is one timed call. Spans of one request share req; parent is the
// id of the span that caused it (0 for a root).
type span struct {
	start, end int64 // ns since the tracer's base
	id, parent uint32
	req        uint32
	layer      layer
	flag       uint8
}

// ref identifies an open span to its children.
type ref struct{ id, req uint32 }

type ctxKey struct{}

// tracer keeps spans in memory while on; wrappers consult it on every
// call and pass straight through while it is off.
type tracer struct {
	base time.Time
	on   atomic.Bool
	ids  atomic.Uint32

	mu    sync.Mutex
	spans []span

	// Layers below serve and the shard protocol see only the record
	// text, not the caller's context, so callers bind the text to the
	// span they are about to call from.
	bmu   sync.Mutex
	bound map[string]ref

	respBytes, responses atomic.Int64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), bound: make(map[string]ref)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

func (t *tracer) begin() (uint32, int64) { return t.ids.Add(1), t.now() }

func (t *tracer) end(l layer, id uint32, parent ref, start int64, flag uint8) {
	t.add(span{start: start, end: t.now(), id: id, parent: parent.id, req: parent.req, layer: l, flag: flag})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) bind(text string, r ref) (prev ref, had bool) {
	t.bmu.Lock()
	prev, had = t.bound[text]
	t.bound[text] = r
	t.bmu.Unlock()
	return prev, had
}

func (t *tracer) unbind(text string, prev ref, had bool) {
	t.bmu.Lock()
	if had {
		t.bound[text] = prev
	} else {
		delete(t.bound, text)
	}
	t.bmu.Unlock()
}

func (t *tracer) lookup(text string) ref {
	t.bmu.Lock()
	r := t.bound[text]
	t.bmu.Unlock()
	return r
}

// take returns the recorded spans and clears the buffer.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.spans
	t.spans = nil
	return s
}

func fromCtx(ctx context.Context) ref {
	r, _ := ctx.Value(ctxKey{}).(ref)
	return r
}

// --- wrappers around each layer's entry point ---

const reqHeader = "X-Bench-Req"

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(b []byte) (int, error) {
	n, err := w.ResponseWriter.Write(b)
	w.n += int64(n)
	return n, err
}

// handler wraps rdap.Server.ServeHTTP.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 32)
		id, start := t.begin()
		ctx := context.WithValue(r.Context(), ctxKey{}, ref{id, uint32(req)})
		cw := &countingWriter{ResponseWriter: w}
		h.ServeHTTP(cw, r.WithContext(ctx))
		// The client names its own span id as the request id.
		t.end(lRDAP, id, ref{uint32(req), uint32(req)}, start, 0)
		t.respBytes.Add(cw.n)
		t.responses.Add(1)
	})
}

// tracedBackend wraps the ParseBackend given to EnableParsedBackend.
// owned reports whether this node owns a domain (always, without a
// cluster).
type tracedBackend struct {
	t     *tracer
	next  rdap.ParseBackend
	owned func(domain string) bool
}

func (b tracedBackend) ParseDomain(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	t := b.t
	if !t.on.Load() {
		return b.next.ParseDomain(ctx, domain, text)
	}
	parent := fromCtx(ctx)
	id, start := t.begin()
	me := ref{id, parent.req}
	prev, had := t.bind(text, me)
	rec, err := b.next.ParseDomain(context.WithValue(ctx, ctxKey{}, me), domain, text)
	t.unbind(text, prev, had)
	var flag uint8
	if b.owned(domain) {
		flag = flagLocal
	}
	t.end(lBackend, id, parent, start, flag)
	return rec, err
}

// serveBackend is rdap's own adapter from serve.Server to ParseBackend,
// restated because rdap does not export it.
type serveBackend struct{ ps *serve.Server }

func (b serveBackend) ParseDomain(ctx context.Context, _, text string) (*core.ParsedRecord, error) {
	return b.ps.Parse(ctx, text)
}

// tracedShard wraps the ShardClient a node forwards through.
type tracedShard struct {
	cluster.ShardClient
	t *tracer
}

func (c tracedShard) Parse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	t := c.t
	if !t.on.Load() {
		return c.ShardClient.Parse(ctx, domain, text)
	}
	parent := fromCtx(ctx)
	id, start := t.begin()
	prev, had := t.bind(text, ref{id, parent.req})
	rec, err := c.ShardClient.Parse(ctx, domain, text)
	t.unbind(text, prev, had)
	t.end(lForward, id, parent, start, 0)
	return rec, err
}

// tracedOwner wraps the Backend a node serves the shard protocol with.
type tracedOwner struct {
	cluster.Backend
	t *tracer
}

func (o tracedOwner) HandleParse(ctx context.Context, domain, text string) (*core.ParsedRecord, error) {
	t := o.t
	if !t.on.Load() {
		return o.Backend.HandleParse(ctx, domain, text)
	}
	parent := t.lookup(text)
	id, start := t.begin()
	prev, had := t.bind(text, ref{id, parent.req})
	rec, err := o.Backend.HandleParse(ctx, domain, text)
	t.unbind(text, prev, had)
	t.end(lOwner, id, parent, start, 0)
	return rec, err
}

// parseFunc wraps the ParseFunc installed with SetParseFunc.
func (t *tracer) parseFunc(fn serve.ParseFunc) serve.ParseFunc {
	return func(text string) *core.ParsedRecord {
		if !t.on.Load() {
			return fn(text)
		}
		parent := t.lookup(text)
		id, start := t.begin()
		prev, had := t.bind(text, ref{id, parent.req})
		out := fn(text)
		t.unbind(text, prev, had)
		var flag uint8
		if out != nil && out.Tier == core.TierTemplate {
			flag = flagL0
		}
		t.end(lParseFunc, id, parent, start, flag)
		return out
	}
}

// decomposedL1 is core.Parser.Parse restated as its public steps, so each
// step can be timed: tokenize, block CRF, field CRF, extraction. A hash
// of every record it returns is kept in *log for checkL1; keeping the
// records themselves would grow the heap the traced run measures.
func (t *tracer) decomposedL1(p *core.Parser, log *l1Log) serve.ParseFunc {
	topts := p.Config().Tokenize
	bm := p.BlockModel()
	return func(text string) *core.ParsedRecord {
		on := t.on.Load()
		var parent ref
		var id uint32
		var s0 int64
		if on {
			parent = t.lookup(text)
			id, s0 = t.begin()
		}
		a := t.now()
		lines := tokenize.Tokenize(text, topts)
		b := t.now()
		path, _ := bm.Decode(bm.MapLines(lines))
		blocks := make([]labels.Block, len(path))
		for i, y := range path {
			blocks[i] = labels.Block(y)
		}
		c := t.now()
		fields := p.ParseFields(lines, blocks)
		d := t.now()
		out := &core.ParsedRecord{Lines: lines, Blocks: blocks, Fields: fields}
		out.ExtractFields()
		e := t.now()
		if on {
			me := ref{id, parent.req}
			for _, st := range [...]struct {
				l        layer
				from, to int64
			}{{lTokenize, a, b}, {lBlock, b, c}, {lField, c, d}, {lExtract, d, e}} {
				t.add(span{start: st.from, end: st.to, id: t.ids.Add(1), parent: me.id, req: me.req, layer: st.l})
			}
			t.end(lL1, id, parent, s0, 0)
		}
		h := t.now()
		log.add(text, out)
		if on {
			t.add(span{start: h, end: t.now(), id: t.ids.Add(1), parent: parent.id, req: parent.req, layer: lCheck})
		}
		return out
	}
}

// l1Log keeps the text and a hash of the output of every decomposed
// parse.
type l1Log struct {
	seed   maphash.Seed
	mu     sync.Mutex
	texts  []string
	hashes []uint64
}

func newL1Log() *l1Log { return &l1Log{seed: maphash.MakeSeed()} }

func (l *l1Log) add(text string, rec *core.ParsedRecord) {
	h := recordHash(l.seed, rec)
	l.mu.Lock()
	l.texts = append(l.texts, text)
	l.hashes = append(l.hashes, h)
	l.mu.Unlock()
}

// recordHash hashes every field of a parsed record but Tier, which the
// router stamps on L1 records after they return.
func recordHash(seed maphash.Seed, pr *core.ParsedRecord) uint64 {
	var h maphash.Hash
	h.SetSeed(seed)
	str := func(s string) {
		_ = binary.Write(&h, binary.LittleEndian, uint32(len(s)))
		h.WriteString(s)
	}
	_ = binary.Write(&h, binary.LittleEndian, uint32(len(pr.Lines)))
	for _, ln := range pr.Lines {
		str(ln.Raw)
		str(ln.Title)
		str(ln.Value)
		_ = binary.Write(&h, binary.LittleEndian, [2]int32{boolInt(ln.HasSep), int32(len(ln.Obs))})
		for _, o := range ln.Obs {
			str(o)
		}
	}
	_ = binary.Write(&h, binary.LittleEndian, uint32(len(pr.Blocks)))
	for _, b := range pr.Blocks {
		_ = binary.Write(&h, binary.LittleEndian, int32(b))
	}
	_ = binary.Write(&h, binary.LittleEndian, uint32(len(pr.Fields)))
	for _, f := range pr.Fields {
		_ = binary.Write(&h, binary.LittleEndian, int32(f))
	}
	c := pr.Registrant
	for _, s := range []string{c.Name, c.ID, c.Org, c.Street, c.City, c.State, c.Postcode, c.Country, c.Phone, c.Fax, c.Email,
		pr.Registrar, pr.RegistrarURL, pr.DomainName, pr.WhoisServer, pr.CreatedDate, pr.UpdatedDate, pr.ExpiresDate, pr.ModelVersion} {
		str(s)
	}
	for _, list := range [][]string{pr.NameServers, pr.Statuses} {
		_ = binary.Write(&h, binary.LittleEndian, uint32(len(list)))
		for _, s := range list {
			str(s)
		}
	}
	return h.Sum64()
}

func boolInt(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

// checkL1 compares every decomposed parse logged since the last call with
// core.Parser.Parse on the same text.
func checkL1(p *core.Parser, log *l1Log) (int, error) {
	log.mu.Lock()
	texts, hashes := log.texts, log.hashes
	log.texts, log.hashes = nil, nil
	log.mu.Unlock()
	for i, text := range texts {
		if recordHash(log.seed, p.Parse(text)) != hashes[i] {
			return 0, fmt.Errorf("decomposed L1 parse differs from core.Parser.Parse for a %d-byte record", len(text))
		}
	}
	return len(texts), nil
}

// --- analysis ---

// analysis indexes one traced phase's spans.
type analysis struct {
	spans    []span
	children map[uint32][]int // parent id -> indexes into spans
	byID     map[uint32]int
}

func analyze(spans []span) *analysis {
	a := &analysis{spans: spans, children: make(map[uint32][]int), byID: make(map[uint32]int, len(spans))}
	for i, s := range spans {
		a.byID[s.id] = i
		if s.parent != 0 {
			a.children[s.parent] = append(a.children[s.parent], i)
		}
	}
	return a
}

// self is a span's duration minus the part of it its children cover.
func (a *analysis) self(i int) int64 {
	s := a.spans[i]
	kids := a.children[s.id]
	if len(kids) == 0 {
		return s.end - s.start
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		c := a.spans[k]
		lo, hi := max(c.start, s.start), min(c.end, s.end)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(x, y int) bool { return iv[x][0] < iv[y][0] })
	var covered, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			covered += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	covered += curHi - curLo
	return s.end - s.start - covered
}

// hasChild reports whether span i has a child in layer l.
func (a *analysis) hasChild(i int, l layer) bool {
	for _, k := range a.children[a.spans[i].id] {
		if a.spans[k].layer == l {
			return true
		}
	}
	return false
}

// durations returns the durations (ns) of the spans in layer l that
// satisfy keep (nil keeps all).
func (a *analysis) durations(l layer, keep func(i int) bool) []int64 {
	var out []int64
	for i, s := range a.spans {
		if s.layer == l && (keep == nil || keep(i)) {
			out = append(out, s.end-s.start)
		}
	}
	return out
}

func (a *analysis) count(l layer, keep func(i int) bool) int {
	return len(a.durations(l, keep))
}

// selfTotals sums self time per layer.
func (a *analysis) selfTotals() [numLayers]int64 {
	var tot [numLayers]int64
	for i, s := range a.spans {
		tot[s.layer] += a.self(i)
	}
	return tot
}

// writeSpans writes spans as tab-separated lines: layer, req, id, parent,
// start ns, end ns, flag.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "layer\treq\tid\tparent\tstart_ns\tend_ns\tflag")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%d\n", layerNames[s.layer], s.req, s.id, s.parent, s.start, s.end, s.flag)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
