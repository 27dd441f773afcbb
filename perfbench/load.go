package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/consistency"
	"repro/internal/core"
	"repro/internal/labels"
	"repro/internal/rdap"
	"repro/internal/store"
	"repro/internal/tiered"
	"repro/internal/tokenize"
)

type bodyBuf struct{ bytes.Buffer }

// get fetches /parsed/<name> into b. With tracing on, the call is the
// request's root span and its id travels as the request id.
func (s *httpStack) get(t *tracer, name string, b *bodyBuf) (int, error) {
	req, err := http.NewRequest(http.MethodGet, s.base+name, nil)
	if err != nil {
		return 0, err
	}
	var id uint32
	var start int64
	traced := t != nil && t.on.Load()
	if traced {
		id, start = t.begin()
		req.Header.Set(reqHeader, strconv.FormatUint(uint64(id), 10))
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, err
	}
	b.Reset()
	_, err = b.ReadFrom(resp.Body)
	resp.Body.Close()
	if traced {
		t.end(lClient, id, ref{0, id}, start, 0)
	}
	return resp.StatusCode, err
}

// answerBook keeps the first answer for every domain, for the field
// check after the timed phases, and every later answer that differs from
// it. The cache generation never changes during a run, but the tiered
// router can answer a record from L0 or from L1 depending on its shadow
// and demotion state, so a domain re-parsed after eviction can get the
// other tier's answer. checkFlips holds every such answer to the answers
// the stack can give for that record.
type answerBook struct {
	seed   maphash.Seed
	mu     sync.Mutex
	hash   map[int32][]uint64 // distinct answer hashes, first answer first
	first  map[int32][]byte
	others map[int32][][]byte
	flips  int64 // answers that differed from their domain's first answer
}

func newAnswerBook() *answerBook {
	return &answerBook{seed: maphash.MakeSeed(), hash: make(map[int32][]uint64),
		first: make(map[int32][]byte), others: make(map[int32][][]byte)}
}

// record notes body as an answer for domain d.
func (a *answerBook) record(d int32, body []byte) {
	h := maphash.Bytes(a.seed, body)
	a.mu.Lock()
	defer a.mu.Unlock()
	seen := a.hash[d]
	if len(seen) == 0 {
		a.hash[d] = []uint64{h}
		a.first[d] = append([]byte(nil), body...)
		return
	}
	if seen[0] == h {
		return
	}
	a.flips++
	for _, x := range seen[1:] {
		if x == h {
			return
		}
	}
	a.hash[d] = append(seen, h)
	a.others[d] = append(a.others[d], append([]byte(nil), body...))
}

// phase is what one load phase measured.
type phase struct {
	name                      string
	sent, ok, failed, wrong   int64
	good                      int64           // ok and within the latency limit
	lat                       []float64       // ms per ok request: from send (closed) or from due (open)
	at                        []time.Duration // completion time of each lat sample, from the phase start
	late                      []float64       // open loop: ms the generator released each request after its due time
	wall                      time.Duration
	gcCycles                  uint32
	gcPauses                  []float64 // ms
	firstWrong                string
	respBytes, responses      int64
	beforeServe, afterServe   [5]uint64
	beforeRouter, afterRouter [4]uint64
	spans                     []span
}

func (p *phase) String() string {
	return fmt.Sprintf("%s: sent=%d succeeded=%d failed=%d wrong=%d wall=%.3fs gc=%d pause_max=%.3fms",
		p.name, p.sent, p.ok, p.failed, p.wrong, p.wall.Seconds(), p.gcCycles, percentile(p.gcPauses, 1).Value)
}

// sender is one load goroutine's private tally, merged after the phase.
type sender struct {
	t0                            time.Time // phase start
	lat                           []float64
	at                            []time.Duration // completion time of each lat sample, from t0
	sent, ok, failed, wrong, good int64
	firstWrong                    string
	b                             bodyBuf
}

// do sends one request for domain d and checks the answer. from is the
// instant latency is measured from.
func (s *sender) do(st *httpStack, t *tracer, in *inputs, book *answerBook, d int32, from time.Time, limit time.Duration) {
	s.sent++
	status, err := st.get(t, in.names[d], &s.b)
	now := time.Now()
	lat := now.Sub(from)
	switch {
	case err != nil || status != http.StatusOK:
		s.failed++
		return
	case !bytes.Contains(s.b.Bytes(), in.needles[d]):
		s.wrongAnswer(fmt.Sprintf("answer for %s does not carry its ldhName", in.names[d]))
		return
	}
	book.record(d, s.b.Bytes())
	s.ok++
	s.lat = append(s.lat, float64(lat)/float64(time.Millisecond))
	s.at = append(s.at, now.Sub(s.t0))
	if lat <= limit {
		s.good++
	}
}

func (s *sender) wrongAnswer(msg string) {
	s.wrong++
	if s.firstWrong == "" {
		s.firstWrong = msg
	}
}

func (p *phase) merge(s *sender) {
	p.sent += s.sent
	p.ok += s.ok
	p.failed += s.failed
	p.wrong += s.wrong
	p.good += s.good
	p.lat = append(p.lat, s.lat...)
	p.at = append(p.at, s.at...)
	if p.firstWrong == "" {
		p.firstWrong = s.firstWrong
	}
}

// gcMark snapshots the collector for a phase's gc figures.
type gcMark struct{ num uint32 }

func markGC() gcMark {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return gcMark{m.NumGC}
}

func (p *phase) closeGC(from gcMark) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	cycles := m.NumGC - from.num
	p.gcCycles += cycles
	n := min(cycles, uint32(len(m.PauseNs)))
	for i := uint32(0); i < n; i++ {
		idx := (m.NumGC - i + uint32(len(m.PauseNs)) - 1) % uint32(len(m.PauseNs))
		p.gcPauses = append(p.gcPauses, float64(m.PauseNs[idx])/1e6)
	}
}

// loadState carries what every phase of a run shares: the position in
// the request sequence and the answer book.
type loadState struct {
	st     *httpStack
	in     *inputs
	t      *tracer
	book   *answerBook
	cursor atomic.Int64
	limit  time.Duration
}

func (ls *loadState) next() int32 {
	i := ls.cursor.Add(1) - 1
	return ls.in.seq[i%int64(len(ls.in.seq))]
}

// begin and finish bracket a phase with the counters it reports deltas of.
func (ls *loadState) begin(name string, traced bool) (*phase, gcMark) {
	p := &phase{name: name}
	ss, rs := ls.st.servingStats(), ls.st.routerStats()
	p.beforeServe = [5]uint64{ss.Hits, ss.Misses, ss.Coalesced, ss.Shed, ss.Parsed}
	p.beforeRouter = [4]uint64{rs.L0Hits, rs.L0Demoted, rs.L1Fallbacks, rs.Disagreements}
	if ls.t != nil {
		ls.t.take()
		ls.t.respBytes.Store(0)
		ls.t.responses.Store(0)
		ls.t.on.Store(traced)
	}
	return p, markGC()
}

func (ls *loadState) finish(p *phase, g gcMark) {
	p.closeGC(g)
	ss, rs := ls.st.servingStats(), ls.st.routerStats()
	p.afterServe = [5]uint64{ss.Hits, ss.Misses, ss.Coalesced, ss.Shed, ss.Parsed}
	p.afterRouter = [4]uint64{rs.L0Hits, rs.L0Demoted, rs.L1Fallbacks, rs.Disagreements}
	if ls.t != nil {
		ls.t.on.Store(false)
		p.spans = ls.t.take()
		p.respBytes, p.responses = ls.t.respBytes.Load(), ls.t.responses.Load()
	}
}

// closedLoop runs one goroutine per connection, each sending its next
// request as soon as the previous one completes, for dur.
func (ls *loadState) closedLoop(name string, dur time.Duration, traced bool) *phase {
	p, g := ls.begin(name, traced)
	conns := max(ls.in.wc.Connections, 1)
	senders := make([]sender, conns)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := range senders {
		senders[w].t0 = start
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				s.do(ls.st, ls.t, ls.in, ls.book, ls.next(), time.Now(), ls.limit)
			}
		}(&senders[w])
	}
	wg.Wait()
	p.wall = time.Since(start)
	for i := range senders {
		p.merge(&senders[i])
	}
	ls.finish(p, g)
	return p
}

// sweep requests once each, after the timed phases, every domain they
// did not request, so the answers field_err scores are the whole
// population's and not only the seed's popular domains.
func (ls *loadState) sweep() *phase {
	var todo []int32
	ls.book.mu.Lock()
	for d := range ls.in.domains {
		if _, ok := ls.book.first[int32(d)]; !ok {
			todo = append(todo, int32(d))
		}
	}
	ls.book.mu.Unlock()
	p := &phase{name: "sweep"}
	conns := max(ls.in.wc.Connections, 1)
	senders := make([]sender, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range senders {
		senders[w].t0 = start
		wg.Add(1)
		go func(w int, s *sender) {
			defer wg.Done()
			for i := w; i < len(todo); i += conns {
				s.do(ls.st, nil, ls.in, ls.book, todo[i], time.Now(), ls.limit)
			}
		}(w, &senders[w])
	}
	wg.Wait()
	p.wall = time.Since(start)
	for i := range senders {
		p.merge(&senders[i])
	}
	return p
}

// openLoop sends requests at a fixed rate for dur, whether or not
// earlier ones have completed, over the same connections. A pacer
// goroutine releases every request that has come due at each tick of a
// coarse ticker, so there is no sleep per request; latency counts from
// each request's due time, and the pacer's own lateness is kept.
func (ls *loadState) openLoop(name string, dur time.Duration, rate float64) *phase {
	p, g := ls.begin(name, false)
	n := int(rate * dur.Seconds())
	interval := time.Duration(float64(time.Second) / rate)
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = ls.next()
	}
	late := make([]float64, n)
	// Buffered to the number of sends, so the pacer never blocks.
	due := make(chan int, n)
	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(due)
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		next := 0
		for next < n {
			<-tick.C
			now := time.Since(start)
			for ; next < n && time.Duration(next)*interval <= now; next++ {
				late[next] = float64(now-time.Duration(next)*interval) / float64(time.Millisecond)
				due <- next
			}
		}
	}()
	conns := max(ls.in.wc.Connections, 1)
	senders := make([]sender, conns)
	for w := range senders {
		senders[w].t0 = start
		wg.Add(1)
		go func(s *sender) {
			defer wg.Done()
			for i := range due {
				s.do(ls.st, ls.t, ls.in, ls.book, idx[i], start.Add(time.Duration(i)*interval), ls.limit)
			}
		}(&senders[w])
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.late = late
	for i := range senders {
		p.merge(&senders[i])
	}
	ls.finish(p, g)
	return p
}

// fieldError scores every distinct answer served against the domain's
// registry truth: the share of comparable fields consistency.Compare
// marks as conflicting.
func fieldError(in *inputs, book *answerBook) (rate float64, conflicts, comparable int, err error) {
	for d, body := range book.first {
		var pd rdap.ParsedDomain
		if err := json.Unmarshal(body, &pd); err != nil {
			return 0, 0, 0, fmt.Errorf("answer for %s is not JSON: %w", in.names[d], err)
		}
		pr, err := recordFromServed(&pd)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("answer for %s: %w", in.names[d], err)
		}
		c := compareTruth(pr, in, int(d))
		conflicts += c.Conflicts()
		comparable += c.Comparable()
	}
	if comparable == 0 {
		return 0, 0, 0, fmt.Errorf("no comparable fields in %d answers", len(book.first))
	}
	return float64(conflicts) / float64(comparable), conflicts, comparable, nil
}

func compareTruth(pr *core.ParsedRecord, in *inputs, d int) consistency.Comparison {
	truth := rdap.FromRegistration(&in.domains[d].Reg)
	return consistency.Compare(consistency.FromWHOIS(pr), consistency.FromRDAP(truth))
}

// recordFromServed rebuilds the parsed record a /parsed answer shows, so
// the answer a user received is what gets scored.
func recordFromServed(pd *rdap.ParsedDomain) (*core.ParsedRecord, error) {
	pr := &core.ParsedRecord{
		DomainName:   pd.LDHName,
		Registrar:    pd.Registrar,
		RegistrarURL: pd.RegistrarURL,
		WhoisServer:  pd.Port43,
	}
	for _, ev := range pd.Events {
		switch ev.EventAction {
		case "registration":
			pr.CreatedDate = ev.EventDate
		case "last changed":
			pr.UpdatedDate = ev.EventDate
		case "expiration":
			pr.ExpiresDate = ev.EventDate
		}
	}
	if c := pd.Registrant; c != nil {
		pr.Registrant = core.Contact{Name: c.Name, ID: c.ID, Org: c.Org, Street: c.Street, City: c.City,
			State: c.State, Postcode: c.Postcode, Country: c.Country, Phone: c.Phone, Fax: c.Fax, Email: c.Email}
	}
	for _, ln := range pd.Lines {
		b, err := labels.ParseBlock(ln.Block)
		if err != nil {
			return nil, err
		}
		pr.Lines = append(pr.Lines, tokenize.Line{Title: ln.Title, Value: ln.Value})
		pr.Blocks = append(pr.Blocks, b)
	}
	return pr, nil
}

// checkFlips holds every domain that got more than one distinct answer
// to the answers the stack can give for its record: the L0 template's
// and the L1 parser's, each rendered as the node that owns it would, or
// as it arrives over the shard protocol when clustered.
func checkFlips(in *inputs, book *answerBook, clustered bool) (int, error) {
	miss := &core.ParsedRecord{}
	// A router that never shadow-samples answers from L0 whenever a
	// healthy template matches, and calls L1 otherwise.
	l0 := tiered.NewFromRecords(in.trecs, core.DefaultConfig().Tokenize,
		tiered.Options{ShadowEvery: math.MaxInt}).Bind(func(string) *core.ParsedRecord { return miss })
	for d, others := range book.others {
		name := in.names[d]
		text := in.domains[d].Render().Text
		l1 := in.parser.Parse(text)
		l1.Tier = core.TierCRF
		recs := []*core.ParsedRecord{l1}
		if r := l0(text); r != miss {
			recs = append(recs, r)
		}
		var valid [][]byte
		for _, r := range recs {
			valid = append(valid, render(name, r))
			if clustered {
				rt, err := store.DecodeRecord(store.EncodeRecord(nil, &store.Record{Domain: name, Parsed: r}))
				if err != nil {
					return 0, err
				}
				valid = append(valid, render(name, rt.Parsed))
			}
		}
		for _, body := range append([][]byte{book.first[d]}, others...) {
			ok := false
			for _, v := range valid {
				ok = ok || bytes.Equal(v, body)
			}
			if !ok {
				return 0, fmt.Errorf("%s got %d distinct answers, and one is neither its L0 nor its L1 answer", name, 1+len(others))
			}
		}
	}
	return len(book.others), nil
}

// render is the body rdap.Server writes for a /parsed answer.
func render(name string, pr *core.ParsedRecord) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(rdap.ParsedFromRecord(name, pr))
	return b.Bytes()
}
