package store

import (
	"sync"

	"repro/internal/core"
	"repro/internal/survey"
)

// SinkOptions configures a crawl sink.
type SinkOptions struct {
	// Parse, when non-nil, runs the statistical parser over each thick
	// record before persisting; nil stores the raw text with thin-record
	// facts only (domain + registrar), to be parsed later. The model
	// version Parse stamps on a record carries into its facts, so later
	// drift analysis can segment the corpus by the model that parsed it.
	Parse func(text string) *core.ParsedRecord
	// Blacklist, when non-nil, supplies the DBL membership bit for the
	// derived facts.
	Blacklist func(domain string) bool
	// CheckpointEvery fsyncs the store after every N records (<= 0
	// means 256) — the checkpoint cadence that bounds how much a crash
	// can lose to the unsynced tail.
	CheckpointEvery int
}

// Sink is the checkpointed bridge between a crawl and a Store: workers
// hand it raw thick records concurrently; it parses (optionally),
// derives survey facts, appends, and periodically syncs, so an
// interrupted crawl resumes from its last checkpoint instead of from
// zero.
type Sink struct {
	st   *Store
	opts SinkOptions

	mu      sync.Mutex
	since   int // appends since the last checkpoint
	written uint64
}

// NewSink builds a sink over st.
func NewSink(st *Store, opts SinkOptions) *Sink {
	if opts.CheckpointEvery <= 0 {
		opts.CheckpointEvery = 256
	}
	return &Sink{st: st, opts: opts}
}

// Put persists one crawled record. registrar is the thin record's
// registrar, used as the facts fallback when the thick record does not
// carry one (§2.2: legacy thick formats omit it). Safe for concurrent
// use by crawl workers.
func (k *Sink) Put(domain, registrar, text string) error {
	rec := &Record{Domain: domain, Text: text}
	blacklisted := k.opts.Blacklist != nil && k.opts.Blacklist(domain)
	if k.opts.Parse != nil {
		rec.Parsed = k.opts.Parse(text)
		rec.Facts = survey.FactsFrom(rec.Parsed, blacklisted)
		rec.Facts.Domain = domain
	} else {
		rec.Facts = survey.Facts{Domain: domain, Blacklisted: blacklisted}
	}
	if rec.Facts.Registrar == "" {
		rec.Facts.Registrar = registrar
	}

	k.mu.Lock()
	defer k.mu.Unlock()
	if err := k.st.Append(rec); err != nil {
		return err
	}
	k.written++
	k.since++
	if k.since >= k.opts.CheckpointEvery {
		if err := k.st.Sync(); err != nil {
			return err
		}
		k.since = 0
	}
	return nil
}

// Written reports how many records the sink has appended.
func (k *Sink) Written() uint64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.written
}

// Flush forces a final checkpoint; call once the crawl finishes.
func (k *Sink) Flush() error {
	k.mu.Lock()
	defer k.mu.Unlock()
	k.since = 0
	return k.st.Sync()
}
