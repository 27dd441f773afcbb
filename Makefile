# Verification targets. `make verify` is the CI entry point: tier-1
# build+test plus vet and a race-detector pass over the concurrent
# serving paths (internal/serve, internal/obs, and the frontends that
# sit on them). `make lint`, `make cover`, and `make benchcheck` are the
# CI quality gates that run alongside it.

GO ?= go

# Minimum total statement coverage (percent) for the packages gated by
# `make cover`.
COVER_FLOOR ?= 70

# Packages whose coverage is gated. internal/obs is the observability
# layer everything reports through; internal/serve is the hot serving
# path; internal/store is the persistence layer under both;
# internal/lifecycle owns hot reload and model promotion;
# internal/tiered is the L0/L1 routing layer in front of the CRF;
# internal/cluster is the sharded-serving coordination layer;
# internal/query is the pruned survey-scale query engine over the store;
# internal/consistency is the WHOIS<->RDAP cross-protocol audit engine;
# internal/modelreg is the content-addressed model registry under the
# promotion state machine; internal/stack assembles all of the above
# into the daemons' serving stack.
COVER_PKGS = repro/internal/serve repro/internal/obs repro/internal/store repro/internal/lifecycle repro/internal/tiered repro/internal/cluster repro/internal/query repro/internal/consistency repro/internal/modelreg repro/internal/stack

# Corpus size and seed for the query-differential gate. The seed
# defaults to today's date so CI explores a fresh corpus every day;
# failures log both values, so any corpus is one env var away from a
# local repro.
QUERYDIFF_N ?= 2000
QUERYDIFF_SEED ?= $(shell date +%Y%m%d)

.PHONY: verify vet build test race race-stress bench-serve bench-tiered lint importcheck benchcheck cover fuzz-smoke query-diff model-verify

verify: vet build test race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./internal/serve/... ./internal/whoisd/... ./internal/rdap/... ./internal/obs/... ./internal/crawler/... ./internal/store/... ./internal/lifecycle/... ./internal/tiered/... ./internal/cluster/... ./internal/query/... ./internal/consistency/... ./internal/modelreg/... ./internal/stack/...

# race-stress: the start/stop and swap tests of the concurrent
# packages, 20 times each under the race detector — the tests that
# have failed intermittently before (close joins, hot swaps, reloads,
# rollouts, joins, promotes, sidecar auto-builds, drains). Not part of
# verify; CI runs it as its own job.
RACE_STRESS_RUN = Close|Swap|Reload|Rollout|Join|Promote|AutoBuild|Drain

race-stress:
	$(GO) test -race -count 20 -run '$(RACE_STRESS_RUN)' ./internal/serve ./internal/store ./internal/query ./internal/lifecycle ./internal/cluster ./internal/stack

bench-serve:
	$(GO) test -run xxx -bench 'BenchmarkServe|BenchmarkParseDirect' -benchtime 1000x ./internal/serve/

bench-tiered:
	$(GO) test -run xxx -bench 'BenchmarkTiered' -benchtime 1000x ./internal/tiered/

# lint: formatting, vet, and import hygiene. Fails if any file needs
# gofmt, if vet complains, or if an internal package imports cmd.
# perfbench is its own module, so `./...` never reaches it; it is vetted
# and compiled separately because it imports internal packages.
lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	$(GO) vet ./...
	cd perfbench && $(GO) vet ./... && $(GO) build -o /dev/null .
	$(MAKE) importcheck

# importcheck: library code must never depend on binaries. Checks the
# full transitive deps of every internal package for repro/cmd/*.
importcheck:
	@bad=$$($(GO) list -f '{{.ImportPath}}: {{join .Deps " "}}' ./internal/... | grep 'repro/cmd' || true); \
	if [ -n "$$bad" ]; then \
		echo "internal packages must not depend on cmd:"; echo "$$bad"; exit 1; \
	fi
	@echo "importcheck: ok"

# benchcheck: run the smoke benchmarks (-count 3, min is kept) and
# compare against the committed BENCH_*.json baselines. Tolerance is
# 30%; widen with BENCH_TOL=0.5 on noisy machines.
benchcheck:
	$(GO) build -o /tmp/benchcheck ./cmd/benchcheck
	( $(GO) test -run '^$$' -bench 'BenchmarkPosterior$$|BenchmarkServeHot$$|BenchmarkTokenizeRecord$$|BenchmarkParseRecord$$' -benchtime 200x -count 3 ./internal/serve . && \
	  $(GO) test -run '^$$' -bench 'BenchmarkTokenize$$|BenchmarkTokenizeReference$$' -benchtime 2000x -count 3 ./internal/tokenize && \
	  $(GO) test -run '^$$' -bench 'BenchmarkStoreAppend$$|BenchmarkStoreScan$$' -benchtime 4096x -count 3 ./internal/store && \
	  $(GO) test -run '^$$' -bench 'BenchmarkHotSwap$$|BenchmarkParseDuringSwap$$' -benchtime 4096x -count 3 ./internal/lifecycle && \
	  $(GO) test -run '^$$' -bench 'BenchmarkTiered' -benchtime 200x -count 3 ./internal/tiered && \
	  $(GO) test -run '^$$' -bench 'BenchmarkRingLookup$$|BenchmarkRingLookupBounded$$|BenchmarkShardForward$$|BenchmarkShardForwardRemoteHit$$|BenchmarkShardForwardTCP$$' -benchtime 20000x -count 3 ./internal/cluster && \
	  $(GO) test -run '^$$' -bench 'BenchmarkQueryPruned$$|BenchmarkQueryFullScan$$|BenchmarkZoneMapBuild$$' -benchtime 20x -count 3 ./internal/query && \
	  $(GO) test -run '^$$' -bench 'BenchmarkConsistencyCheck$$|BenchmarkConsistencyBatch$$' -benchtime 20000x -count 3 ./internal/consistency && \
	  $(GO) test -run '^$$' -bench 'BenchmarkPublish$$|BenchmarkResolveServing$$' -benchtime 50x -count 3 ./internal/modelreg ) \
	  | /tmp/benchcheck BENCH_serve.json BENCH_inference.json BENCH_store.json BENCH_lifecycle.json BENCH_tiered.json BENCH_cluster.json BENCH_query.json BENCH_consistency.json BENCH_modelreg.json

# fuzz-smoke: replay the checked-in seed corpora and fuzz the record
# decoder, the index decoder, the normalizer and the tokenizer (against
# its reference) briefly. Not part of verify; run before touching
# encoding.go or internal/tokenize.
fuzz-smoke:
	$(GO) test -run TestFuzzSeeds ./internal/store/ ./internal/query/
	$(GO) test -run TestFuzzSeedsAsRegressions ./internal/norm/
	$(GO) test -run FuzzTokenizeMatchesReference ./internal/tokenize/
	$(GO) test -run '^$$' -fuzz FuzzRecordDecode -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzFrameScan -fuzztime 10s ./internal/store/
	$(GO) test -run '^$$' -fuzz FuzzIndexDecode -fuzztime 10s ./internal/query/
	$(GO) test -run '^$$' -fuzz FuzzNorm -fuzztime 10s ./internal/norm/
	$(GO) test -run '^$$' -fuzz FuzzTokenizeMatchesReference -fuzztime 10s ./internal/tokenize/

# query-diff: the differential gate for the query engine. A randomized
# store (fresh seed daily in CI) is queried with every supported
# predicate through both the index-pruned planner and the brute-force
# full scan; any byte of difference fails. The corrupt-sidecar variant
# re-runs the comparison with each sidecar failure mode injected.
query-diff:
	@echo "query-diff: QUERYDIFF_N=$(QUERYDIFF_N) QUERYDIFF_SEED=$(QUERYDIFF_SEED)"
	QUERYDIFF_N=$(QUERYDIFF_N) QUERYDIFF_SEED=$(QUERYDIFF_SEED) \
	  $(GO) test -run 'TestQueryDifferential' -count=1 ./internal/query/

# model-verify: end-to-end registry smoke over the real CLI — generate
# a small corpus, train a model, publish it into a scratch registry,
# walk it candidate -> shadow -> serving, publish a successor, and run
# a full checksum verification over everything. Then boot rdapd on each
# model source and check the name /admin/model reports: the registry
# serves default/1.0.0+<crc>, the bare file the implicit
# default/0.0.0+<crc>. This is the runbook in README.md, executed.
model-verify:
	$(GO) build -o /tmp/whoisparse ./cmd/whoisparse
	$(GO) build -o /tmp/rdapd ./cmd/rdapd
	@dir=$$(mktemp -d /tmp/modelreg.XXXXXX); set -e; \
	/tmp/whoisparse gen -n 200 -seed 7 -out $$dir/corpus.labeled; \
	/tmp/whoisparse train -in $$dir/corpus.labeled -out $$dir/parser.wmdl; \
	/tmp/whoisparse model publish -registry $$dir/reg -artifact $$dir/parser.wmdl -corpus $$dir/corpus.labeled -candidate; \
	/tmp/whoisparse model promote -registry $$dir/reg -version 1.0.0; \
	/tmp/whoisparse model promote -registry $$dir/reg -version 1.0.0; \
	/tmp/whoisparse model publish -registry $$dir/reg -artifact $$dir/parser.wmdl -version 1.1.0 -parent 1.0.0; \
	/tmp/whoisparse model verify -registry $$dir/reg; \
	/tmp/whoisparse model list -registry $$dir/reg; \
	crc=$$(/tmp/whoisparse model list -registry $$dir/reg -json | grep -o '"crc32c":"[0-9a-f]*"' | head -1 | cut -d'"' -f4); \
	for src in reg=1.0.0 parser.wmdl=0.0.0; do \
		model=$$dir/$${src%%=*}; want=default/$${src##*=}+$$crc; \
		/tmp/rdapd -n 50 -model $$model -debug-addr 127.0.0.1:0 2>$$dir/rdapd.log & pid=$$!; \
		got=; for i in $$(seq 1 100); do \
			addr=$$(sed -n 's|.*debug endpoints at http://\([^/]*\)/.*|\1|p' $$dir/rdapd.log); \
			if [ -n "$$addr" ]; then got=$$(curl -sf http://$$addr/admin/model | grep -o '"version":"[^"]*"' | cut -d'"' -f4); break; fi; \
			sleep 0.1; \
		done; \
		kill $$pid; wait $$pid || true; \
		if [ "$$got" != "$$want" ]; then \
			echo "model-verify: rdapd -model $$model reports '$$got', want $$want"; cat $$dir/rdapd.log; rm -rf $$dir; exit 1; \
		fi; \
		echo "model-verify: rdapd -model $$model serves $$got"; \
	done; \
	rm -rf $$dir; \
	echo "model-verify: ok"

# cover: per-package coverage floor. Writes cover.<pkg>.out profiles
# (uploaded as CI artifacts) and fails if any gated package is below
# COVER_FLOOR percent.
cover:
	@for pkg in $(COVER_PKGS); do \
		out=cover.$$(basename $$pkg).out; \
		$(GO) test -coverprofile=$$out $$pkg || exit 1; \
		pct=$$($(GO) tool cover -func=$$out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
		echo "$$pkg total coverage: $$pct% (floor $(COVER_FLOOR)%)"; \
		awk -v p="$$pct" -v f="$(COVER_FLOOR)" 'BEGIN {exit (p+0 < f+0) ? 1 : 0}' || \
			{ echo "$$pkg is below the $(COVER_FLOOR)% coverage floor"; exit 1; }; \
	done
