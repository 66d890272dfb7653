# Developer entry points for the Going Wild reproduction.

GO ?= go

.PHONY: all build vet lint lint-escape test test-short bench-test race fuzz-smoke bench-all report markdown record examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (internal/lint): the five rules
# determinism, maporder, errdrop, ctxhygiene and sleepcall. Lock copies
# are go vet's job (the vet target); README "Correctness tooling"
# records what each rule has caught. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/wildlint ./...

# The zero-alloc contract of //lint:hotpath functions, checked by the
# compiler: build the module with escape-analysis diagnostics (-m; a
# cached build replays them) and fail if the compiler reports a heap
# allocation inside an annotated function, or if an annotation is
# attached to no function. The *Allocs tests check the same contract
# at run time, append growth included.
lint-escape:
	$(GO) build -gcflags=-m ./... 2> /tmp/wildlint_escape.log || (cat /tmp/wildlint_escape.log; exit 1)
	$(GO) run ./cmd/wildlint -escape-log /tmp/wildlint_escape.log ./...

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The benchmark harness (BENCHMARK.json, `go run -C bench goingwild/bench`)
# is its own module, so the root `go test ./...` neither builds nor runs
# it; this does.
bench-test:
	$(GO) test -C bench ./...

# Race-detector pass over the concurrent subsystems (the stress tests in
# scanner and wildnet exist for this target; ampli's survey runs the ANY
# scan's receiver under four senders; cluster's linkage fills its
# distance rows from parallel goroutines through an atomic row counter;
# snoop's rounds, the ANY scan and the CHAOS scan merge concurrent
# senders' replies into per-resolver slots under stripe locks; the domain
# scan claims its answer slots with atomics instead, and the sweep and
# the alive scan claim one bit per target or list position).
# Two runs go three times, because one schedule of them proves little:
# resolvesvc's coalescer stress is a race between request goroutines and
# one prober, and over the UDP gateway the domain scan's answer slots are
# written by the transport's read loop while the scan reads them. The
# domain scan's differential (every row of a scan of all names against a
# scan of that name alone, four senders interleaving the rows) rides
# with the gateway runs, and so do the claim bits' stress (four
# goroutines claiming overlapping indices, one winner each) and the
# sweep's two: its lock-free miss check against the collected responder
# list after each round of four senders claiming bits, and its template
# probes against the same probes sent built. The gateway and UDP transport tests of wildnet and
# dnsscan go three times as well: the gateway's read loop answers every
# datagram through an in-memory transport, and dnsscan's test (its
# children are the race-built test binary) holds a -udp scan to the
# in-memory one. So do wildnet's silent-memo tests: four senders set the
# memo's bits of one word at once. The lfsr package runs once, for its
# concurrent first lookups into a fresh blacklist.
# The equivalence harness's children are the race-built test binary, so
# the last line runs the full report under every fault profile, at
# GOMAXPROCS 1 and 2, under the detector.
race:
	$(GO) test -race ./internal/scanner ./internal/wildnet ./internal/lfsr ./internal/ampli ./internal/cluster ./internal/snoop ./internal/pipeline ./internal/metrics ./internal/debughttp .
	$(GO) test -race -count=3 -run 'Gateway|TestDomainScanRowsMatchOneNameScans|TestClaimBitsOneWinner|TestSweepMissMatchesAnswered|TestLazyProbesMatchBuiltProbes' ./internal/scanner
	$(GO) test -race -count=3 ./internal/resolvesvc
	$(GO) test -race -count=3 -run 'Gateway|UDP|^TestSilentMemo' ./internal/wildnet ./cmd/dnsscan
	$(GO) test -race -run TestEquivalence ./cmd/wildreport

# A few seconds of coverage-guided fuzzing per fuzz target: the six
# wire-format ones and the service's two query parsers. `go test -fuzz`
# accepts one target per invocation, hence eight runs.
fuzz-smoke:
	$(GO) test -fuzz=FuzzUnpack -fuzztime=5s ./internal/dnswire
	$(GO) test -fuzz=FuzzAppendNameCompression -fuzztime=5s ./internal/dnswire
	$(GO) test -fuzz=FuzzView -fuzztime=5s ./internal/dnswire
	$(GO) test -fuzz=FuzzDecodeTargetQName -fuzztime=5s ./internal/dnswire
	$(GO) test -fuzz=FuzzHandleDNS -fuzztime=5s ./internal/wildnet
	$(GO) test -fuzz=FuzzAnswerWire -fuzztime=5s ./internal/wildnet
	$(GO) test -fuzz=FuzzResolverQuery -fuzztime=5s ./internal/resolvesvc
	$(GO) test -fuzz=FuzzResolversQuery -fuzztime=5s ./internal/resolvesvc

# One iteration of every table/figure benchmark.
bench-all:
	$(GO) test -bench=. -benchmem -benchtime=1x .

# Full text report of every table and figure (order 17, quick).
REPORT = $(GO) run ./cmd/wildreport -order 17 -weeks 10 -week 9
report:
	$(REPORT)

# The paper-vs-measured markdown table at publication scale (≈ 3 s).
MARKDOWN = $(GO) run ./cmd/wildreport -order 18 -weeks 55 -week 50 -markdown
markdown:
	$(MARKDOWN)

# The committed paper-facing record, regenerated from the code: the text
# report and the comparison table EXPERIMENTS.md links. CI runs this and
# fails on any difference from the committed files.
record:
	$(REPORT) > sample_report.txt
	$(MARKDOWN) > EXPERIMENTS_TABLE.md

# Every program under examples/ must run to completion (under a second
# each) and print the same bytes on a second run; a new example is picked
# up without touching this file.
examples:
	set -e; out=$$(mktemp -d); trap 'rm -rf "$$out"' EXIT; \
	for d in examples/*/; do \
		$(GO) run ./$$d > $$out/first; $(GO) run ./$$d > $$out/second; \
		cmp $$out/first $$out/second || { echo "$$d printed different bytes on two runs"; exit 1; }; \
	done

clean:
	$(GO) clean ./...
