# Developer entry points for the Going Wild reproduction.

GO ?= go

.PHONY: all build vet lint lint-escape test test-short bench-test race chaos metrics-smoke serve-smoke fuzz-smoke bench-all report markdown record examples clean

all: build vet lint test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis (internal/lint): the five syntactic
# rules (determinism, maporder, errdrop, ctxhygiene, sleepcall) and the
# flow-sensitive one (hotpath). Lock copies are go vet's
# job (the vet target); README "Correctness tooling" records what each
# rule has caught. Exits nonzero on any finding.
lint:
	$(GO) run ./cmd/wildlint ./...

# Escape-analysis cross-check for the hotpath rule: rebuild the packages
# carrying //lint:hotpath annotations with the compiler's -m diagnostics
# (-a defeats the build cache, which would otherwise swallow them) and
# fail if the compiler reports a heap allocation inside an annotated
# function. The static rule and the compiler must agree.
lint-escape:
	$(GO) build -a -gcflags=-m ./internal/scanner ./internal/dnswire ./internal/lfsr ./internal/wildnet ./internal/prand 2> /tmp/wildlint_escape.log || (cat /tmp/wildlint_escape.log; exit 1)
	$(GO) run ./cmd/wildlint -escape-log /tmp/wildlint_escape.log ./internal/scanner ./internal/dnswire ./internal/lfsr ./internal/wildnet ./internal/prand

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
# snoop's rounds and the CHAOS scan merge concurrent senders' replies
# into per-resolver slots under stripe locks; the domain scan claims its
# answer slots with atomics instead).
# Two runs go three times, because one schedule of them proves little:
# resolvesvc's coalescer stress is a race between request goroutines and
# one prober, and over the UDP gateway the domain scan's answer slots are
# written by the transport's read loop while the scan reads them.
race:
	$(GO) test -race ./internal/scanner ./internal/wildnet ./internal/ampli ./internal/cluster ./internal/snoop ./internal/pipeline ./internal/metrics ./internal/debughttp .
	$(GO) test -race -count=3 -run Gateway ./internal/scanner
	$(GO) test -race -count=3 ./internal/resolvesvc

# Chaos matrix: the full pipeline under every fault profile (clean,
# lossy, hostile, flaky), checking determinism across runs and
# GOMAXPROCS and sweep completeness against planted ground truth.
chaos:
	$(GO) test -run TestChaosMatrix -count=1 -v ./internal/core

# Metrics side-channel guard: an order-16 report must print byte-identical
# stdout with and without -metrics, and the snapshot it writes must be
# non-empty. This is the executable form of the contract that attaching
# observability can never perturb results.
metrics-smoke:
	$(GO) build -o /tmp/wildreport ./cmd/wildreport
	/tmp/wildreport -order 16 -weeks 8 -week 7 > /tmp/wr_nometrics.txt
	/tmp/wildreport -order 16 -weeks 8 -week 7 -metrics /tmp/wr_metrics.json > /tmp/wr_withmetrics.txt
	diff /tmp/wr_nometrics.txt /tmp/wr_withmetrics.txt
	test -s /tmp/wr_metrics.json

# Service smoke: run wildsvc's built-in self-check — three epochs at
# order 16, then query the HTTP API over a real socket: a known
# responder (store hit, JSON shape), a known miss (demand probe), two
# addresses outside the scanned space (400, no record, no probe), and
# four concurrent requests for one cold address, which must all read the
# same answer at the cost of exactly one probe. Exits nonzero on any
# assertion failure; the last stdout line is "wildsvc smoke: PASS".
serve-smoke:
	$(GO) run ./cmd/wildsvc -smoke

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

# Every program under examples/ must run to completion (a few seconds
# each); a new example is picked up without touching this file.
examples:
	set -e; for d in examples/*/; do $(GO) run ./$$d; done

clean:
	$(GO) clean ./...
