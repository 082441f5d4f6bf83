GO ?= go

# Hot-path micro-benchmarks run by bench-micro.
BENCH_PATTERN ?= BenchmarkSimWakeup|BenchmarkPoolPinHit|BenchmarkCursorScan|BenchmarkScanPipeline|BenchmarkTableScanBatch|BenchmarkDecodeProjected|BenchmarkChangedSince|BenchmarkGroupCommit|BenchmarkEncodeKeyPrefix|BenchmarkHashJoin|BenchmarkMergeJoin|BenchmarkExchangeParallelScan|BenchmarkCheckpointScan|BenchmarkFollowerRestart

# Chaos harness: number of seeds swept by `make chaos` / `make chaos-tpcc`.
SEEDS ?= 25

# Paired benchmark ledger runs (make ledger-pair PARENT=<rev>).
PAIRS ?= 10

.PHONY: all build test test-race test-bench cover figs fig7 intent-timeouts vet loc ledger-pair ledger-seeds chaos-diff chaos-diff-all chaos chaos-tpcc chaos-quick golden bench-quick bench-micro bench-analytics check

all: check

## build: compile every package
build:
	$(GO) build ./...

## test: run the full unit-test suite
test:
	$(GO) test ./...

## test-race: the full suite under the race detector
test-race:
	$(GO) test -race ./...

## test-bench: the benchmark ledger's own tests — smoke runs of all four
## workloads, the metric arithmetic and the BENCHMARK.json drift check (~4 s).
## bench/ is a module of its own, so `go test ./...` at the root never sees them
test-bench:
	cd bench && $(GO) test ./...

## cover: which paths the tier-1 suite exercises — go test ./... with every
## internal package instrumented whichever package's tests reach it, then
## the per-function coverage (go tool cover -func); the profile stays in
## .bench_build/cover.out for go tool cover -html (~45 s)
cover:
	@mkdir -p .bench_build
	$(GO) test -coverpkg=./internal/... -coverprofile=.bench_build/cover.out ./...
	$(GO) tool cover -func=.bench_build/cover.out

## figs: the micro-benchmark figures at the Quick preset, once each, with
## their shape assertions (~6 s): Fig 1 (a single-record remote scan collapses
## below a tenth of the local scan, and vectorising recovers at least 5x),
## Fig 2 (at concurrency 1 the local sort beats the offloaded one, at the top
## level offloading wins) and Fig 3 (MVCC out-runs MGL-RX at 0 / 50 / 100 %
## updates while half the table moves, and pays in storage);
## internal/experiments' TestFig3Shape is Fig 3's claim at test scale
figs:
	$(GO) test -bench='BenchmarkFig[123]' -benchtime=1x -run '^$$' .

## fig7: the Fig 7 normal bar behind its gate (~2 s): a transaction spends at
## most 5.5 ms in the engine and under 1 ms of it in lock and intent waits
## (internal/experiments' TestFig7Shape, Quick cut off 5 s after the trigger)
fig7:
	$(GO) test -run '^TestFig7Shape$$' ./internal/experiments

## intent-timeouts: a fault-free TPC-C run on the benchmark's replicated
## 4-node commit path in which no write-intent wait ends at the 100 ms lock
## timeout and write-conflict aborts stay at most 6 % of the commits
## (internal/tpcc's TestNoIntentTimeoutFaultFree, ~3 s)
intent-timeouts:
	$(GO) test -run '^TestNoIntentTimeoutFaultFree$$' ./internal/tpcc

## vet: static analysis of the root module and of bench/, a module of its own
## that the root's ./... never reaches, and their formatting: it fails if
## gofmt -l lists any of their files (.bench_build/'s unpacked copies aside)
vet:
	$(GO) vet ./...
	cd bench && $(GO) vet ./...
	@unformatted=$$(find . -name '*.go' ! -path './.bench_build/*' | xargs $$($(GO) env GOROOT)/bin/gofmt -l); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

## loc: non-test Go code lines (blank and comment-only lines skipped) per
## package and in total, bench/ excluded — the ruler for "same behaviour from
## less code" deltas in CHANGES.md, deaf to comment edits in either direction.
## With PARENT=<rev> it prints parent / change / delta per package instead,
## counting PARENT's committed files unpacked with git archive under
## .bench_build/loc-parent for the duration
LOC_COUNT = find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' | sort | \
	xargs awk '!/^[ \t]*(\/\/|$$)/ { d = FILENAME; sub("/[^/]*$$", "", d); n[d]++; t++ } \
	END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

loc:
ifeq ($(PARENT),)
	@$(LOC_COUNT)
else
	@rm -rf .bench_build/loc-parent && mkdir -p .bench_build/loc-parent
	@git archive $(PARENT) | tar -x -C .bench_build/loc-parent
	@(cd .bench_build/loc-parent && $(LOC_COUNT)) > .bench_build/loc-parent.txt
	@rm -rf .bench_build/loc-parent
	@$(LOC_COUNT) | awk 'NR == FNR { p[$$2] = $$1; k[$$2]; next } { c[$$2] = $$1; k[$$2] } \
		END { printf "%7s %7s %7s %s\n", "parent", "change", "delta", "package"; \
		for (d in k) printf "%7d %7d %+7d %s\n", p[d], c[d], c[d] - p[d], d | "sort -k4" }' .bench_build/loc-parent.txt -
	@rm -f .bench_build/loc-parent.txt
endif

## ledger-pair: measure the working tree against PARENT (any git revision)
## with the benchmark ledger — PAIRS alternating pairs of `bash bench/run.sh
## -repeat 1` on the two trees (PARENT is unpacked with git archive under
## .bench_build/parent for the duration), then per workload and metric each
## side's median and quartiles, pairs won, and the ledger's -compare verdicts.
## Result files stay in .bench_build/pair/. About 3 minutes per pair. With
## WORKLOAD=W each side runs `bash bench/run.sh --workload W --seed 1
## --seconds 10` alone, about a quarter of that.
ledger-pair:
	@test -n "$(PARENT)" || { echo "usage: make ledger-pair PARENT=<rev> [PAIRS=10] [WORKLOAD=W]"; exit 2; }
	$(GO) run ./cmd/wattdb-ledger-pair -parent $(PARENT) -pairs $(PAIRS) $(if $(WORKLOAD),-workload $(WORKLOAD))

## ledger-seeds: the working tree against PARENT at other seeds than the
## ledger's own — one `bash bench/run.sh -seed S -repeat 1` per seed on each
## tree (the simulated rows repeat exactly at a fixed seed), then per workload
## a parent → change table of every sim_* row and committed_share, one column
## per seed. SEEDS here is a list, "2 3 4 5 6" unless given on the command
## line. About 3 minutes per seed; WORKLOAD=W as for ledger-pair.
ledger-seeds:
	@test -n "$(PARENT)" || { echo 'usage: make ledger-seeds PARENT=<rev> [SEEDS="2 3 4 5 6"] [WORKLOAD=W]'; exit 2; }
	$(GO) run ./cmd/wattdb-ledger-pair -parent $(PARENT) -seeds "$(if $(filter command line,$(origin SEEDS)),$(SEEDS),2 3 4 5 6)" $(if $(WORKLOAD),-workload $(WORKLOAD))

## chaos-diff: one wattdb-chaos sweep (SEEDS seeds, ARGS passed through,
## e.g. ARGS="-tpcc") on PARENT and on the working tree, side by
## side, then every seed whose scheme, verdict or state hash differs. PARENT
## is unpacked with git archive under .bench_build/chaos-parent for the
## build. Exits 1 when any seed differs — "no hash moved" is its clean exit
chaos-diff:
	@test -n "$(PARENT)" || { echo 'usage: make chaos-diff PARENT=<rev> [SEEDS=N] [ARGS="-tpcc"]'; exit 2; }
	@rm -rf .bench_build/chaos-parent && mkdir -p .bench_build/chaos-parent
	@git archive $(PARENT) | tar -x -C .bench_build/chaos-parent
	@cd .bench_build/chaos-parent && $(GO) build -o ../chaos-parent.bin ./cmd/wattdb-chaos
	@rm -rf .bench_build/chaos-parent
	@$(GO) build -o .bench_build/chaos-change.bin ./cmd/wattdb-chaos
	@for side in parent change; do \
		.bench_build/chaos-$$side.bin $(ARGS) -seeds $(SEEDS) | awk '/^seed=/ {print $$1, $$2, $$3, $$4}' > .bench_build/chaos-$$side.txt & \
	done; wait
	@awk 'NR == FNR { p[$$1] = $$0; next } { n++; if (p[$$1] != $$0) { d++; print "parent: " p[$$1]; print "change: " $$0 } } \
		END { printf "chaos-diff PARENT=%s ARGS=\"%s\": %d of %d seeds differ\n", "$(PARENT)", "$(ARGS)", d, n; exit (d > 0) }' \
		.bench_build/chaos-parent.txt .bench_build/chaos-change.txt

## chaos-diff-all: chaos-diff for both sweeps — KV and TPC-C, each seed
## running the fault mix it picks (the sweeps of chaos and chaos-tpcc) — one
## after the other; a summary line per sweep, and exit 1 if any seed of
## either differs. The working tree is built when each sweep starts: do not
## edit the engine while it runs
CHAOS_SWEEPS = "" "-tpcc"

chaos-diff-all:
	@test -n "$(PARENT)" || { echo 'usage: make chaos-diff-all PARENT=<rev> [SEEDS=N]'; exit 2; }
	@fail=0; for args in $(CHAOS_SWEEPS); do \
		$(MAKE) --no-print-directory chaos-diff PARENT=$(PARENT) SEEDS=$(SEEDS) ARGS="$$args" || fail=1; \
	done; exit $$fail

## chaos: sweep the deterministic fault-injection harness over SEEDS seeds
## (schemes rotate per seed, and seed mod 16 picks which fault families —
## coordinator, disk, checkpoint, HTAP — the run turns up); any failing seed
## prints a one-line repro. For a CPU profile of a sweep, run the command
## with -cpuprofile <file> (go run ./cmd/wattdb-chaos -seeds N -cpuprofile
## cpu.out; go tool pprof -top cpu.out)
chaos:
	$(GO) run ./cmd/wattdb-chaos -seeds $(SEEDS)

## chaos-tpcc: the same sweep over the TPC-C workload with the
## warehouse-invariant oracle (W_YTD/D_YTD, order atomicity, stock sums)
chaos-tpcc:
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds $(SEEDS)

## chaos-quick: a short crash-anywhere sweep of both workloads (CI gate): KV
## seeds 1-16 run all 16 fault mixes, TPC-C seeds 1-8 the first eight. Every
## seed runs twice and fails if the two state hashes differ (-rerun): a
## determinism regression fails the gate even when every invariant holds.
## Each sweep is diffed against its golden record in internal/chaos/testdata
## (-golden) and fails on any seed whose scheme, verdict or hash moved; a
## change that moves hashes on purpose rewrites the records with UPDATE=1 and
## commits them
GOLDEN = internal/chaos/testdata

chaos-quick:
	$(GO) run ./cmd/wattdb-chaos -rerun -seeds 16 -duration 25s -golden $(GOLDEN)/golden-kv.txt $(if $(UPDATE),-update)
	$(GO) run ./cmd/wattdb-chaos -rerun -tpcc -seeds 8 -duration 20s -golden $(GOLDEN)/golden-tpcc.txt $(if $(UPDATE),-update)

## golden: both full sweeps, seeds 1-25 at the default 45 s window, against
## their golden records (about 2 minutes; not part of check) — the file-diff
## form of chaos-diff-all, with no second tree to build. UPDATE=1 rewrites them
golden:
	$(GO) run ./cmd/wattdb-chaos -seeds 25 -golden $(GOLDEN)/golden-kv-sweep.txt $(if $(UPDATE),-update)
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds 25 -golden $(GOLDEN)/golden-tpcc-sweep.txt $(if $(UPDATE),-update)

## check: tier-1 verification in one command (build + vet + race-enabled
## tests + the ledger's tests + the Fig 1-3 and Fig 7 shape gates + the
## intent-timeout gate + a short crash-anywhere chaos sweep of both workloads)
check: build vet test-race test-bench figs fig7 intent-timeouts chaos-quick

## bench-quick: regenerate every paper figure once at CI scale
bench-quick:
	$(GO) test -bench=BenchmarkFig -benchtime=1x -run '^$$' .

## bench-micro: hot-path micro-benchmarks with allocation counts
bench-micro:
	$(GO) test -bench='$(BENCH_PATTERN)' -benchmem -run '^$$' .

## bench-analytics: the HTAP study (analytics placement vs OLTP
## interference) plus the analytical operator micro-benchmarks — joins must
## report 0 allocs/op and the exchange's sim-us/drain must shrink linearly
## with partitions
bench-analytics:
	$(GO) test ./internal/chbench/ -v
	$(GO) test -bench='BenchmarkFigHTAP' -benchtime=1x -run '^$$' -v .
	$(GO) test -bench='BenchmarkHashJoin|BenchmarkMergeJoin|BenchmarkExchangeParallelScan' -benchmem -run '^$$' .
