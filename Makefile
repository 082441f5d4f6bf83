GO ?= go

# Hot-path micro-benchmarks run by bench-micro.
BENCH_PATTERN ?= BenchmarkSimWakeup|BenchmarkPoolPinHit|BenchmarkCursorScan|BenchmarkScanPipeline|BenchmarkTableScanBatch|BenchmarkChangedSince|BenchmarkGroupCommit|BenchmarkEncodeKeyPrefix|BenchmarkHashJoin|BenchmarkMergeJoin|BenchmarkExchangeParallelScan

# Chaos harness: number of seeds swept by `make chaos` / `make chaos-tpcc`.
SEEDS ?= 25

# Paired benchmark ledger runs (make ledger-pair PARENT=<rev>).
PAIRS ?= 10

.PHONY: all build test test-race test-bench fig3 fig7 intent-timeouts vet loc ledger-pair ledger-seeds chaos chaos-tpcc chaos-coord chaos-ship chaos-rto chaos-htap chaos-quick bench-quick bench-micro bench-analytics check

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

## fig3: the paper's MVCC-vs-locking figure at benchmark scale, once, with its
## shape assertions (MVCC out-runs MGL-RX at 0 / 50 / 100 % updates while half
## the table moves, and pays in storage) — the first figure behind the gate
## (~1 s); internal/experiments' TestFig3Shape is the same claim at test scale
fig3:
	$(GO) test -bench='BenchmarkFig3MVCCvsLocking' -benchtime=1x -run '^$$' .

## fig7: the Fig 7 normal bar behind its gate (~2 s): a transaction spends at
## most 5.5 ms in the engine and under 1 ms of it in lock and intent waits
## (internal/experiments' TestFig7Shape, Quick cut off 5 s after the trigger)
fig7:
	$(GO) test -run '^TestFig7Shape$$' ./internal/experiments

## intent-timeouts: a fault-free TPC-C run on the benchmark's replicated
## 4-node commit path in which no write-intent wait ends at the 100 ms lock
## timeout (internal/tpcc's TestNoIntentTimeoutFaultFree, ~3 s)
intent-timeouts:
	$(GO) test -run '^TestNoIntentTimeoutFaultFree$$' ./internal/tpcc

## vet: static analysis
vet:
	$(GO) vet ./...

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
## Result files stay in .bench_build/pair/. About 3 minutes per pair.
ledger-pair:
	@test -n "$(PARENT)" || { echo "usage: make ledger-pair PARENT=<rev> [PAIRS=10]"; exit 2; }
	$(GO) run ./cmd/wattdb-ledger-pair -parent $(PARENT) -pairs $(PAIRS)

## ledger-seeds: the working tree against PARENT at other seeds than the
## ledger's own — one `bash bench/run.sh -seed S -repeat 1` per seed on each
## tree (the simulated rows repeat exactly at a fixed seed), then per workload
## a parent → change table of every sim_* row and committed_share, one column
## per seed. SEEDS here is a list, "2 3 4 5 6" unless given on the command
## line. About 3 minutes per seed.
ledger-seeds:
	@test -n "$(PARENT)" || { echo 'usage: make ledger-seeds PARENT=<rev> [SEEDS="2 3 4 5 6"]'; exit 2; }
	$(GO) run ./cmd/wattdb-ledger-pair -parent $(PARENT) -seeds "$(if $(filter command line,$(origin SEEDS)),$(SEEDS),2 3 4 5 6)"

## chaos: sweep the deterministic fault-injection harness over SEEDS seeds
## (schemes rotate per seed); any failing seed prints a one-line repro
chaos:
	$(GO) run ./cmd/wattdb-chaos -seeds $(SEEDS)

## chaos-tpcc: the same sweep over the TPC-C workload with the
## warehouse-invariant oracle (W_YTD/D_YTD, order atomicity, stock sums)
chaos-tpcc:
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds $(SEEDS)

## chaos-coord: coordinator-failover-heavy sweep — every plan already
## power-fails the leader once; this piles on extra random leader crashes so
## elections, lease handoffs, and in-doubt reconciliation dominate the run
chaos-coord:
	$(GO) run ./cmd/wattdb-chaos -seeds $(SEEDS) -coord 3
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds $(SEEDS) -coord 3

## chaos-ship: replication-heavy sweep — extra disk destructions and
## acked-frame bit rot per plan, so full rebuilds from the replica set and
## scrubber repairs dominate the run
chaos-ship:
	$(GO) run ./cmd/wattdb-chaos -seeds $(SEEDS) -disk 3
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds $(SEEDS) -disk 3

## chaos-rto: checkpoint-heavy sweep — extra mid-checkpoint power failures
## per plan, so fuzzy-checkpoint fallback and the bounded-replay oracle
## (restart work = delta since last checkpoint) dominate the run
chaos-rto:
	$(GO) run ./cmd/wattdb-chaos -seeds $(SEEDS) -ckpt 3
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds $(SEEDS) -ckpt 3

## chaos-htap: analytics-heavy sweep — extra concurrent HTAP readers run
## validated scan-aggregate snapshot queries (half with the follower-read
## offloading hint) while the full fault plan executes
chaos-htap:
	$(GO) run ./cmd/wattdb-chaos -seeds $(SEEDS) -htap 4
	$(GO) run ./cmd/wattdb-chaos -tpcc -seeds $(SEEDS) -htap 4

## chaos-quick: a short crash-anywhere sweep of both workloads, plus
## coordinator-crash-heavy (KV, and TPC-C for its many 2PC decisions under
## leader crashes), disk-loss-heavy, mid-checkpoint-crash, and HTAP-analytics
## bursts (CI gate). Every seed runs twice and fails if the two state hashes
## differ (-rerun): a determinism regression fails the gate even when every
## invariant holds
chaos-quick:
	$(GO) run ./cmd/wattdb-chaos -rerun -seeds 6 -duration 25s
	$(GO) run ./cmd/wattdb-chaos -rerun -tpcc -seeds 3 -duration 20s
	$(GO) run ./cmd/wattdb-chaos -rerun -seeds 4 -duration 25s -coord 3
	$(GO) run ./cmd/wattdb-chaos -rerun -tpcc -seeds 2 -duration 20s -coord 3
	$(GO) run ./cmd/wattdb-chaos -rerun -seeds 4 -duration 25s -disk 3
	$(GO) run ./cmd/wattdb-chaos -rerun -seeds 4 -duration 25s -ckpt 3
	$(GO) run ./cmd/wattdb-chaos -rerun -seeds 3 -duration 25s -htap 4
	$(GO) run ./cmd/wattdb-chaos -rerun -tpcc -seeds 2 -duration 20s -htap 4

## check: tier-1 verification in one command (build + vet + race-enabled
## tests + the ledger's tests + the Fig 3 and Fig 7 shape gates + the
## intent-timeout gate + a short crash-anywhere chaos sweep of both workloads)
check: build vet test-race test-bench fig3 fig7 intent-timeouts chaos-quick

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
