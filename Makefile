GO ?= go

.PHONY: all help build vet test race benchmod lines abbench bench gates soak fuzz check ci

# Per-target fuzzing time for `make fuzz` (override: make fuzz FUZZTIME=2m).
FUZZTIME ?= 30s

all: check

help:
	@echo "Targets:"
	@echo "  build  - compile all packages"
	@echo "  vet    - go vet"
	@echo "  test   - full test suite"
	@echo "  race   - race-detector pass (includes the buffer/heap/engine concurrency tests)"
	@echo "  benchmod - vet + smoke-test the bench/ module against this engine"
	@echo "  lines  - non-test Go lines per package (the simplicity PRs' before/after number)"
	@echo "  abbench - Go benchmark A/B: REV=<rev> PKG=<pkg> BENCH=<regex> ROUNDS=10 against the working tree"
	@echo "  bench  - the repo benchmark: bash bench/run.sh \$$(ARGS) (see bench/README.md)"
	@echo "  gates  - the side gates at full scale (go test -tags gates): quantile error, tracing and"
	@echo "           advisory overhead, advisor convergence, fused path3 speedup, zero read lock wait"
	@echo "  soak   - exhaustive fault-injection soak"
	@echo "  fuzz   - all seven fuzz targets (FUZZTIME=$(FUZZTIME) each)"
	@echo "  check  - build + vet + test + race"
	@echo "  ci     - the full gate: build + vet(+gofmt) + test + race + benchmod"

build:
	$(GO) build ./...

# vet also enforces gofmt: any unformatted file is listed and fails the build.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The short-mode sweep covers every package; the second pass runs the
# page-file mapping (readers beside chunk growth, writes and syncs) and the
# sharded-pool / parallel-scan / concurrent-reader tests un-shortened, and
# the third hammers the per-set locking paths (disjoint writers,
# overlapping footprints, randomized multi-set transactions, readers beside
# an open transaction, Close under load) and the row-program oracles (per-worker
# verdict and departure tables beside the shared fusion memo at ScanWorkers 4)
# a second time; the fourth does the same for the public handle, which holds
# no lock of its own — the engine's two layers are all there is under its DML,
# DDL, sessions and sinks; the fifth repeats the native server's connection
# reader tests (disconnect, pipelining, idle timer, Close); the sixth runs a
# log tail reader beside checkpoints that switch log generations under it,
# and a runway fill beside a generation switch and beside Close.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/pagefile ./internal/buffer ./internal/heap ./internal/engine ./internal/obs ./internal/repl ./internal/server .
	$(GO) test -race -count=2 -run 'TestDisjointWritersConcurrent|TestOverlappingFootprintsSerialize|TestRandomizedMultiSetFootprints|TestSnapshotReadersNoLockWait|TestReadersSeePreTxnStateWithoutWaiting|TestCloseUnderLoad|TestRowProgramMatchesOracle|TestWalkedPredicatesMatchOracle' ./internal/engine
	$(GO) test -race -count=2 -run 'TestPublicConcurrentUse|TestSlowQueryLogConcurrent' .
	$(GO) test -race -count=2 -run 'TestDisconnectCancelsExec|TestPipelinedFrameNotSwallowedByWatchdog|TestIdleTimeout|TestLongStatementOutlivesIdleTimeout|TestCloseCancelsInFlight|TestCloseLeavesNoConnectionReaders' ./internal/server
	$(GO) test -race -count=2 -run 'TestReadTailAcrossGenerations|TestGenerationSwitchAbandonsFill|TestCloseJoinsFiller' ./internal/wal

# The benchmark is its own module (bench/go.mod) that imports the public API
# and internal/buffer, heap, btree and wal directly; the root ./... never
# descends into it, so compile and smoke-test it against every engine change.
benchmod:
	cd bench && $(GO) vet . && $(GO) test .

# Non-test Go lines for the root package, each internal/* and each cmd/*,
# then their total: ROADMAP aim 2 counts a net drop as a success signal, and
# every simplicity PR reports its before/after from this target.
lines:
	@for d in . internal/* cmd/*; do \
		printf '%6d %s\n' $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l) $$d; \
	done | awk '{ print; total += $$1 } END { printf "%6d total\n", total }'

# Go benchmark A/B of the working tree against REV: both test binaries are
# built once and alternated ROUNDS times, REV first in odd rounds; prints
# ns/op, B/op and allocs/op per round and their medians (scripts/abbench.sh).
REV ?= HEAD
PKG ?= ./internal/engine
BENCH ?= BenchmarkPathScanWarm
ROUNDS ?= 10
abbench:
	scripts/abbench.sh $(REV) $(PKG) '$(BENCH)' $(ROUNDS)

# The repo benchmark: end-to-end workloads plus per-layer budgets, compared
# against a baseline (bench/README.md). Pass its flags through ARGS.
bench:
	bash bench/run.sh $(ARGS)

# The side gates at the scale their claims are made for. Each is a Go test
# that the untagged suite runs at unit scale (or, for a timing ratio, not at
# all); -tags gates selects the full size, the way -tags soak selects the
# exhaustive fault soak. The numbers are in the -v log lines:
#   TestHistQuantileAccuracy          quantile error <= 1% over 1us-10s
#   TestTraceOverhead                 tracing <= 5% of a warm heap scan
#   TestAdvisorConvergence            <= windows+2 windows, 64-op windows
#   TestAdvisorOverhead               advisor <= 5% of the same queries
#   TestQueryShapes                   predicted/observed pages, path3 >= 2x NoFuse
#   TestServerReadersNeverWaitOnWriters  0 ns read lock wait, 1000 readers + 64 writers
# The measure-only numbers (scan pages/s, commits/s and fsyncs/commit,
# replication lag) are benchmarks:
#   go test -bench 'ScanThroughput|Commit|ReplicationLag' -run '^$' ./internal/heap .
# -p 1 runs one package at a time: the overhead ratios must not share the
# CPUs with the 1064-connection serving gate.
gates:
	$(GO) test -tags gates -count=1 -p 1 -v \
		-run '^(TestHistQuantileAccuracy|TestTraceOverhead|TestAdvisorConvergence|TestAdvisorOverhead|TestQueryShapes|TestServerReadersNeverWaitOnWriters)$$' \
		./internal/obs ./internal/heap ./internal/engine .

# Exhaustive fault soak: one injected fault at every I/O index of the
# calibration run, and a crash at every store operation of each schema
# operation of the DDL crash matrix (the untagged tests sample every 7th).
soak:
	$(GO) test -tags soak -run 'TestFaultSoak|TestSoak|TestDDLCrashMatrix' -v ./internal/engine/

# FuzzRestore's seeds are whole catalog snapshots: the default minute spent
# minimizing each new input would stall the run, so it gets two seconds.
fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSlottedParsing -fuzztime $(FUZZTIME) ./internal/pagefile/
	$(GO) test -run '^$$' -fuzz FuzzWALFrame -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzOpen -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzRestore -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/catalog/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/extra/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzDecodeLinks -fuzztime $(FUZZTIME) ./internal/links/

check: build vet test race

# CI entry point: everything a pull request must pass.
ci: check benchmod
