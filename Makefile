GO ?= go

.PHONY: all help build vet test race benchmod lines bench walbench obsbench replbench loadbench querybench advisorbench soak fuzz check ci

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
	@echo "  bench  - scan-throughput matrix (shards x workers) -> BENCH_scan.json"
	@echo "  walbench - commit throughput / group-commit fsync batching -> BENCH_commit.json"
	@echo "  obsbench - histogram quantile accuracy + tracing overhead gate -> BENCH_latency.json"
	@echo "  replbench - steady-state replication lag (LSN + ms, p50/p99) -> BENCH_repl.json"
	@echo "  loadbench - 1000+ concurrent network clients, zero-read-lock-wait gate -> BENCH_server.json"
	@echo "  querybench - planner query shapes (point/range/path3/aggregate), fused-vs-baseline gate -> BENCH_query.json"
	@echo "  advisorbench - workload-advisor convergence + <=5% advisory overhead gate -> BENCH_advisor.json"
	@echo "  soak   - exhaustive fault-injection soak"
	@echo "  fuzz   - all five fuzz targets (FUZZTIME=$(FUZZTIME) each)"
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
# an open transaction, Close under load) a second time; the fourth does the
# same for the public handle, which holds no lock of its own — the engine's
# two layers are all there is under its DML, DDL, sessions and sinks.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/pagefile ./internal/buffer ./internal/heap ./internal/engine ./internal/obs ./internal/repl ./internal/server .
	$(GO) test -race -count=2 -run 'TestDisjointWritersConcurrent|TestOverlappingFootprintsSerialize|TestRandomizedMultiSetFootprints|TestSnapshotReadersNoLockWait|TestReadersSeePreTxnStateWithoutWaiting|TestCloseUnderLoad' ./internal/engine
	$(GO) test -race -count=2 -run 'TestPublicConcurrentUse|TestSlowQueryLogConcurrent' .

# The benchmark is its own module (bench/go.mod) that imports the public API
# and internal/buffer, heap, btree and wal directly; the root ./... never
# descends into it, so compile and smoke-test it against every engine change.
benchmod:
	cd bench && $(GO) vet . && $(GO) test .

# Non-test Go lines for the root package, each internal/* and each cmd/*:
# ROADMAP aim 2 counts a net drop as a success signal, and every simplicity
# PR reports its before/after from this target.
lines:
	@for d in . internal/* cmd/*; do \
		printf '%6d %s\n' $$(ls $$d/*.go | grep -v _test.go | xargs cat | wc -l) $$d; \
	done

# Scan throughput across pool shard counts and scan worker counts, on a
# memory-backed store with simulated device latency. Writes BENCH_scan.json
# (shards, workers, ns_per_op, pages_per_sec per configuration).
bench:
	$(GO) run ./cmd/scanbench -out BENCH_scan.json

# Commit throughput and group-commit effectiveness: commits/s and
# fsyncs/commit at 1, 4, and 16 concurrent writers. Writes BENCH_commit.json.
walbench:
	$(GO) run ./cmd/walbench -out BENCH_commit.json

# Telemetry self-check: latency-histogram quantile error across 1µs-10s must
# stay within ~1%, and the full recording path (trace + histograms + ring)
# must cost <= 5% of a warm in-memory scan. Writes BENCH_latency.json and
# exits non-zero on regression.
obsbench:
	$(GO) run ./cmd/obsbench -out BENCH_latency.json

# Steady-state replication lag: a primary ships to one local follower while
# concurrent writers insert; records commit rate and the follower's lag as
# LSNs behind and milliseconds to visibility (p50/p99). Writes BENCH_repl.json.
replbench:
	$(GO) run ./cmd/replbench -out BENCH_repl.json

# Multi-client serving gate: 1000 concurrent read-only native-protocol
# sessions retrieve while 64 writer sessions commit; read sessions must
# accumulate exactly zero per-set lock wait (snapshot reads never queue
# behind writers). Writes BENCH_server.json and exits non-zero on failure.
loadbench:
	$(GO) run ./cmd/loadbench -out BENCH_server.json

# Planner gate: the four query shapes (point probe, index range, 3-level
# path, aggregate) compiled with DB.Plan, each pairing predicted with
# observed pages; fused path queries must beat the record-at-a-time
# no-fuse baseline by 2x without replication. Writes BENCH_query.json and
# exits non-zero on regression.
querybench:
	$(GO) run ./cmd/querybench -out BENCH_query.json -check

# Workload-advisor gate: on a replayed read-heavy -> update-heavy workload
# the recommendation must converge to the Section-6 optimum within the window
# ring's budget, and the whole advisory pipeline (trace stamping, trace
# subscription, windowed aggregation, drift histograms) must cost <= 5% of
# the same warm query workload with the advisor disabled. Writes
# BENCH_advisor.json and exits non-zero on regression.
advisorbench:
	$(GO) run ./cmd/advisorbench -out BENCH_advisor.json

# Exhaustive fault soak: one injected fault at every I/O index of the
# calibration run, and a crash at every store operation of each schema
# operation of the DDL crash matrix (the untagged tests sample every 7th).
soak:
	$(GO) test -tags soak -run 'TestFaultSoak|TestSoak|TestDDLCrashMatrix' -v ./internal/engine/

fuzz:
	$(GO) test -run '^$$' -fuzz FuzzSlottedParsing -fuzztime $(FUZZTIME) ./internal/pagefile/
	$(GO) test -run '^$$' -fuzz FuzzWALFrame -fuzztime $(FUZZTIME) ./internal/wal/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME) ./internal/extra/
	$(GO) test -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME) ./internal/schema/
	$(GO) test -run '^$$' -fuzz FuzzDecodeLinks -fuzztime $(FUZZTIME) ./internal/links/

check: build vet test race

# CI entry point: everything a pull request must pass.
ci: check benchmod
