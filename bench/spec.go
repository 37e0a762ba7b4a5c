package main

// This file is the single source of every name the benchmark prints:
// workloads, end-to-end metrics and per-layer metrics. BENCHMARK.json at the
// repository root repeats the names, units, directions and bounds; the smoke
// test fails when the two disagree.

// metricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may worsen before a change counts as a
// regression; per-layer metrics carry none. Layer and Moves document which
// module a per-layer metric belongs to and which end-to-end metric it should
// move on which workload.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
	Layer  string
	Moves  string
}

// endToEnd lists the metrics a user of the database would see. Every one is
// defined and non-zero on every workload, which is why error_share (always 0
// on a passing run) is printed as a diagnostic and reported through the
// attempted/failed counts instead of sitting here.
//
// The timing bounds are the widest the benchmark contract allows: the
// sandbox this was built on speeds up and slows down by 20-30% over minutes
// (README.md, "Baseline and spread on the seed commit"), and the quartiles of
// ten runs of one commit were 3-12% of the median apart for p50 and 4-20%
// for p95. The counts repeat and carry tight bounds.
var endToEnd = []metricSpec{
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "read_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "read_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "write_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "pages_per_op", Unit: "pages", Better: "lower", Bound: 0.05},
	{Name: "space_amp", Unit: "ratio", Better: "lower", Bound: 0.02},
	{Name: "log_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer lists the metrics of single layers, taken from the traced run
// (ratios and counts) and from the fixed-count loops of layers.go (the
// *_ns/*_us timings).
var perLayer = []metricSpec{
	{Name: "server.wire_us", Unit: "us", Better: "lower", Layer: "client+internal/server",
		Moves: "read_p50_ms on serve.mixed; 0 on the embedded workloads"},
	{Name: "server.ping_us", Unit: "us", Better: "lower", Layer: "client+internal/server",
		Moves: "read_p50_ms on serve.mixed"},
	{Name: "extra.parse_us", Unit: "us", Better: "lower", Layer: "internal/extra",
		Moves: "read_p50_ms, write_p50_ms on serve.mixed"},
	{Name: "plan.choose_us", Unit: "us", Better: "lower", Layer: "internal/plan",
		Moves: "read_p50_ms on serve.mixed"},
	{Name: "plan.page_err", Unit: "ratio", Better: "lower", Layer: "internal/plan",
		Moves: "pages_per_op on mix.* if a plan flips"},
	{Name: "engine.compute_share", Unit: "ratio", Better: "lower", Layer: "internal/engine",
		Moves: "read_p50_ms, ops_per_s on pathscan.warm; little on mix.*"},
	{Name: "engine.us_per_row", Unit: "us", Better: "lower", Layer: "internal/engine",
		Moves: "read_p50_ms, ops_per_s on pathscan.warm"},
	{Name: "engine.alloc_kb_per_op", Unit: "KiB", Better: "lower", Layer: "internal/engine",
		Moves: "read_p50_ms, ops_per_s on pathscan.warm"},
	{Name: "engine.lock_wait_share", Unit: "ratio", Better: "lower", Layer: "internal/engine lock manager",
		Moves: "write_p95_ms on serve.mixed; exactly 0 on the single-client workloads"},
	{Name: "schema.decode_ns", Unit: "ns", Better: "lower", Layer: "internal/schema",
		Moves: "read_p50_ms on pathscan.warm"},
	{Name: "schema.encode_ns", Unit: "ns", Better: "lower", Layer: "internal/schema",
		Moves: "write_p50_ms on mix.inplace"},
	{Name: "core.pages_per_update", Unit: "pages", Better: "lower", Layer: "internal/core+internal/links",
		Moves: "write_p50_ms, pages_per_op on mix.inplace; flat on mix.separate"},
	{Name: "core.rows_per_update", Unit: "rows", Better: "lower", Layer: "internal/core+internal/links",
		Moves: "write_p50_ms on mix.inplace"},
	{Name: "heap.scan_us_per_page", Unit: "us", Better: "lower", Layer: "internal/heap",
		Moves: "read_p50_ms on pathscan.warm"},
	{Name: "heap.read_ns", Unit: "ns", Better: "lower", Layer: "internal/heap",
		Moves: "read_p50_ms on mix.*"},
	{Name: "btree.lookup_ns", Unit: "ns", Better: "lower", Layer: "internal/btree",
		Moves: "read_p50_ms on mix.* and serve.mixed"},
	{Name: "btree.pages_per_lookup", Unit: "pages", Better: "lower", Layer: "internal/btree",
		Moves: "pages_per_op on mix.*"},
	{Name: "btree.range_ns_per_key", Unit: "ns", Better: "lower", Layer: "internal/btree",
		Moves: "read_p50_ms on mix.* and serve.mixed"},
	{Name: "buffer.hit_ratio", Unit: "ratio", Better: "higher", Layer: "internal/buffer",
		Moves: "pages_per_op, read_p50_ms on mix.*; 1 on pathscan.warm and serve.mixed"},
	{Name: "buffer.evictions_per_op", Unit: "pages", Better: "lower", Layer: "internal/buffer",
		Moves: "pages_per_op on mix.*; 0 on pathscan.warm and serve.mixed"},
	{Name: "buffer.get_hit_ns", Unit: "ns", Better: "lower", Layer: "internal/buffer",
		Moves: "read_p50_ms on pathscan.warm"},
	{Name: "buffer.get_miss_ns", Unit: "ns", Better: "lower", Layer: "internal/buffer",
		Moves: "read_p50_ms on mix.*"},
	{Name: "buffer.read_stall_share", Unit: "ratio", Better: "lower", Layer: "internal/buffer",
		Moves: "read_p50_ms on mix.*"},
	{Name: "pagefile.reads_per_op", Unit: "pages", Better: "lower", Layer: "internal/pagefile",
		Moves: "pages_per_op on mix.*; 0 on pathscan.warm and serve.mixed"},
	{Name: "pagefile.writes_per_op", Unit: "pages", Better: "lower", Layer: "internal/pagefile",
		Moves: "pages_per_op on mix.*"},
	{Name: "pagefile.read_us", Unit: "us", Better: "lower", Layer: "internal/pagefile",
		Moves: "read_p50_ms on mix.*"},
	{Name: "pagefile.sync_us", Unit: "us", Better: "lower", Layer: "internal/pagefile",
		Moves: "wal.checkpoint_ms, write_p95_ms on every workload"},
	{Name: "wal.fsyncs_per_commit", Unit: "ratio", Better: "lower", Layer: "internal/wal",
		Moves: "write_p50_ms, ops_per_s on serve.mixed; 1 on the single-client workloads"},
	{Name: "wal.bytes_per_commit", Unit: "B", Better: "lower", Layer: "internal/wal",
		Moves: "log_kb_per_op everywhere; write_p50_ms on mix.*"},
	{Name: "wal.log_wait_share", Unit: "ratio", Better: "lower", Layer: "internal/wal",
		Moves: "write_p50_ms on every workload"},
	{Name: "wal.commit_us_1", Unit: "us", Better: "lower", Layer: "internal/wal",
		Moves: "write_p50_ms on mix.* and pathscan.warm"},
	{Name: "wal.commit_us_2", Unit: "us", Better: "lower", Layer: "internal/wal",
		Moves: "write_p50_ms, ops_per_s on serve.mixed"},
	{Name: "wal.checkpoint_ms", Unit: "ms", Better: "lower", Layer: "internal/wal",
		Moves: "write_p95_ms, ops_per_s on every workload"},
	{Name: "trace_overhead", Unit: "ratio", Better: "lower", Layer: "internal/obs",
		Moves: "ops_per_s on every workload, when a slow-query sink is installed"},
}

// scale sizes a run. Div divides every object count of a workload; Ops, when
// positive, ends a measured window after that many operations instead of
// after the wall-clock budget, which is what makes page counts repeat
// exactly; LayerN is the iteration count of the layers.go loops.
type scale struct {
	Name   string
	Div    int
	Ops    int
	LayerN int
}

var scales = map[string]scale{
	"full": {Name: "full", Div: 1, Ops: 0, LayerN: 20000},
	"tiny": {Name: "tiny", Div: 50, Ops: 40, LayerN: 200},
}

// workloadSpec is one named workload: the fixed sizes, the client count, the
// write share and the checkpoint interval. Every run is a closed loop: each
// client sends its next operation only after the previous one returned.
type workloadSpec struct {
	Name string
	Why  string
	// PoolPages is the buffer pool size in 4 KiB pages; the data size it
	// stands against is printed by every run as data_pages.
	PoolPages int
	Clients   int
	// PUpdate is the share of operations that write.
	PUpdate float64
	// CkptEvery is the number of writes between explicit DB.Sync()
	// checkpoints; the engine never checkpoints on its own.
	CkptEvery int
	// Warm is the number of warm-up operations per client, part of set-up.
	Warm int
	// Served routes operations through DB.Serve and client.Client.
	Served bool
	new    func(sc scale) dataset
}

var workloads = []workloadSpec{
	{
		Name: "pathscan.warm",
		Why: "3-level path scan over data that fits the pool: all time is executor, schema decode, join fusion and heap scan; " +
			"the 20% one-object writes are the durable-commit floor",
		PoolPages: 2048, Clients: 1, PUpdate: 0.2, CkptEvery: 25, Warm: 20,
		new: newPathscan,
	},
	{
		Name: "mix.inplace",
		Why: "paper Section 6 database, R.sref.repfield in-place, data 11x the pool: reads are one index range, " +
			"updates propagate to f referrers; buffer misses and pagefile reads dominate",
		PoolPages: 512, Clients: 1, PUpdate: 0.2, CkptEvery: 100, Warm: 300,
		new: func(sc scale) dataset { return newMix(sc, true) },
	},
	{
		Name: "mix.separate",
		Why: "same data, seed and op stream with the separate strategy: reads pay the S' join, updates touch one shared object, " +
			"so a change that trades one path for the other shows as one row up and one down",
		PoolPages: 512, Clients: 1, PUpdate: 0.2, CkptEvery: 100, Warm: 300,
		new: func(sc scale) dataset { return newMix(sc, false) },
	},
	{
		Name: "serve.mixed",
		Why: "2 network clients, tiny statements on data that fits the pool: wire framing, session, parse, plan, " +
			"set locks and the group-commit rendezvous of two committers are the cost",
		PoolPages: 2048, Clients: 2, PUpdate: 0.5, CkptEvery: 500, Warm: 300, Served: true,
		new: newServe,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
