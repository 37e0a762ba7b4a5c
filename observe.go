package fieldrepl

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
)

// TraceRecord is one completed operation's I/O trace: identity, timing, and
// the page counters the operation itself accumulated. Unlike the global IO()
// counters, a trace is exact under concurrency — it counts only the pages the
// traced operation touched, never a concurrent query's.
type TraceRecord struct {
	// ID is the process-unique trace id, in completion order-ish (ids are
	// issued at start, so overlapping operations may complete out of order).
	ID uint64 `json:"id"`
	// Kind is the operation class: "query", "update-where", "dml", "flush".
	Kind string `json:"kind"`
	// Set is the target set, Detail the predicate expression or DML verb.
	Set    string `json:"set,omitempty"`
	Detail string `json:"detail,omitempty"`
	// Origin attributes the operation to the session that ran it ("sess-N"
	// for Session/network-server statements; empty for direct API calls).
	Origin string `json:"origin,omitempty"`
	// Plan is the executor's access-path choice: "scan", "scan-parallel", or
	// "index:<name>".
	Plan  string        `json:"plan,omitempty"`
	Start time.Time     `json:"start"`
	Wall  time.Duration `json:"wall_ns"`
	// Store transfers (the disk I/O a disk-resident system would perform) and
	// buffer pool events charged to this operation.
	StoreReads  int64 `json:"store_reads"`
	StoreWrites int64 `json:"store_writes"`
	StoreAllocs int64 `json:"store_allocs"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Flushes     int64 `json:"flushes"`
	// WALRecords/WALBytes count write-ahead-log records and bytes the
	// operation appended; zero for reads and for databases without a WAL.
	WALRecords int64 `json:"wal_records,omitempty"`
	WALBytes   int64 `json:"wal_bytes,omitempty"`
	// Bytes is the store traffic in bytes: (reads + writes) * page size.
	Bytes int64 `json:"bytes"`
	// Wall-time decomposition (nanoseconds): time blocked acquiring per-set
	// write locks, waiting in the WAL group-commit durability
	// rendezvous, stalled on store page reads, and stalled on dirty
	// write-backs. The remainder of Wall is compute.
	LockWaitNs   int64 `json:"lock_wait_ns,omitempty"`
	LogWaitNs    int64 `json:"log_wait_ns,omitempty"`
	ReadStallNs  int64 `json:"read_stall_ns,omitempty"`
	WriteStallNs int64 `json:"write_stall_ns,omitempty"`
	// PredictedPages is the planner's Section-6 page-access prediction, paired
	// with the observed PageAccesses(); zero for unplanned operations.
	PredictedPages float64 `json:"predicted_pages,omitempty"`
	// Paths lists the replicated-path keys ("Set.ref...field") the operation
	// read through or propagated updates into; Fields the field names an
	// update wrote; Rows the result/match count. This is the raw material the
	// workload advisor aggregates.
	Paths  []string `json:"paths,omitempty"`
	Fields []string `json:"fields,omitempty"`
	Rows   int64    `json:"rows,omitempty"`
}

// PageAccesses returns hits + misses — the operation's logical page requests,
// deterministic for a given plan regardless of cache warmth.
func (r TraceRecord) PageAccesses() int64 { return r.Hits + r.Misses }

func toTraceRecord(r obs.Record) TraceRecord {
	return TraceRecord{
		ID: r.ID, Kind: r.Kind, Set: r.Set, Detail: r.Detail, Plan: r.Plan, Origin: r.Origin,
		Start: r.Start, Wall: r.Wall,
		StoreReads: r.StoreReads, StoreWrites: r.StoreWrites, StoreAllocs: r.StoreAllocs,
		Hits: r.Hits, Misses: r.Misses, Flushes: r.Flushes,
		WALRecords: r.WALRecords, WALBytes: r.WALBytes,
		Bytes:      r.Bytes,
		LockWaitNs: r.LockWaitNs, LogWaitNs: r.LogWaitNs,
		ReadStallNs: r.ReadStallNs, WriteStallNs: r.WriteStallNs,
		PredictedPages: r.PredictedPages,
		Paths:          r.Paths, Fields: r.Fields, Rows: r.Rows,
	}
}

// The observability accessors below take no lock: every engine-side snapshot
// is lock-free. This makes them safe to call from anywhere — in particular
// from a slow-query sink, which runs while a DML caller is still inside a
// public method.

// RecentTraces returns the most recently completed operation traces in
// completion order, oldest completion first. Trace ids are issued at start,
// so overlapping operations may appear with non-monotonic ids; the ring's
// completion order is the stable, documented order.
func (db *DB) RecentTraces() []TraceRecord {
	recs := db.e.RecentTraces()
	out := make([]TraceRecord, len(recs))
	for i, r := range recs {
		out[i] = toTraceRecord(r)
	}
	return out
}

// MetricsJSON returns the pull-based observability snapshot as expvar-style
// JSON: process-total I/O and buffer pool counters, WAL activity (an explicit
// `"wal": null` when the database runs without one), trace aggregates,
// latency and contention histogram digests, and the recent trace ring. This
// is what `extradb -metrics` prints and what /debug/vars serves.
func (db *DB) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(db.e.Metrics(), "", "  ")
}

// WALStats is a snapshot of write-ahead-log activity. Fsyncs much smaller
// than Commits is group commit working: concurrent committers shared forces
// of the log.
type WALStats struct {
	Records     int64 `json:"records"`
	Commits     int64 `json:"commits"`
	Fsyncs      int64 `json:"fsyncs"`
	Bytes       int64 `json:"bytes"`
	Checkpoints int64 `json:"checkpoints"`
	// FullImages and DeltaRecords split the page records logged by kind: a
	// page's first record after a checkpoint is a full 4 KiB image, later
	// ones carry only the bytes that changed. The full-image share is what
	// checkpoint cadence buys or costs in log volume.
	FullImages   int64 `json:"full_images"`
	DeltaRecords int64 `json:"delta_records"`
	// SyncWaits counts commits that actually waited for durability;
	// SharedSyncs the subset satisfied by another committer's fsync (the
	// follower half of group commit). SyncQueue is the instantaneous number
	// of committers inside the durability wait.
	SyncWaits   int64 `json:"sync_waits"`
	SharedSyncs int64 `json:"shared_syncs"`
	SyncQueue   int64 `json:"sync_queue"`
}

// WALStats reports cumulative write-ahead-log counters. ok is false when
// the database is in-memory and so has no WAL.
func (db *DB) WALStats() (WALStats, bool) {
	st, ok := db.e.WALStats()
	if !ok {
		return WALStats{}, false
	}
	return WALStats{
		Records: st.Records, Commits: st.Commits, Fsyncs: st.Fsyncs,
		Bytes: st.Bytes, Checkpoints: st.Checkpoints,
		FullImages: st.FullImages, DeltaRecords: st.DeltaRecords,
		SyncWaits: st.SyncWaits, SharedSyncs: st.SharedSyncs, SyncQueue: st.SyncQueue,
	}, true
}

// SetSlowQueryLog enables slow-operation logging: every traced operation
// whose wall time reaches threshold is passed to sink after it completes. A
// zero threshold or nil sink disables logging. The sink is called outside all
// database locks and must be safe for concurrent use.
func (db *DB) SetSlowQueryLog(threshold time.Duration, sink func(TraceRecord)) {
	if sink == nil {
		db.e.SetSlowQueryLog(threshold, nil)
		return
	}
	db.e.SetSlowQueryLog(threshold, func(r obs.Record) { sink(toTraceRecord(r)) })
}

// MetricsHandler returns the live-telemetry HTTP handler, for embedding in an
// existing server. It serves, on a private mux (http.DefaultServeMux is never
// touched):
//
//	/metrics        Prometheus text exposition: per-kind and per-(kind, set)
//	                latency histograms, lock-wait / WAL fsync-wait / buffer
//	                stall histograms, all I/O, pool, and WAL counters, and the
//	                advisor's per-path mix / savings / model-error series
//	/advisor        the workload advisor's report as JSON (DB.Advise)
//	/debug/vars     the MetricsJSON snapshot
//	/debug/traces   the recent-trace ring as NDJSON, completion order
//	/debug/pprof/   the standard runtime profiles
//	/replication    the ReplicationStatus snapshot as JSON (role, per-follower
//	                lag on a primary, connection/apply progress on a follower)
//
// Handlers read lock-free snapshots, so scraping never contends with queries.
// See docs/observability.md for the full series reference.
func (db *DB) MetricsHandler() http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/", db.e.MetricsHandler())
	mux.HandleFunc("/replication", func(w http.ResponseWriter, _ *http.Request) {
		enc, err := json.MarshalIndent(db.ReplicationStatus(), "", "  ")
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(enc, '\n'))
	})
	return mux
}

// MetricsServer is a running telemetry HTTP server started by ServeMetrics.
type MetricsServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the server's listen address (useful with ":0").
func (s *MetricsServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the server down, closing the listener and any open scrapes.
func (s *MetricsServer) Close() error { return s.srv.Close() }

// Shutdown gracefully shuts the server down: the listener closes immediately
// (no new scrapes), in-flight responses finish, and idle connections are
// closed — until ctx is cancelled, at which point remaining connections are
// cut like Close. Use this from signal handlers so a scrape in progress is
// not truncated mid-body.
func (s *MetricsServer) Shutdown(ctx context.Context) error { return s.srv.Shutdown(ctx) }

// ServeMetrics starts a telemetry HTTP server on addr (e.g. ":8080") serving
// MetricsHandler's endpoints and returns it; the server runs until Close. The
// database itself is unaffected by the server's lifecycle — closing the
// database while the server runs only makes subsequent scrapes report final
// counter values.
func (db *DB) ServeMetrics(addr string) (*MetricsServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: db.MetricsHandler()}
	go func() { _ = srv.Serve(ln) }()
	return &MetricsServer{ln: ln, srv: srv}, nil
}
