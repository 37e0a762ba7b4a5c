package fieldrepl

import (
	"encoding/json"
	"net/http"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/wal"
)

// TraceRecord is one completed operation's I/O trace: identity, timing, and
// the page counters the operation itself accumulated (obs.Record, whose
// fields document each one). Unlike the global IO() counters, a trace is
// exact under concurrency — it counts only the pages the traced operation
// touched, never a concurrent query's. PageAccesses() is hits + misses, the
// operation's logical page requests, deterministic for a given plan
// regardless of cache warmth.
type TraceRecord = obs.Record

// The observability accessors below take no lock: every engine-side snapshot
// is lock-free. This makes them safe to call from anywhere — in particular
// from a slow-query sink, which runs while a DML caller is still inside a
// public method.

// RecentTraces returns the most recently completed operation traces in
// completion order, oldest completion first. Trace ids are issued at start,
// so overlapping operations may appear with non-monotonic ids; the ring's
// completion order is the stable, documented order.
func (db *DB) RecentTraces() []TraceRecord { return db.e.RecentTraces() }

// MetricsJSON returns the pull-based observability snapshot as expvar-style
// JSON: process-total I/O and buffer pool counters, WAL activity (an explicit
// `"wal": null` when the database runs without one), trace aggregates,
// latency and contention histogram digests, and the recent trace ring. This
// is what `extradb -metrics` prints and what /debug/vars serves.
func (db *DB) MetricsJSON() ([]byte, error) {
	return json.MarshalIndent(db.e.Metrics(), "", "  ")
}

// WALStats is a snapshot of write-ahead-log activity (wal.Stats). Fsyncs
// much smaller than Commits is group commit working: concurrent committers
// shared forces of the log.
type WALStats = wal.Stats

// WALStats reports cumulative write-ahead-log counters. ok is false when
// the database is in-memory and so has no WAL.
func (db *DB) WALStats() (WALStats, bool) { return db.e.WALStats() }

// SetSlowQueryLog enables slow-operation logging: every traced operation
// whose wall time reaches threshold is passed to sink after it completes. A
// zero threshold or nil sink disables logging. The sink is called outside all
// database locks and must be safe for concurrent use.
func (db *DB) SetSlowQueryLog(threshold time.Duration, sink func(TraceRecord)) {
	db.e.SetSlowQueryLog(threshold, sink)
}

// MetricsHandler returns the live-telemetry HTTP handler, for embedding in an
// existing server; DB.Serve's HTTP side serves the same routes beside /exec
// and /stats. It serves, on a private mux (http.DefaultServeMux is never
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
