package engine

import (
	"time"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/wal"
)

// Metrics is the pull-based observability snapshot: process-total I/O and
// pool counters, WAL activity, trace aggregates, latency and contention
// digests, and the recently completed trace records.
type Metrics struct {
	IO   IOStats          `json:"io"`
	Pool buffer.PoolStats `json:"pool"`
	// WAL is nil — rendered as an explicit JSON null — when the database runs
	// without a write-ahead log (in-memory), so consumers can
	// tell "no WAL" from "WAL with zero activity".
	WAL    *wal.Stats  `json:"wal"`
	Traces obs.Metrics `json:"traces"`
	// Latency digests the wall-time histograms: per operation kind under the
	// kind name ("query"), per (kind, set) under "kind|set" ("query|Emp1").
	Latency map[string]obs.HistSummary `json:"latency"`
	// Contention digests the wait/stall histograms: "wal_fsync_wait"
	// (group-commit durability rendezvous; present only with a WAL),
	// "pool_read_stall" and "pool_write_stall" (buffer-pool store I/O), and
	// "set_lock_wait|<set>" (per-set write locks, once contended).
	Contention map[string]obs.HistSummary `json:"contention"`
	Recent     []obs.Record               `json:"recent"`
}

// Metrics returns the observability snapshot. It takes no engine lock: every
// source is an internally consistent concurrent snapshot, so Metrics is safe
// to call from anywhere — including a slow-query sink — without deadlock.
func (db *DB) Metrics() Metrics {
	m := Metrics{
		IO:         db.IO(),
		Pool:       db.pool.Stats(),
		Traces:     db.obs.Metrics(),
		Latency:    db.obs.LatencySummaries(),
		Contention: db.contentionSummaries(),
		Recent:     db.obs.Recent(),
	}
	if db.wal != nil {
		st := db.wal.Stats()
		m.WAL = &st
	}
	return m
}

// contentionSummaries digests the engine's contention histograms for the
// Metrics snapshot and /debug/vars.
func (db *DB) contentionSummaries() map[string]obs.HistSummary {
	read, write := db.pool.StallHists()
	out := map[string]obs.HistSummary{
		"pool_read_stall":  read.Summary(),
		"pool_write_stall": write.Summary(),
	}
	// Per-set lock waits ("set_lock_wait|<set>"), present once contended.
	for k, v := range db.setLocks.waitSummaries() {
		out[k] = v
	}
	if db.wal != nil {
		out["wal_fsync_wait"] = db.wal.FsyncWaitHist().Summary()
	}
	return out
}

// RecentTraces returns the most recently completed trace records, oldest
// first.
func (db *DB) RecentTraces() []obs.Record {
	return db.obs.Recent()
}

// SetSlowQueryLog enables slow-operation logging: every traced operation
// whose wall time reaches threshold is passed to sink after it finishes. A
// zero threshold or nil sink disables it. The sink runs outside engine locks
// and must be safe for concurrent use.
func (db *DB) SetSlowQueryLog(threshold time.Duration, sink func(obs.Record)) {
	db.obs.SetSlowQuery(threshold, sink)
}

// FlushAllTraced writes back all dirty buffered pages like FlushAll and
// returns the flush's own trace record, so measurement code can account the
// write-backs a query left dirty to that query's workload without a global
// counter delta. It runs under the shared lock: the flush skips pages
// captured by in-flight writers (their write-back is gated on commit
// anyway), so it never blocks behind — or publishes partial state of — a
// concurrent transaction.
func (db *DB) FlushAllTraced() (obs.Record, error) {
	tr := db.obs.Start(obs.KindFlush, "", "")
	db.mu.RLock()
	err := db.pool.FlushAllT(tr)
	db.mu.RUnlock()
	rec := db.obs.Finish(tr)
	return rec, err
}
