package fieldrepl

import (
	"net"
	"time"

	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/repl"
)

// Physical replication: a primary ships its write-ahead log to read-only
// followers over TCP. Followers replay committed transactions into their own
// store, serve reads at their applied LSN, survive restarts (the stream
// resumes from their local log), and can be promoted to a writable primary
// when the old one dies. See docs/replication.md for the full topology,
// consistency semantics, and the failover runbook.

// ReplicationConfig tunes the primary side of WAL shipping. The zero value
// gives sensible defaults (1s heartbeats, 256 KiB batches, 10s write
// deadline, fully asynchronous, 64 MiB log retention for lagging followers).
type ReplicationConfig struct {
	// Heartbeat is how often an idle stream tells followers the primary is
	// alive and what its durable LSN is (default 1s).
	Heartbeat time.Duration
	// BatchBytes bounds one shipped record batch (default 256 KiB).
	BatchBytes int
	// WriteTimeout is the per-message send deadline. A follower that cannot
	// drain its socket within it is dropped rather than ever blocking the
	// primary's commits (default 10s).
	WriteTimeout time.Duration
	// MinSyncFollowers makes commits semi-synchronous: each commit
	// additionally waits until this many followers have durably acknowledged
	// it. 0 (the default) is fully asynchronous. A wait that exceeds
	// SyncTimeout, or finds no follower connected, degrades to asynchronous
	// and is counted in ReplicationStatus rather than failing the commit.
	MinSyncFollowers int
	// SyncTimeout bounds one semi-synchronous wait (default 5s).
	SyncTimeout time.Duration
	// RetainBytes bounds how large the WAL may grow on behalf of a lagging
	// follower before checkpoints truncate anyway, forcing that follower
	// into a full snapshot resync (default 64 MiB; -1 retains without bound).
	RetainBytes int64
}

func (c ReplicationConfig) internal() repl.Config {
	return repl.Config{
		Heartbeat: c.Heartbeat, BatchBytes: c.BatchBytes, WriteTimeout: c.WriteTimeout,
		MinSyncFollowers: c.MinSyncFollowers, SyncTimeout: c.SyncTimeout, RetainBytes: c.RetainBytes,
	}
}

// FollowerConfig tunes a follower's connection maintenance. The zero value
// gives sensible defaults (3s dials, 100ms–10s jittered exponential backoff,
// 10s idle timeout — nine missed heartbeats).
type FollowerConfig struct {
	// DialTimeout bounds one connection attempt (default 3s).
	DialTimeout time.Duration
	// MinBackoff and MaxBackoff bound the exponential reconnect backoff
	// (defaults 100ms and 10s); actual sleeps are jittered ±50%.
	MinBackoff time.Duration
	MaxBackoff time.Duration
	// IdleTimeout is how long the stream may be silent before the connection
	// is declared dead and redialed (default 10s).
	IdleTimeout time.Duration
}

func (c FollowerConfig) internal() repl.FollowerConfig {
	return repl.FollowerConfig{
		DialTimeout: c.DialTimeout, MinBackoff: c.MinBackoff,
		MaxBackoff: c.MaxBackoff, IdleTimeout: c.IdleTimeout,
	}
}

// ServeReplication starts shipping this database's WAL to followers that
// connect on addr (e.g. ":7071", or ":0" to pick a free port — the bound
// address is returned). The database must be file-backed with the WAL
// enabled. Shipping runs until Close; the primary keeps committing regardless
// of follower health.
func (db *DB) ServeReplication(addr string, cfg ReplicationConfig) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	if err := db.e.ServeReplication(ln, cfg.internal()); err != nil {
		_ = ln.Close()
		return "", err
	}
	return ln.Addr().String(), nil
}

// OpenFollower opens cfg.Dir as a read-only replica of the primary at
// primaryAddr. A fresh directory receives a full snapshot; a restarted
// follower resumes streaming from its local log's last durable LSN. The
// session is maintained in the background with reconnect backoff — the
// handle is usable (for reads) even while the primary is unreachable. All
// writes fail with ErrNotPrimary until Promote. cfg must be file-backed with
// the WAL enabled.
func OpenFollower(cfg Config, primaryAddr string, fcfg FollowerConfig) (*DB, error) {
	e, err := engine.OpenFollower(cfg.engineConfig(), primaryAddr, fcfg.internal())
	if err != nil {
		return nil, err
	}
	return newDB(e), nil
}

// Promote turns a follower into a writable primary after the old primary is
// gone: the replication session stops, applied state is forced durable, and
// writes are accepted. Promote refuses with ErrFollowerLagged while the old
// primary is still alive and ahead — promoting then would fork the history.
// The old primary must never come back as a primary; wipe it and re-attach
// it as a follower of the promoted one.
func (db *DB) Promote() error { return db.e.Promote() }

// The replication status types are the engine's and the shipper's own;
// their fields document each value.
type (
	// ReplicationStatus reports the database's replication role ("primary"
	// or "follower") and, when replication is active, the side-specific
	// state.
	ReplicationStatus = engine.ReplicationStatus
	// ReplPrimaryStatus is the shipping primary's view of replication.
	ReplPrimaryStatus = repl.PrimaryStatus
	// ReplFollowerStatus is a follower's view of its session to the primary.
	ReplFollowerStatus = repl.FollowerStatus
	// ReplFollowerInfo is one connected follower as the primary sees it.
	ReplFollowerInfo = repl.FollowerInfo
)

// ReplicationStatus reports role, per-follower lag (on a shipping primary),
// and connection/apply progress (on a follower). Safe to call from anywhere;
// it reads lock-free snapshots.
func (db *DB) ReplicationStatus() ReplicationStatus { return db.e.ReplicationStatus() }

// CrashStop simulates kill -9 for failover drills and crash-recovery tests:
// store and log handles are closed without flushing anything. In-flight
// commits whose fsync had not completed fail; everything acknowledged durable
// stays on disk. The handle is unusable afterwards — reopen the directory to
// recover.
func (db *DB) CrashStop() { db.e.CrashStop() }
