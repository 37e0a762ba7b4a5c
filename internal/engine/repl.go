package engine

import (
	"errors"
	"fmt"
	"net"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/wal"
)

// Replication roles. A database is a primary (writable, the default) or a
// follower (read-only, continuously replaying the primary's WAL). The only
// transition is follower → primary, via Promote.
const (
	rolePrimary int32 = iota
	roleFollower
)

// ErrNotPrimary is returned by write operations on a follower: a replica is
// read-only until Promote.
var ErrNotPrimary = errors.New("engine: database is a read-only follower")

// ErrNotFollower is returned by Promote on a database that is not a follower.
var ErrNotFollower = errors.New("engine: database is not a follower")

// writable gates every mutating entry point. Reads are never gated: serving
// them at the follower's applied LSN is the whole point of a read replica.
func (db *DB) writable() error {
	if db.role.Load() == roleFollower {
		return ErrNotPrimary
	}
	return nil
}

// ServeReplication starts shipping this database's WAL to followers
// connecting on ln. The database keeps committing regardless of follower
// health: a follower that cannot drain its socket is dropped, and checkpoint
// truncation is only deferred for connected followers within cfg.RetainBytes.
// With cfg.MinSyncFollowers > 0, commits additionally wait (bounded by
// cfg.SyncTimeout) until that many followers have durably acked them.
func (db *DB) ServeReplication(ln net.Listener, cfg repl.Config) error {
	if err := db.writable(); err != nil {
		return err
	}
	if db.wal == nil {
		return errors.New("engine: replication requires a file-backed database (set Dir)")
	}
	p := repl.NewPrimary(db.wal, db.replSnapshot, cfg)
	if !db.primary.CompareAndSwap(nil, p) {
		p.Close()
		return errors.New("engine: already serving replication")
	}
	p.Serve(ln)
	return nil
}

// replSnapshot captures a consistent snapshot of the store for a follower
// that must full-resync. It runs under the writer lock, so the log is
// quiescent (every append path holds db.mu); all buffered state is flushed,
// forced durable, and every file — scratch query-output files included, so
// file IDs stay aligned with streamed FileCreate records — is copied at a
// known LSN.
func (db *DB) replSnapshot() (*repl.Snapshot, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.pool.FlushAll(); err != nil {
		return nil, err
	}
	snapLSN := db.wal.LastLSN()
	if err := db.wal.WaitDurable(snapLSN); err != nil {
		return nil, err
	}
	cat, err := db.cat.Snapshot()
	if err != nil {
		return nil, err
	}
	snap := &repl.Snapshot{LSN: snapLSN, Catalog: cat}
	for fid := pagefile.FileID(1); ; fid++ {
		name, err := db.store.FileName(fid)
		if errors.Is(err, pagefile.ErrNoSuchFile) {
			break
		}
		if err != nil {
			return nil, err
		}
		n, err := db.store.NumPages(fid)
		if err != nil {
			return nil, err
		}
		pages := make([]pagefile.Page, n)
		if n > 0 {
			if err := db.store.ReadPages(fid, 0, pages); err != nil {
				return nil, err
			}
		}
		snap.Files = append(snap.Files, repl.SnapshotFile{FID: fid, Name: name, Pages: pages})
	}
	return snap, nil
}

// OpenFollower opens a read-only replica of the primary at primaryAddr. The
// database recovers its local log like a normal Open, then resumes streaming
// from its last durable LSN (a fresh directory gets a full snapshot). All
// write operations fail with ErrNotPrimary until Promote. cfg must be
// file-backed — the local log is what makes applied transactions durable and
// restarts resumable.
func OpenFollower(cfg Config, primaryAddr string, fcfg repl.FollowerConfig) (*DB, error) {
	if cfg.Dir == "" {
		return nil, errors.New("engine: follower requires a file-backed database")
	}
	db, err := open(cfg, roleFollower)
	if err != nil {
		return nil, err
	}
	// Open's recovery replayed the whole local log into the store, so the
	// applied frontier starts at the log end.
	db.follower.Store(repl.StartFollower(primaryAddr, &replTarget{db: db, applied: db.wal.LastLSN()}, fcfg))
	return db, nil
}

// Promote turns a follower into a writable primary after the old primary is
// gone: the replication session is stopped, the applied state is forced
// durable, and the role flips. A schema operation the old primary left
// unfinished is then torn down, as Open would. The LSN sequence continues
// where the stream ended, so a later follower of the new primary resumes
// cleanly.
//
// Promote refuses with repl.ErrFollowerLagged while the session to the old
// primary is still live and the follower is behind it — promoting then would
// fork the history (the old primary keeps committing LSNs this replica never
// saw). The check demands fresh evidence, not the last heartbeat's possibly
// stale accounting: while connected, Promote waits for a post-call heartbeat
// confirming the applied LSN covers everything the primary holds durable
// (bounded by the session's idle timeout). Once the primary is truly gone
// the session drops and Promote proceeds; anything the dead primary
// committed beyond the follower's applied LSN was never acked by this
// follower, so semi-sync commits are never lost. The old primary must never
// come back as a primary — wipe it and re-attach it as a follower.
func (db *DB) Promote() error {
	if db.role.Load() != roleFollower {
		return ErrNotFollower
	}
	f := db.follower.Load()
	if f != nil {
		if err := f.ConfirmCaughtUp(); err != nil {
			return err
		}
		f.Stop() // no ApplyTxns is in flight after Stop returns
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.sync(); err != nil {
		return err
	}
	db.follower.Store(nil)
	db.role.Store(rolePrimary)
	return db.settleToServe()
}

// ReplicationStatus reports the database's replication role and, when
// replication is active, the side-specific state: per-follower lag on a
// shipping primary, connection/apply state on a follower.
type ReplicationStatus struct {
	Role     string               `json:"role"`
	Primary  *repl.PrimaryStatus  `json:"primary,omitempty"`
	Follower *repl.FollowerStatus `json:"follower,omitempty"`
}

// ReplicationStatus reports role, per-follower lag (primary side) and
// connection/apply progress (follower side).
func (db *DB) ReplicationStatus() ReplicationStatus {
	st := ReplicationStatus{Role: "primary"}
	if db.role.Load() == roleFollower {
		st.Role = "follower"
	}
	if p := db.primary.Load(); p != nil {
		ps := p.Status()
		st.Primary = &ps
	}
	if f := db.follower.Load(); f != nil {
		fs := f.Status()
		st.Follower = &fs
	}
	return st
}

// waitReplicated is the semi-synchronous hook on the commit path, called by
// waitDurable after the local fsync.
func (db *DB) waitReplicated(lsn uint64) {
	if p := db.primary.Load(); p != nil {
		p.WaitReplicated(lsn)
	}
}

// closeRepl stops replication components. Must be called WITHOUT db.mu held:
// the follower applier takes db.mu inside ApplyTxns, and Stop waits for it.
func (db *DB) closeRepl() {
	if p := db.primary.Swap(nil); p != nil {
		p.Close()
	}
	if f := db.follower.Swap(nil); f != nil {
		f.Stop()
	}
}

// CrashStop simulates kill -9 for crash-recovery and failover tests: the WAL
// and store handles are closed without flushing the buffer pool or
// checkpointing. In-flight commits whose fsync had not completed
// fail; everything acknowledged durable stays on disk. The DB object is
// unusable afterwards (operations fail with closed-store errors); reopen the
// directory to recover.
func (db *DB) CrashStop() {
	db.closeRepl()
	if db.wal != nil {
		// Close outside db.mu: commit waiters block in the WAL, not under
		// db.mu, and closing wakes them with ErrClosed.
		_ = db.wal.Close()
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	db.closed = true
	_ = db.store.Close()
}

// replTarget adapts the engine to repl.Target: the follower applier feeds it
// snapshots and committed transactions, and it installs them under the
// engine's writer lock so replica reads never see a half-applied transaction.
type replTarget struct {
	db *DB
	// applied is the LSN through which the *store* reflects the stream — the
	// resume point reported to the primary. It deliberately trails the local
	// log when an apply fails partway: the log may durably hold transactions
	// the store never absorbed, and resuming from the log end would skip them
	// forever. Only the single follower session goroutine touches it.
	applied uint64
}

// LastLSN implements repl.Target: the follower's resume point is the applied
// frontier, not the local log end, so transactions whose apply failed after
// the raw append are re-sent (AppendRaw dedups the duplicate frames).
func (t *replTarget) LastLSN() uint64 { return t.applied }

// ApplySnapshot implements repl.Target: replace the entire local state with
// the primary's snapshot — store files, catalog, and log position.
func (t *replTarget) ApplySnapshot(snap *repl.Snapshot) error {
	db := t.db
	db.mu.Lock()
	defer db.mu.Unlock()
	// Drop every cached page first: stale frames must neither serve reads nor
	// flush over the incoming images. No pins can be live under the writer
	// lock, and a follower has no dirty pages of its own.
	if err := db.pool.Reset(); err != nil {
		return err
	}
	for _, sf := range snap.Files {
		if _, err := db.store.FileName(sf.FID); err != nil {
			if !errors.Is(err, pagefile.ErrNoSuchFile) {
				return err
			}
			got, err := db.store.CreateFile(sf.Name)
			if err != nil {
				return err
			}
			if got != sf.FID {
				return fmt.Errorf("engine: snapshot file %q installed as %d, primary says %d", sf.Name, got, sf.FID)
			}
		}
		n, err := db.store.NumPages(sf.FID)
		if err != nil {
			return err
		}
		for n < uint32(len(sf.Pages)) {
			if _, err := db.store.Allocate(sf.FID); err != nil {
				return err
			}
			n++
		}
		for i := range sf.Pages {
			pid := pagefile.PageID{File: sf.FID, Page: uint32(i)}
			if err := db.store.WritePage(pid, &sf.Pages[i]); err != nil {
				return err
			}
		}
		// A diverged follower may have a longer file than the primary: zero
		// the tail so stale records can never scan back into results.
		var zero pagefile.Page
		for p := uint32(len(sf.Pages)); p < n; p++ {
			if err := db.store.WritePage(pagefile.PageID{File: sf.FID, Page: p}, &zero); err != nil {
				return err
			}
		}
	}
	if err := db.store.SyncAll(); err != nil {
		return err
	}
	// The store now embodies everything through snap.LSN: restart the local
	// log there, its header carrying the snapshot's catalog.
	if err := db.wal.ResetTo(snap.LSN+1, snap.Catalog); err != nil {
		return err
	}
	if err := db.installCatalog(snap.Catalog); err != nil {
		return err
	}
	t.applied = snap.LSN
	return nil
}

// ApplyTxns implements repl.Target. Each transaction is first made durable in
// the follower's own log (AppendRaw of the primary's verbatim frames + fsync)
// and then applied to the store — log-before-data, so a crash between the two
// replays the transaction from the local log. The caller acks the primary
// only after this returns.
func (t *replTarget) ApplyTxns(txns []repl.Txn) error {
	db := t.db
	db.mu.Lock()
	defer db.mu.Unlock()
	for i := range txns {
		if err := db.wal.AppendRaw(&txns[i]); err != nil {
			return err
		}
	}
	last := txns[len(txns)-1].LastLSN
	if err := db.wal.WaitDurable(last); err != nil {
		return err
	}
	// Redo fills file-ID gaps left by the primary's unlogged scratch files
	// (query outputs) with placeholders, so logged FileCreate records land on
	// the same IDs here and — crucially — in restart recovery, which replays
	// the exact same records from the local log if we crash between AppendRaw
	// and this apply. It patches each page in memory however many of the
	// batch's records touch it and writes it once, at land.
	var rep wal.RecoveryReport
	redo := wal.NewRedo(db.store, &rep)
	land := func(through uint64) error {
		if err := redo.Flush(); err != nil {
			return err
		}
		t.applied = through
		return nil
	}
	for i := range txns {
		txn := &txns[i]
		if err := redo.ApplyCommitted(txn); err != nil {
			return err
		}
		// Drop cached copies of the pages being changed beneath the pool.
		for j := range txn.Pages {
			if err := db.pool.Invalidate(txn.Pages[j].PID); err != nil {
				return err
			}
		}
		if txn.Catalog != nil {
			// Installing a catalog reopens files through the pool: the pages
			// must be in the store first.
			if err := land(txn.LastLSN); err != nil {
				return err
			}
			if err := db.installCatalog(txn.Catalog); err != nil {
				return err
			}
		}
	}
	return land(last)
}

// installCatalog swaps in a catalog snapshot streamed from the primary and
// rebuilds everything derived from it: the replication manager and the heap
// and index handles. Called under db.mu.
func (db *DB) installCatalog(data []byte) error {
	cat, err := catalog.Restore(data)
	if err != nil {
		return fmt.Errorf("engine: restoring streamed catalog: %w", err)
	}
	db.cat = cat
	db.mgr = core.New(db.cat, nil, core.WithInlineMax(db.inlineMax))
	db.files = map[pagefile.FileID]*heap.File{}
	db.trees = map[string]*btree.Tree{}
	return db.rehydrate()
}
