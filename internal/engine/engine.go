// Package engine assembles the substrates into a running object-oriented
// database: a page store, a buffer pool, heap files per set, B+tree indexes,
// the system catalog, and the field-replication manager. It exposes the
// DDL/DML/query operations the examples, experiments, and the public
// fieldrepl API use.
package engine

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/advisor"
	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/wal"
)

// Config configures a database instance.
type Config struct {
	// PoolPages is the buffer pool size in pages (default 256). Experiments
	// size the pool to a query's working set so that, combined with
	// ColdCache between queries, measured I/O realizes the cost model's
	// "optimal join" assumption.
	PoolPages int
	// Dir, when non-empty, stores page files on disk under this directory;
	// otherwise the database is in-memory (the experiment default, where
	// page I/O counts rather than page residence is what matters).
	Dir string
	// InlineMax is the link-inlining threshold of §4.3.1 (default 1; 0
	// disables inlining).
	InlineMax int
	// Store, when non-nil, is used as the page store instead of the MemStore /
	// FileStore the engine would otherwise create. This is the fault-injection
	// seam: tests wrap a real store in a pagefile.FaultStore to exercise
	// failure paths. When Dir is also set, the log, which carries the catalog,
	// still lives under Dir while page I/O goes through the injected store.
	Store pagefile.Store
	// PoolShards is the number of lock shards the buffer pool is striped
	// over (default 1, the historical single-clock pool the figure
	// reproductions assume). Concurrent readers scale with shards.
	PoolShards int
	// ScanWorkers is the number of goroutines non-indexed Query/UpdateWhere
	// predicate evaluation fans out to (default 1, which preserves the
	// sequential scan's deterministic result order).
	ScanWorkers int
	// WALPath relocates the write-ahead log (default Dir/wal.log). Every
	// file-backed database (Dir != "") is logged: transactions append a record
	// per page they changed and a commit record, the commit is fsync'd (group
	// commit batches concurrent committers into one fsync), and recovery replay
	// at Open re-applies committed transactions a crash cut short. In-memory
	// databases (Dir == "") have no log: a commit just publishes the
	// statement's pool scope.
	WALPath string
	// AdvisorDisabled turns the workload advisor off: no trace subscription,
	// no per-path mix aggregation, and Advise reports Enabled=false. Used for
	// the overhead baseline (TestAdvisorOverhead, make gates).
	AdvisorDisabled bool
	// AdvisorWindowOps/AdvisorWindows size the advisor's aggregation windows
	// (operations per window, windows retained); zero takes the advisor's
	// defaults. Tests and benchmarks shrink them to converge fast.
	AdvisorWindowOps int
	AdvisorWindows   int
}

// DB is a database instance. It is safe for concurrent use. DML statements
// and transactions lock only their write footprint — the target sets plus
// every set reachable through replicated-field/inverse-link propagation — and
// run in a buffer-pool scope that commits or rolls back as a unit. Writers to
// disjoint footprints run and commit concurrently, and read-only operations
// (Query, Get, Count, Inverse) read page-level snapshots that never block on
// writers, on every database; the one difference a log makes is that a
// commit also appends to it. DDL, replication control and cache control
// serialize behind the exclusive lock.
type DB struct {
	store   pagefile.Store
	pool    *buffer.Pool
	cat     *catalog.Catalog
	mgr     *core.Manager
	workers int

	// mu separates statements from whole-database operations. DDL,
	// replication control and cache control take it exclusively. Write
	// statements and readers take it shared and coordinate among themselves
	// through setLocks and the buffer pool's scopes. Internal helpers never
	// acquire it.
	mu sync.RWMutex
	// setLocks is the per-set lock manager: each write statement locks its
	// whole footprint in sorted order before mutating anything (see
	// footprint.go, lockmgr.go).
	setLocks *lockMgr
	// fsMu guards files/trees/nextOut in shared-lock contexts,
	// where a session registering a query scratch file races with other
	// sessions' lookups. Exclusive-lock holders access the maps directly
	// (the RWMutex orders them against every shared-mode access). Leaf-level:
	// nothing is called while holding it.
	fsMu sync.Mutex

	files   map[pagefile.FileID]*heap.File
	trees   map[string]*btree.Tree
	nextOut int

	// obs issues per-operation I/O traces (see internal/obs).
	obs *obs.Registry
	// advisor aggregates the completed-trace stream into per-replicated-path
	// read/update mixes and model-drift histograms (nil when
	// Config.AdvisorDisabled); advisorCancel detaches its obs subscription.
	advisor       *advisor.Advisor
	advisorCancel func()
	// closed is set once Close or CrashStop has released the store and log.
	// Guarded by db.mu.Lock.
	closed bool

	// wal is the write-ahead log, nil for databases without a Dir; recovered
	// is what its replay did when this database was opened.
	wal       *wal.Manager
	recovered wal.RecoveryReport
	// inlineMax is the resolved link-inlining threshold, kept so a follower
	// can rebuild the replication manager around a streamed catalog.
	inlineMax int

	// Replication state. role gates write entry points (rolePrimary accepts
	// them, roleFollower fails them with ErrNotPrimary); the only transition
	// is follower → primary in Promote. primary/follower hold the active
	// shipping/applying components, nil when replication is not running.
	role     atomic.Int32
	primary  atomic.Pointer[repl.Primary]
	follower atomic.Pointer[repl.Follower]
}

// Open creates a database. With a Dir that already holds a database
// (created by a previous Open/Close cycle), the database is reopened: the
// page files are reattached, the catalog restored from the log, and what a
// crash left of an unfinished schema operation torn down.
func Open(cfg Config) (*DB, error) { return open(cfg, rolePrimary) }

// open is Open in the given replication role.
func open(cfg Config, role int32) (_ *DB, err error) {
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 256
	}
	if cfg.PoolPages < btree.MinPoolFrames {
		return nil, fmt.Errorf("engine: pool of %d pages is below the B+tree minimum %d", cfg.PoolPages, btree.MinPoolFrames)
	}
	store := cfg.Store
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: creating %s: %w", cfg.Dir, err)
		}
	}
	switch {
	case store != nil:
	case cfg.Dir == "":
		store = pagefile.NewMemStore()
	default:
		fs, err := pagefile.OpenFileStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	var walMgr *wal.Manager
	defer func() {
		if err != nil {
			if walMgr != nil {
				walMgr.Close()
			}
			store.Close()
		}
	}()
	// WAL recovery runs against the bare store, before the pool exists:
	// committed transactions a crash cut short are re-applied, and the log's
	// last committed catalog is the database's.
	cat := catalog.New()
	var recovered wal.RecoveryReport
	if cfg.Dir != "" {
		walPath := cfg.WALPath
		if walPath == "" {
			walPath = filepath.Join(cfg.Dir, "wal.log")
		}
		wm, rep, err := wal.Open(walPath, store)
		if err != nil {
			return nil, err
		}
		walMgr = wm
		// Databases written before the log carried the catalog kept it in
		// catalog.json. It is read this once; the checkpoint below moves it
		// into the log, and only then is it removed.
		data, legacy := rep.Catalog, filepath.Join(cfg.Dir, "catalog.json")
		if data == nil {
			if data, err = os.ReadFile(legacy); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		if data != nil {
			if cat, err = catalog.Restore(data); err != nil {
				return nil, fmt.Errorf("engine: restoring catalog: %w", err)
			}
		}
		if rep.PagesApplied > 0 || rep.DeltasApplied > 0 || rep.FilesCreated > 0 {
			if err := store.SyncAll(); err != nil {
				return nil, err
			}
		}
		// The replayed state is durable; start a new log generation.
		if data, err = cat.Snapshot(); err != nil {
			return nil, err
		}
		if err := wm.Checkpoint(data); err != nil {
			return nil, err
		}
		if err := os.Remove(legacy); err != nil && !errors.Is(err, os.ErrNotExist) {
			return nil, err
		}
		recovered = *rep
	}
	shards := cfg.PoolShards
	if shards < 1 {
		shards = 1
	}
	workers := cfg.ScanWorkers
	if workers < 1 {
		workers = 1
	}
	pool := buffer.NewSharded(store, cfg.PoolPages, shards)
	if walMgr != nil {
		// Log-before-data: a dirty page may only be written back once the
		// log covering it is durable.
		pool.SetWriteBarrier(walMgr.EnsureDurablePage)
	}
	db := &DB{
		store:     store,
		pool:      pool,
		cat:       cat,
		workers:   workers,
		files:     map[pagefile.FileID]*heap.File{},
		trees:     map[string]*btree.Tree{},
		obs:       obs.NewRegistry(pagefile.PageSize),
		wal:       walMgr,
		recovered: recovered,
		setLocks:  newLockMgr(),
	}
	inlineMax := cfg.InlineMax
	if inlineMax == 0 {
		inlineMax = 1
	} else if inlineMax < 0 {
		inlineMax = 0
	}
	db.inlineMax = inlineMax
	db.role.Store(role)
	db.mgr = core.New(db.cat, nil, core.WithInlineMax(inlineMax))
	if !cfg.AdvisorDisabled {
		db.advisor = advisor.New(advisor.Config{WindowOps: cfg.AdvisorWindowOps, Windows: cfg.AdvisorWindows})
		db.advisorCancel = db.obs.Subscribe(db.advisor.Observe)
	}
	if err := db.rehydrate(); err != nil {
		return nil, err
	}
	if err := db.finishSchema(); err != nil {
		return nil, err
	}
	return db, nil
}

// finishSchema completes what the catalog leaves unfinished before the
// database accepts statements (see settle).
func (db *DB) finishSchema() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.settleToServe()
}

// rehydrate reattaches the heap files and indexes a catalog records that are
// not attached yet.
func (db *DB) rehydrate() error {
	openHeap := func(fid pagefile.FileID) error {
		if _, done := db.files[fid]; done {
			return nil
		}
		f, err := heap.Open(db.pool, fid)
		if err != nil {
			return err
		}
		db.files[fid] = f
		return nil
	}
	for _, s := range db.cat.Sets() {
		if err := openHeap(s.FileID); err != nil {
			return fmt.Errorf("engine: reopening set %s: %w", s.Name, err)
		}
	}
	for _, p := range append(slices.Clone(db.cat.Paths()), db.cat.Building()...) {
		for _, l := range pathLinks(p) {
			if l.HasFile {
				if err := openHeap(l.FileID); err != nil {
					return fmt.Errorf("engine: reopening link %d: %w", l.ID, err)
				}
			}
		}
		if p.Group != nil && p.Group.HasFile {
			if err := openHeap(p.Group.FileID); err != nil {
				return fmt.Errorf("engine: reopening S′ group %d: %w", p.Group.ID, err)
			}
		}
	}
	for _, s := range db.cat.Sets() {
		for _, ix := range db.cat.IndexesOn(s.Name) {
			if _, done := db.trees[ix.Name]; done {
				continue
			}
			tree, err := btree.Open(db.pool, ix.FileID)
			if err != nil {
				return fmt.Errorf("engine: reopening index %s: %w", ix.Name, err)
			}
			db.trees[ix.Name] = tree
		}
	}
	return nil
}

// Close flushes and releases the database. With a WAL, everything is made
// durable and the log starts a new generation carrying the catalog, so
// reopening replays nothing.
//
// Close waits out in-flight statements and transactions on the exclusive
// lock; statements that start afterwards fail against the closed store and
// log. A Close that fails before releasing anything may be retried, except
// on a poisoned log (wal.Manager.Err), which refuses every write until a
// reopen: that Close releases the database like CrashStop and returns the
// failure, and Open recovers from the log. Once the database is released
// (by Close or CrashStop), Close returns pagefile.ErrClosed.
func (db *DB) Close() error {
	// Replication components must stop before the lock is taken: the
	// follower applier acquires db.mu inside ApplyTxns, and the primary's
	// snapshot callback does too.
	db.closeRepl()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return fmt.Errorf("engine: close: %w", pagefile.ErrClosed)
	}
	err := db.sync()
	if err != nil && (db.wal == nil || db.wal.Err() == nil) {
		return err
	}
	db.closed = true
	if db.advisorCancel != nil {
		db.advisorCancel()
	}
	if db.wal != nil {
		if werr := db.wal.Close(); err == nil {
			err = werr
		}
	}
	if cerr := db.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync makes the current state durable: all dirty buffered pages are written
// back and the underlying store is fsynced. After Sync returns, a crash loses
// nothing.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sync()
}

// sync is Sync without the lock, for callers already holding it. With a WAL
// it is also the checkpoint: once the data files are durable the log no
// longer needs to cover them, and a new generation starts with the catalog in
// its header.
func (db *DB) sync() error {
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.store.SyncAll(); err != nil {
		return err
	}
	if db.wal == nil {
		return nil
	}
	cat, err := db.cat.Snapshot()
	if err != nil {
		return err
	}
	return db.wal.Checkpoint(cat)
}

// Repair re-derives all replicated state from the primary objects (see
// core.Repair), as a schema operation: the rewritten pages are logged and
// durable when it returns. It is for damage no log covers — media corruption
// of a derived page.
func (db *DB) Repair() (rep *core.RepairReport, err error) {
	err = db.ddl(func(s *sess) error {
		rep, err = s.repair()
		return err
	})
	return rep, err
}

// repair runs core.Repair through the session. Its fresh files step gives
// every live link and S′ group a new page file, abandoning the old one whole.
// The catalog's rederive flag, set with the first commit and cleared with
// the last, makes a crash or a failure resume it (settle).
func (s *sess) repair() (*core.RepairReport, error) {
	rep, err := s.mgr.Repair(func() error {
		for _, p := range s.db.cat.Paths() {
			if err := s.ensurePathFiles(p); err != nil {
				return err
			}
		}
		return nil
	})
	if err == nil {
		err = s.takeIdxErr()
	}
	return rep, err
}

// LinkSequence returns the link IDs of a registered replication path in
// order — the paper's "link sequence" (§4.1.3) — and whether the path
// exists. It reads the catalog under the shared lock, so it is safe beside
// concurrent DDL.
func (db *DB) LinkSequence(spec catalog.PathSpec, strategy catalog.Strategy) ([]uint8, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	p, ok := db.cat.FindPath(spec, strategy)
	if !ok {
		return nil, false
	}
	return p.LinkSequence(), true
}

// waitDurable blocks in the WAL group-commit rendezvous until lsn is fsync'd,
// charging the wait to tr as log wait. lsn 0 (nothing logged) is a no-op.
// Callers must have released their locks so committers overlap in the wait
// and batch onto one fsync.
func (db *DB) waitDurable(lsn uint64, tr *obs.Trace) error {
	if lsn == 0 || db.wal == nil {
		return nil
	}
	start := time.Now()
	err := db.wal.WaitDurable(lsn)
	tr.LogWait(time.Since(start))
	if err == nil {
		// Semi-synchronous replication: when configured, wait (bounded) for
		// follower acks too. Called outside db.mu like the fsync wait, so
		// commits overlap in both rendezvous.
		db.waitReplicated(lsn)
	}
	return err
}

// --- I/O accounting and cache control ---

// IOStats is a snapshot of page-level I/O counters: store reads, writes and
// page allocations.
type IOStats struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Allocs int64 `json:"allocs"`
}

// Total returns reads + writes.
func (s IOStats) Total() int64 { return s.Reads + s.Writes }

// Sub returns the delta s - t.
func (s IOStats) Sub(t IOStats) IOStats {
	return IOStats{Reads: s.Reads - t.Reads, Writes: s.Writes - t.Writes, Allocs: s.Allocs - t.Allocs}
}

func (s IOStats) String() string { return fmt.Sprintf("reads=%d writes=%d", s.Reads, s.Writes) }

// IO returns the cumulative page I/O counters of the underlying store. Only
// buffer misses and write-backs are counted, exactly the page transfers the
// cost model charges.
func (db *DB) IO() IOStats {
	st := db.store.Stats().Snapshot()
	return IOStats{Reads: st.Reads, Writes: st.Writes, Allocs: st.Allocs}
}

// ColdCache flushes and empties the buffer pool, so the next query starts
// cold — the measurement discipline that realizes the cost model's
// assumptions (each query reads each needed page exactly once).
func (db *DB) ColdCache() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pool.Reset()
}

// PoolStats exposes buffer pool counters.
func (db *DB) PoolStats() buffer.PoolStats { return db.pool.Stats() }

// WALStats reports cumulative write-ahead-log counters (records, commits,
// fsyncs, bytes, checkpoints). ok is false when the database runs without a
// WAL.
func (db *DB) WALStats() (wal.Stats, bool) {
	if db.wal == nil {
		return wal.Stats{}, false
	}
	return db.wal.Stats(), true
}

// RecoveryReport reports what WAL replay did when the database was opened:
// transactions, full images and deltas applied, and how long it took. Zero
// for an in-memory database and after a clean shutdown.
func (db *DB) RecoveryReport() wal.RecoveryReport { return db.recovered }

// NumPages returns the page count of a set's backing file.
func (db *DB) NumPages(set string) (uint32, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, err := db.readSess(nil).SetFile(set)
	if err != nil {
		return 0, err
	}
	return f.NumPages()
}

// FlushAll writes back all dirty buffered pages.
func (db *DB) FlushAll() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.pool.FlushAll()
}

// VerifyReplication runs the full replication invariant checker over the
// live paths. It takes the exclusive lock: the checker cross-references
// primary objects, link structures, and S′ files, and a concurrent writer
// committing between those reads would produce false positives. It runs as a
// schema operation, because the checker first drains deferred propagation.
func (db *DB) VerifyReplication() []error {
	db.mu.Lock()
	defer db.mu.Unlock()
	var errs []error
	if err := db.schemaOp(func(s *sess) error {
		errs = s.mgr.Verify()
		return nil
	}); err != nil {
		errs = append(errs, err)
	}
	return errs
}

// ErrNoSuchSet is returned for operations on unknown sets.
var ErrNoSuchSet = errors.New("engine: no such set")

// SetStats reports the physical statistics of a set's heap file. It takes
// the exclusive lock so the multi-page walk never interleaves with a
// concurrent writer's commit.
func (db *DB) SetStats(set string) (heap.Stats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	f, err := db.readSess(nil).SetFile(set)
	if err != nil {
		return heap.Stats{}, err
	}
	return f.Stats()
}
