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
	"github.com/exodb/fieldrepl/internal/schema"
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
	// failure paths. When Dir is also set, the catalog snapshot is still
	// read/written under Dir while page I/O goes through the injected store.
	Store pagefile.Store
	// PoolShards is the number of lock shards the buffer pool is striped
	// over (default 1, the historical single-clock pool the figure
	// reproductions assume). Concurrent readers scale with shards.
	PoolShards int
	// Readahead is the scan prefetch depth in pages; 0 (the default)
	// disables it, keeping per-query buffer miss counts byte-identical to
	// the paper's unprefetched execution.
	Readahead int
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
	// CommitInterval is the optional group-commit batching window: each
	// committer waits this long before forcing the log, giving concurrent
	// commits time to pile onto one fsync. Zero (the default) means commits
	// force the log immediately (batching still happens under concurrency
	// via the leader/follower fsync).
	CommitInterval time.Duration
	// AdvisorDisabled turns the workload advisor off: no trace subscription,
	// no per-path mix aggregation, and Advise reports Enabled=false. Used for
	// overhead baselines (cmd/advisorbench).
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
// run in a buffer-pool scope that commits or rolls back as a unit. On a
// logged (file-backed) database writers to disjoint footprints run and
// commit concurrently, and read-only operations (Query, Get, Count, Inverse)
// read page-level snapshots that never block on writers. DDL, replication
// control and cache control serialize behind the exclusive lock, as do the
// write statements of an in-memory database.
type DB struct {
	store   pagefile.Store
	pool    *buffer.Pool
	cat     *catalog.Catalog
	mgr     *core.Manager
	dir     string
	workers int

	// mu separates statements from whole-database operations. DDL,
	// replication control and cache control take it exclusively. Write
	// statements and readers take it shared and coordinate among themselves
	// through setLocks and the buffer pool's scopes — except on a database
	// without a log, whose write statements take it exclusively because its
	// readers use plain page views (see lockStatement). Internal helpers
	// (including the core.Storage implementations the replication manager
	// re-enters through) never acquire it.
	mu sync.RWMutex
	// setLocks is the per-set lock manager: each write statement locks its
	// whole footprint in sorted order before mutating anything (see
	// footprint.go, lockmgr.go).
	setLocks *lockMgr
	// fsMu guards files/trees/nextOut/scratchFIDs in shared-lock contexts,
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
	// lockWait is the writer-lock contention histogram: how long each write
	// statement of a database without a log blocked acquiring db.mu
	// exclusively. Together with the WAL's fsync-wait and the pool's stall
	// histograms it decomposes a slow commit into lock wait vs log wait vs
	// device time.
	lockWait *obs.Histogram

	// idxErr records an index-maintenance failure raised inside the listener
	// callback (which cannot return an error) while an exclusive operation
	// propagates through the engine's own manager; the operation surfaces it
	// with takeIdxErr. Statements keep theirs in the session.
	idxErr error

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

	// pendingFiles are the page files DDL created (set heaps, index trees,
	// link and S′ files) that the log has not yet shipped.
	// While the database is shipping its WAL, sync() logs them — together
	// with the dirty pages it is about to flush — as a commit, so a streaming
	// follower learns of files that local recovery gets for free from the
	// filesystem. Cleared by each successful sync (a checkpoint either ships
	// or truncates them). Guarded by db.mu.Lock.
	pendingFiles []wal.FileCreate
	// scratchFIDs marks session-local files (query outputs) that must never
	// be logged or shipped: followers fill the ID gaps with placeholders
	// instead. Guarded like files (see fsMu); file IDs are never reused.
	scratchFIDs map[pagefile.FileID]bool
}

// noteFileCreated records a file DDL created so the next sync() can ship its
// creation to followers. Called under db.mu.Lock.
func (db *DB) noteFileCreated(fid pagefile.FileID, name string) {
	if db.wal == nil {
		return
	}
	db.pendingFiles = append(db.pendingFiles, wal.FileCreate{FID: fid, Name: name})
}

// takeIdxErr returns and clears a deferred index-maintenance error.
func (db *DB) takeIdxErr() error {
	err := db.idxErr
	db.idxErr = nil
	return err
}

// catalogFileName is the catalog snapshot inside a file-backed database
// directory; its presence marks the directory as an existing database.
const catalogFileName = "catalog.json"

// Open creates a database. With a Dir that already holds a database
// (created by a previous Open/Close cycle), the database is reopened: the
// page files are reattached and the catalog restored.
func Open(cfg Config) (*DB, error) {
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 256
	}
	if cfg.PoolPages < btree.MinPoolFrames {
		return nil, fmt.Errorf("engine: pool of %d pages is below the B+tree minimum %d", cfg.PoolPages, btree.MinPoolFrames)
	}
	var store pagefile.Store
	var cat *catalog.Catalog
	reopen := false
	if cfg.Dir != "" {
		catPath := filepath.Join(cfg.Dir, catalogFileName)
		if data, err := os.ReadFile(catPath); err == nil {
			cat, err = catalog.Restore(data)
			if err != nil {
				return nil, fmt.Errorf("engine: restoring catalog: %w", err)
			}
			reopen = true
		}
	}
	switch {
	case cfg.Store != nil:
		store = cfg.Store
	case cfg.Dir == "":
		store = pagefile.NewMemStore()
	case reopen:
		fs, err := pagefile.OpenFileStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		store = fs
	default:
		fs, err := pagefile.NewFileStore(cfg.Dir)
		if err != nil {
			return nil, err
		}
		store = fs
	}
	// WAL recovery runs against the bare store, before the pool exists:
	// committed transactions a crash cut short are re-applied, and the last
	// committed catalog snapshot (always at least as new as catalog.json)
	// replaces the one read above.
	var walMgr *wal.Manager
	var recovered wal.RecoveryReport
	if cfg.Dir != "" {
		walPath := cfg.WALPath
		if walPath == "" {
			walPath = filepath.Join(cfg.Dir, "wal.log")
		}
		wm, rep, err := wal.Open(walPath, store, cfg.CommitInterval)
		if err != nil {
			store.Close()
			return nil, err
		}
		if rep.Catalog != nil {
			c, err := catalog.Restore(rep.Catalog)
			if err != nil {
				wm.Close()
				store.Close()
				return nil, fmt.Errorf("engine: restoring logged catalog: %w", err)
			}
			cat = c
			reopen = true
			if err := os.WriteFile(filepath.Join(cfg.Dir, catalogFileName), rep.Catalog, 0o644); err != nil {
				wm.Close()
				store.Close()
				return nil, err
			}
		}
		if rep.PagesApplied > 0 || rep.DeltasApplied > 0 || rep.FilesCreated > 0 {
			if err := store.SyncAll(); err != nil {
				wm.Close()
				store.Close()
				return nil, err
			}
		}
		// The replayed state is durable; start from an empty log.
		if err := wm.Checkpoint(); err != nil {
			wm.Close()
			store.Close()
			return nil, err
		}
		walMgr = wm
		recovered = *rep
	}
	if cat == nil {
		cat = catalog.New()
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
	pool.SetReadahead(cfg.Readahead)
	if walMgr != nil {
		// Log-before-data: a dirty page may only be written back once the
		// log covering it is durable.
		pool.SetWriteBarrier(walMgr.EnsureDurablePage)
	}
	db := &DB{
		store:       store,
		pool:        pool,
		cat:         cat,
		dir:         cfg.Dir,
		workers:     workers,
		files:       map[pagefile.FileID]*heap.File{},
		trees:       map[string]*btree.Tree{},
		obs:         obs.NewRegistry(pagefile.PageSize),
		lockWait:    obs.NewHistogram(),
		wal:         walMgr,
		recovered:   recovered,
		scratchFIDs: map[pagefile.FileID]bool{},
		setLocks:    newLockMgr(),
	}
	inlineMax := cfg.InlineMax
	if inlineMax == 0 {
		inlineMax = 1
	} else if inlineMax < 0 {
		inlineMax = 0
	}
	db.inlineMax = inlineMax
	db.mgr = core.New(db.cat, db, core.WithInlineMax(inlineMax), core.WithListener(db))
	if !cfg.AdvisorDisabled {
		db.advisor = advisor.New(advisor.Config{WindowOps: cfg.AdvisorWindowOps, Windows: cfg.AdvisorWindows})
		db.advisorCancel = db.obs.Subscribe(db.advisor.Observe)
	}
	if reopen {
		if err := db.rehydrate(); err != nil {
			if walMgr != nil {
				walMgr.Close()
			}
			store.Close()
			return nil, err
		}
	}
	return db, nil
}

// rehydrate reattaches heap files and indexes recorded in a restored catalog.
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
	for _, p := range db.cat.Paths() {
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

// Close flushes and releases the database, persisting the catalog snapshot
// for file-backed databases so they can be reopened. With a WAL, everything
// is made durable and the log is truncated, so reopening replays nothing.
//
// Close waits out in-flight statements and transactions on the exclusive
// lock; statements that start afterwards fail against the closed store and
// log. A Close that fails before releasing anything may be retried; once the
// database is released (by Close or CrashStop), Close returns
// pagefile.ErrClosed.
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
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.store.SyncAll(); err != nil {
			return err
		}
	}
	if err := db.writeCatalog(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Checkpoint(); err != nil {
			return err
		}
	}
	db.closed = true
	if db.advisorCancel != nil {
		db.advisorCancel()
	}
	var err error
	if db.wal != nil {
		err = db.wal.Close()
	}
	if cerr := db.store.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeCatalog persists the catalog snapshot of a file-backed database; it is
// a no-op for in-memory databases. With a WAL, the snapshot is first logged
// and forced: the log's last committed catalog is then always at least as
// new as catalog.json, so recovery can rewrite catalog.json from the log
// without ever regressing it.
func (db *DB) writeCatalog() error {
	if db.dir == "" {
		return nil
	}
	data, err := db.cat.Snapshot()
	if err != nil {
		return err
	}
	// A follower never appends to its own log: its LSN sequence is a copy of
	// the primary's, and a local commit would collide with streamed records.
	// Its catalog durability comes from the streamed RecCatalog records
	// already in the local log.
	if db.wal != nil && db.role.Load() != roleFollower {
		lsn, _, err := db.wal.AppendCommit(nil, nil, data)
		if err != nil {
			return err
		}
		if err := db.wal.WaitDurable(lsn); err != nil {
			return err
		}
	}
	return os.WriteFile(filepath.Join(db.dir, catalogFileName), data, 0o644)
}

// Sync makes the current state durable: all dirty buffered pages are written
// back, the underlying store is fsynced, and (for file-backed databases) the
// catalog snapshot is rewritten. After Sync returns, a crash loses nothing.
func (db *DB) Sync() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.sync()
}

// sync is Sync without the lock, for callers already holding it. With a WAL
// it is also the checkpoint: once the data files and catalog are durable the
// log no longer needs to cover them and is truncated.
func (db *DB) sync() error {
	if err := db.logShipDelta(); err != nil {
		return err
	}
	if err := db.pool.FlushAll(); err != nil {
		return err
	}
	if err := db.store.SyncAll(); err != nil {
		return err
	}
	if err := db.writeCatalog(); err != nil {
		return err
	}
	if db.wal != nil {
		if err := db.wal.Checkpoint(); err != nil {
			return err
		}
	}
	// Everything pending is now either shipped (logShipDelta) or durable in
	// the store with the log checkpointed past it.
	db.pendingFiles = nil
	return nil
}

// logShipDelta ships what a DDL-style sync is about to flush. Local
// durability never needs it: FlushAll writes the pages and the filesystem
// already holds the created files, so the checkpoint can truncate the log.
// But while the WAL is being shipped, the catalog-only commit writeCatalog
// appends would reach followers referencing files and pages that never
// traveled through the log (checkpoint truncation is deferred for connected
// followers, so no snapshot resync saves them). So: when actively shipping,
// log a commit carrying the untransacted file creations and full images of
// every dirty non-scratch page, before the flush. Re-logging a page a DML
// commit already covered is redundant but harmless — apply is idempotent.
// Called under db.mu.Lock as part of sync().
func (db *DB) logShipDelta() error {
	if db.wal == nil || db.primary.Load() == nil || db.role.Load() == roleFollower {
		return nil
	}
	var images []wal.PageImage
	for _, pid := range db.pool.DirtyPages() {
		if db.scratchFIDs[pid.File] {
			continue
		}
		data, ok := db.pool.SnapshotPage(pid)
		if !ok {
			continue // raced out of residence; impossible under the writer lock
		}
		images = append(images, wal.PageImage{PID: pid, Data: data})
	}
	files := db.pendingFiles
	if len(files) == 0 && len(images) == 0 {
		return nil
	}
	if _, _, err := db.wal.AppendCommit(files, images, nil); err != nil {
		return err
	}
	// Stamp the logged LSNs into the resident frames so the images FlushAll
	// writes back match the logged ones, and the write barrier forces the log
	// through them first.
	for i := range images {
		db.pool.StampLSN(images[i].PID, images[i].LSN)
	}
	db.pendingFiles = nil
	return nil
}

// syncIfDurable runs sync for file-backed databases. DDL operations call it
// so that schema changes and their bulk builds survive a crash without an
// orderly Close; in-memory databases skip it to keep the experiments' page
// I/O counts undisturbed. Callers hold db.mu.
func (db *DB) syncIfDurable() error {
	if db.dir == "" {
		return nil
	}
	return db.sync()
}

// taint marks a set's derived replication state suspect after a DDL build
// or teardown failed midway (statements never taint: they roll back),
// persisting the marker immediately for file-backed databases so even a
// crash right after the failure leaves the need for repair on record. The
// cause is recorded with the first taint.
func (db *DB) taint(set string, cause error) {
	db.cat.MarkTainted(set, cause.Error())
	// Best-effort: the store may be the very thing that is failing. The
	// in-memory marker still gates this session; Close persists it later.
	_ = db.writeCatalog()
}

// TaintedSets reports the sets whose derived replication state may be stale
// after a failed DDL build or teardown, with the recorded causes. A
// successful Repair clears them.
func (db *DB) TaintedSets() map[string]string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.cat.TaintedSets()
}

// Repair rebuilds all derived replication state from the primary objects
// (see core.Repair) and, when the post-repair verification comes back clean,
// clears the taint markers and makes the repaired state durable.
func (db *DB) Repair() (*core.RepairReport, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	// A Replicate that failed before its files existed left the path
	// registered without them.
	for _, p := range db.cat.Paths() {
		if err := db.ensurePathFiles(p); err != nil {
			return nil, err
		}
	}
	rep, err := db.mgr.Repair()
	if err != nil {
		return rep, err
	}
	if err := db.takeIdxErr(); err != nil {
		// An index-maintenance failure during repair propagation: the
		// replication state is fixed but an index may not be. Surface it and
		// keep the taint markers.
		return rep, err
	}
	if rep.Clean() {
		db.cat.ClearAllTaint()
	}
	if err := db.syncIfDurable(); err != nil {
		return rep, err
	}
	return rep, nil
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

// Manager exposes the replication manager (used by tests and the invariant
// checker).
func (db *DB) Manager() *core.Manager { return db.mgr }

// --- core.Storage implementation ---
//
// The DB itself is the Storage (and Listener) of the engine's own manager,
// through which DDL builds, teardowns and Repair run: plain untraced page
// views, correct under the exclusive lock those operations hold. Statements
// go through a sess instead.

func (db *DB) heapFor(fid pagefile.FileID) (*heap.File, error) {
	f, ok := db.files[fid]
	if !ok {
		return nil, fmt.Errorf("engine: no heap file %d", fid)
	}
	return f, nil
}

// ReadObject implements core.Storage.
func (db *DB) ReadObject(oid pagefile.OID, typ *schema.Type) (*schema.Object, error) {
	f, err := db.heapFor(oid.File)
	if err != nil {
		return nil, err
	}
	data, err := f.Read(oid)
	if err != nil {
		return nil, err
	}
	return schema.Decode(typ, data)
}

// WriteObject implements core.Storage.
func (db *DB) WriteObject(oid pagefile.OID, o *schema.Object) error {
	f, err := db.heapFor(oid.File)
	if err != nil {
		return err
	}
	return f.Update(oid, o.Encode())
}

// createReplFile creates and registers a link or S′ page file.
func (db *DB) createReplFile(name string) (*heap.File, error) {
	f, err := heap.Create(db.pool, name)
	if err != nil {
		return nil, err
	}
	db.files[f.ID()] = f
	db.noteFileCreated(f.ID(), name)
	return f, nil
}

// LinkFile implements core.Storage, creating the file if l has none.
func (db *DB) LinkFile(l *catalog.Link) (*heap.File, error) {
	if l.HasFile {
		return db.heapFor(l.FileID)
	}
	f, err := db.createReplFile(fmt.Sprintf("__link_%d", l.ID))
	if err != nil {
		return nil, err
	}
	l.FileID, l.HasFile = f.ID(), true
	return f, nil
}

// GroupFile implements core.Storage, creating the file if g has none.
func (db *DB) GroupFile(g *catalog.Group) (*heap.File, error) {
	if g.HasFile {
		return db.heapFor(g.FileID)
	}
	f, err := db.createReplFile(fmt.Sprintf("__sprime_%d", g.ID))
	if err != nil {
		return nil, err
	}
	g.FileID, g.HasFile = f.ID(), true
	return f, nil
}

// RecreateGroupFile implements core.Storage.
func (db *DB) RecreateGroupFile(g *catalog.Group) (*heap.File, error) {
	f, err := db.createReplFile(fmt.Sprintf("__sprime_%d_r", g.ID))
	if err != nil {
		return nil, err
	}
	g.FileID, g.HasFile = f.ID(), true
	return f, nil
}

// ensurePathFiles creates the link and S′ page files of p that do not exist
// yet. Replicate calls it when it registers the path, so every file a
// statement's propagation can touch exists — and is named by its footprint —
// before the statement starts. Called under db.mu.Lock.
func (db *DB) ensurePathFiles(p *catalog.Path) error {
	for _, l := range pathLinks(p) {
		if _, err := db.LinkFile(l); err != nil {
			return err
		}
	}
	if p.Group != nil {
		if _, err := db.GroupFile(p.Group); err != nil {
			return err
		}
	}
	return nil
}

// SetFile implements core.Storage.
func (db *DB) SetFile(name string) (*heap.File, error) {
	s, ok := db.cat.SetByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchSet, name)
	}
	return db.heapFor(s.FileID)
}

// lockWriter acquires db.mu exclusively for a write statement, recording how
// long acquisition blocked in the lock-wait histogram and charging it to tr,
// so writer-lock contention is visible per operation and in aggregate.
func (db *DB) lockWriter(tr *obs.Trace) {
	start := time.Now()
	db.mu.Lock()
	wait := time.Since(start)
	db.lockWait.Observe(wait)
	tr.LockWait(wait)
}

// waitDurable blocks in the WAL group-commit rendezvous until lsn is fsync'd,
// charging the wait to tr as log wait. lsn 0 (nothing logged) is a no-op.
// Callers must have released the writer lock so committers overlap in the
// wait and batch onto one fsync.
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

// IOStats is a snapshot of page-level I/O counters.
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
	f, err := db.SetFile(set)
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

// VerifyReplication runs the full replication invariant checker. It takes
// the exclusive lock: the checker cross-references primary objects, link
// structures, and S′ files, and a concurrent writer committing between
// those reads would produce false positives.
func (db *DB) VerifyReplication() []error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.mgr.Verify()
}

// ErrNoSuchSet is returned for operations on unknown sets.
var ErrNoSuchSet = errors.New("engine: no such set")

// SetStats reports the physical statistics of a set's heap file. It takes
// the exclusive lock so the multi-page walk never interleaves with a
// concurrent writer's commit.
func (db *DB) SetStats(set string) (heap.Stats, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	f, err := db.SetFile(set)
	if err != nil {
		return heap.Stats{}, err
	}
	return f.Stats()
}
