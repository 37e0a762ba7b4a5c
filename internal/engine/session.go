package engine

import (
	"context"
	"errors"
	"fmt"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
	"github.com/exodb/fieldrepl/internal/wal"
)

// sess is one statement's (or transaction's) execution context: it decides
// page-view isolation, trace binding, and where deferred index-maintenance
// errors accumulate. It implements core.Storage and core.Listener so
// replication propagation triggered by its statements flows through the same
// views. The statement bodies (insert, update, delete, query, updateWhere)
// are sess methods.
//
// There are two kinds. A write session holds the per-set locks of its
// footprint and an open buffer-pool scope: in-footprint files are capture
// views (pages join the scope before they are modified; commit publishes
// them, rollback restores them), everything else is a snapshot view
// (committed state; writes refuse). A read session has the empty
// readFootprint and holds no set locks: snapshot views everywhere, so readers
// never block on — or observe partial state from — writers, whether or not
// the database has a log.
//
// A schema operation runs in a write session too (see ddl.go), under the
// exclusive lock, with every file in its footprint and a chunk bound: its
// writes are committed whenever they fill that share of the pool, so a build
// larger than the pool goes through the same views, scope and log as a
// statement.
type sess struct {
	db  *DB
	tr  *obs.Trace
	mgr *core.Manager // manager view bound to this sess
	// fp is a write session's footprint; readFootprint for a read session.
	fp *footprint

	// txn is the enclosing transaction, nil for one-shot statements.
	txn *Txn
	// idxErr is a deferred index-maintenance error raised inside a listener
	// callback (which cannot return one); the statement surfaces it.
	idxErr error

	// chunk is a schema session's bound on captured pages (0 for a
	// statement, whose scope commits once). created lists the files it made
	// since its last commit, logged was the catalog at that commit, and lsn
	// is the LSN of its latest commit.
	chunk   int
	created []wal.FileCreate
	logged  []byte
	lsn     uint64
}

func (db *DB) newSess(tr *obs.Trace, fp *footprint) *sess {
	s := &sess{db: db, tr: tr, fp: fp}
	s.mgr = db.mgr.WithSession(s, s)
	return s
}

// readFootprint is every read session's footprint: no sets, no files. A
// session with any other footprint — however small — is a write session.
var readFootprint = &footprint{}

func (db *DB) readSess(tr *obs.Trace) *sess { return db.newSess(tr, readFootprint) }

func (s *sess) writes() bool { return s.fp != readFootprint }

func (s *sess) takeIdxErr() error {
	err := s.idxErr
	s.idxErr = nil
	return err
}

// --- page views ---

// lookupFile reads the file registry under fsMu, safe in shared-lock
// contexts where a concurrent session may be registering a scratch file.
func (db *DB) lookupFile(fid pagefile.FileID) (*heap.File, bool) {
	db.fsMu.Lock()
	f, ok := db.files[fid]
	db.fsMu.Unlock()
	return f, ok
}

func (db *DB) lookupTree(name string) (*btree.Tree, bool) {
	db.fsMu.Lock()
	t, ok := db.trees[name]
	db.fsMu.Unlock()
	return t, ok
}

// heapFor returns the heap file view for fid in this session's isolation: a
// capture view for in-footprint files, otherwise a snapshot view.
func (s *sess) heapFor(fid pagefile.FileID) (*heap.File, error) {
	f, ok := s.db.lookupFile(fid)
	if !ok {
		return nil, fmt.Errorf("engine: no heap file %d", fid)
	}
	if s.fp.files[fid] {
		return f.WithCapture(s.tr), nil
	}
	return f.WithSnapshot(s.tr), nil
}

// treeView returns the named index tree in this session's isolation, and
// whether the returned view is a snapshot (multi-page traversals over a
// snapshot must validate against the file's commit epoch; see
// indexedAccess).
func (s *sess) treeView(name string) (t *btree.Tree, snapshot bool, ok bool) {
	base, ok := s.db.lookupTree(name)
	if !ok {
		return nil, false, false
	}
	if s.fp.files[base.FileID()] {
		return base.WithCapture(s.tr), false, true
	}
	return base.WithSnapshot(s.tr), true, true
}

func (s *sess) treeFor(name string) (*btree.Tree, bool) {
	t, _, ok := s.treeView(name)
	return t, ok
}

func (s *sess) readObject(oid pagefile.OID, typ *schema.Type) (*schema.Object, error) {
	f, err := s.heapFor(oid.File)
	if err != nil {
		return nil, err
	}
	// Only the record copy runs under the page's lock; decoding, which
	// allocates the object and its strings, runs after it. (Scan workers
	// share the sess, so the copy gets its own buffer.)
	data, err := f.Read(oid)
	if err != nil {
		return nil, err
	}
	return schema.Decode(typ, data)
}

// inFootprint reports whether the session's locks cover set.
func (s *sess) inFootprint(set string) bool {
	for _, name := range s.fp.sets {
		if name == set {
			return true
		}
	}
	return false
}

// --- core.Storage ---
//
// Core calls ReadObject and WriteObject between two heap operations, with no
// page pinned: they are the safe points where a schema session may commit
// its chunk.

func (s *sess) ReadObject(oid pagefile.OID, typ *schema.Type) (*schema.Object, error) {
	if err := s.safePoint(); err != nil {
		return nil, err
	}
	return s.readObject(oid, typ)
}

func (s *sess) WriteObject(oid pagefile.OID, o *schema.Object) error {
	f, err := s.writeFile(oid)
	if err != nil {
		return err
	}
	return f.Update(oid, o.Encode())
}

func (s *sess) PatchObject(oid pagefile.OID, fn func(payload []byte) (bool, error)) error {
	f, err := s.writeFile(oid)
	if err != nil {
		return err
	}
	return f.Patch(oid, fn)
}

// writeFile is WriteObject's and PatchObject's safe point, and the capture
// view of oid's file once the footprint is found to cover it.
func (s *sess) writeFile(oid pagefile.OID) (*heap.File, error) {
	if err := s.safePoint(); err != nil {
		return nil, err
	}
	if !s.fp.files[oid.File] {
		// The footprint closure covers every file propagation writes;
		// reaching here means it did not (or a read session tried to write).
		// Refuse loudly rather than write outside the locks and the scope.
		return nil, fmt.Errorf("%w: write to file %d outside the statement's footprint %v", ErrWriteConflict, oid.File, s.fp.sets)
	}
	return s.heapFor(oid.File)
}

// LinkFile, GroupFile: link and S′ page files are created when their path is
// registered (Replicate), never inside a statement, so a footprint names every
// file its statement can touch.

func (s *sess) LinkFile(l *catalog.Link) (*heap.File, error) {
	if !l.HasFile {
		return nil, fmt.Errorf("engine: link %d has no page file (Repair creates it)", l.ID)
	}
	return s.heapFor(l.FileID)
}

func (s *sess) GroupFile(g *catalog.Group) (*heap.File, error) {
	if !g.HasFile {
		return nil, fmt.Errorf("engine: S′ group %d has no page file (Repair creates it)", g.ID)
	}
	return s.heapFor(g.FileID)
}

func (s *sess) SetFile(name string) (*heap.File, error) {
	set, ok := s.db.cat.SetByName(name)
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchSet, name)
	}
	return s.heapFor(set.FileID)
}

// --- core.Listener ---

// HiddenChanged keeps indexes on replicated paths exact as propagation
// rewrites hidden values. Tolerates a missing old entry (first installation)
// and an existing new entry (idempotent re-propagation); any other failure is
// surfaced by the statement through takeIdxErr. After a failure the tree is
// left alone — a failed split leaves a node over capacity, and the session
// rolls back anyway.
func (s *sess) HiddenChanged(source pagefile.OID, p *catalog.Path, f catalog.ReplField, old, new schema.Value) {
	if !s.writes() || s.idxErr != nil {
		return // read sessions never propagate
	}
	ix, ok := s.db.cat.PathIndexFor(p.Spec.Source, p.Spec.Refs, f.Name)
	if !ok {
		return
	}
	tree, ok := s.treeFor(ix.Name)
	if !ok {
		return
	}
	if err := tree.Delete(keyFor(old), source); err != nil && !errors.Is(err, btree.ErrNotFound) {
		s.idxErr = err
	}
	if err := tree.Insert(keyFor(new), source); err != nil && !errors.Is(err, btree.ErrExists) {
		s.idxErr = err
	}
}

// Watches: only a field with an index on its replicated path needs the old
// and new values.
func (s *sess) Watches(p *catalog.Path, f catalog.ReplField) bool {
	if !s.writes() {
		return false
	}
	_, ok := s.db.cat.PathIndexFor(p.Spec.Source, p.Spec.Refs, f.Name)
	return ok
}

// --- scratch output files ---

// newScratch creates a session-local query output file and registers it with
// the engine. Scratch files are never logged or shipped (followers fill the
// ID gap with placeholders) and lie outside every footprint, so an emitting
// query inside a transaction writes them directly, past the scope. Sessions
// share the registries, so the name is claimed and the file registered under
// fsMu (creation itself does page I/O and runs outside it).
func (s *sess) newScratch() (*heap.File, error) {
	db := s.db
	db.fsMu.Lock()
	db.nextOut++
	n := db.nextOut
	db.fsMu.Unlock()
	out, err := heap.Create(db.pool, fmt.Sprintf("__out_%d", n))
	if err != nil {
		return nil, err
	}
	fid := out.ID()
	db.fsMu.Lock()
	db.files[fid] = out
	db.fsMu.Unlock()
	if t := s.txn; t != nil {
		// A rolled-back transaction forgets its output files.
		t.undo = append(t.undo, func() {
			db.fsMu.Lock()
			delete(db.files, fid)
			db.fsMu.Unlock()
		})
	}
	return out.WithTrace(s.tr), nil
}

// --- commit and rollback ---

// commit publishes a write session's scope. On a logged database the scope's
// dirty pages — each frame beside its statement-begin image — are handed to
// the log, which appends them as one WAL commit (a delta where it can, a full
// image where it must) and LSN-stamps the frames; EndScope then releases them
// to readers — the per-page-atomic visibility point. Returns the commit LSN
// for waitDurable (0 when nothing was logged). If the log append fails the
// scope is rolled back. Called with the session's locks held.
func (s *sess) commit() (uint64, error) {
	lsn, err := s.logScope(nil)
	if err != nil {
		return 0, errors.Join(err, s.rollback())
	}
	s.db.pool.EndScope(s.fp.files)
	return lsn, nil
}

// logScope appends the scope's dirty pages to the log as one transaction,
// with the files the session created and cat when there are any, and returns
// its commit LSN: 0 when there is no log or nothing to log.
func (s *sess) logScope(cat []byte) (uint64, error) {
	db := s.db
	if db.wal == nil {
		return 0, nil
	}
	dirty, err := db.pool.ScopeDirty(s.fp.files)
	if err != nil {
		return 0, fmt.Errorf("engine: commit: %w", err)
	}
	if len(dirty) == 0 && len(s.created) == 0 && cat == nil {
		return 0, nil
	}
	pages := make([]wal.PageRef, len(dirty))
	for i, pg := range dirty {
		pages[i] = wal.PageRef{PID: pg.PID, Pre: pg.Pre, Post: pg.Post}
	}
	lsn, nbytes, err := db.wal.AppendPages(s.created, pages, cat)
	if err != nil {
		return 0, err
	}
	s.tr.WAL(int64(len(pages))+1, int64(nbytes))
	return lsn, nil
}

// rollback restores the scope's pages to their statement-begin images and
// closes the scope. Nothing the statement did was ever written to the data
// files (no-steal), so rollback involves no I/O; catalog state needs no
// unwinding because statements never mutate it.
func (s *sess) rollback() error {
	return s.db.pool.RollbackScope(s.fp.files)
}

// --- the statement runner ---

// openWrite locks the footprint of a statement (or transaction) writing the
// target sets — nil means every set — and opens its pool scope. db.mu is held
// shared: writers coordinate through setLocks and pool scopes, and readers see
// snapshots. The caller runs statements through the returned session, ends
// with commit or rollback, and then calls release.
func (db *DB) openWrite(ctx context.Context, tr *obs.Trace, targets []string) (s *sess, release func(), err error) {
	db.mu.RLock()
	if targets == nil {
		for _, set := range db.cat.Sets() {
			targets = append(targets, set.Name)
		}
	}
	for _, name := range targets {
		if _, ok := db.cat.SetByName(name); !ok {
			db.mu.RUnlock()
			return nil, nil, fmt.Errorf("%w: %s", ErrNoSuchSet, name)
		}
	}
	fp := db.computeFootprint(targets...)
	if err := db.setLocks.acquire(ctx, fp.sets, tr); err != nil {
		db.mu.RUnlock()
		return nil, nil, err
	}
	db.pool.BeginScope()
	return db.newSess(tr, &fp), func() {
		db.setLocks.release(fp.sets)
		db.mu.RUnlock()
	}, nil
}

// writeShot runs fn as one atomic write statement against the sets in
// targets, under the per-set locks of the statement's footprint, capturing
// its page writes in a pool scope that commits (through the WAL when there is
// one) or rolls back physically. Writers to disjoint footprints proceed
// concurrently end to end (their WAL appends group-commit onto shared
// fsyncs); writers to overlapping footprints serialize on the first shared
// set lock. Returns the commit LSN the caller passes to waitDurable.
func (db *DB) writeShot(ctx context.Context, tr *obs.Trace, targets []string, fn func(*sess) error) (uint64, error) {
	s, release, err := db.openWrite(ctx, tr, targets)
	if err != nil {
		return 0, err
	}
	defer release()
	if err := fn(s); err != nil {
		if rerr := s.rollback(); rerr != nil {
			err = errors.Join(err, rerr)
		}
		return 0, err
	}
	return s.commit()
}
