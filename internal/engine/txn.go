package engine

import (
	"context"
	"errors"
	"fmt"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// ErrTxnDone is returned by statements on a transaction that has already
// committed, rolled back, or aborted.
var ErrTxnDone = errors.New("engine: transaction has already been committed or rolled back")

// Txn is a multi-statement transaction: a write session kept open across
// statements. It holds the per-set locks of its footprint's closure (the
// declared sets plus everything their replicated fields and inverse links
// reach) and one buffer-pool scope from Begin to Commit or Rollback. All
// modifications — the statements' own writes and every replication
// propagation and index update they trigger — stay in that scope (no-steal:
// nothing reaches the data files while the transaction runs, so its dirty
// working set must fit the pool) and are either published atomically by
// Commit, through the WAL when the database has one, or restored in memory
// by Rollback.
//
// DB.BeginSets declares the footprint; DB.Begin declares every set.
// Transactions over disjoint footprints run and commit concurrently, and
// readers see the pre-transaction state without waiting.
// Mutating statements are confined to the declared sets (a statement outside
// them fails with ErrWriteConflict and aborts); queries may touch any set,
// reading committed snapshots outside the footprint.
//
// A failed mutating statement aborts the whole transaction: propagation may
// have applied partway, so the only consistent outcome is a full rollback.
// The statement's error is returned and every later call returns ErrTxnDone.
// Read-only statements (Get, Count, a pure Query) fail without aborting. A
// transaction must be used from a single goroutine, and the goroutine must
// not call the DB's one-shot operations while the transaction is open (they
// deadlock behind its locks whenever the footprints overlap).
type Txn struct {
	db   *DB
	ctx  context.Context
	tr   *obs.Trace
	s    *sess
	done bool

	// release drops the set locks and db.mu once the scope has been
	// committed or rolled back.
	release func()
	// undo unwinds in-memory registrations (query scratch files) on
	// rollback, in reverse order. Page state needs no undo entries: the pool
	// scope restores it wholesale.
	undo []func()
}

// Begin starts a transaction that may write every set. ctx, when non-nil, is
// checked at every statement and during scans: cancellation aborts the
// transaction. Begin blocks until every set's lock is available; the locks
// are held until Commit or Rollback.
func (db *DB) Begin(ctx context.Context) (*Txn, error) {
	return db.begin(ctx, "txn", nil)
}

// BeginSets starts a transaction whose mutating statements are confined to
// the given sets. The per-set locks of the footprint closure are held until
// Commit or Rollback; a concurrent transaction or statement with a disjoint
// footprint is never blocked. Mutations outside the
// declared sets fail with ErrWriteConflict and abort.
func (db *DB) BeginSets(ctx context.Context, sets ...string) (*Txn, error) {
	if len(sets) == 0 {
		return nil, fmt.Errorf("engine: BeginSets requires at least one set")
	}
	return db.begin(ctx, "txn-sets", sets)
}

// begin opens a transaction over the target sets (nil: every set).
func (db *DB) begin(ctx context.Context, detail string, targets []string) (*Txn, error) {
	if err := db.writable(); err != nil {
		return nil, err
	}
	tr := db.obs.Start(obs.KindTxn, "", detail)
	s, release, err := db.openWrite(ctx, tr, targets)
	if err != nil {
		db.obs.Finish(tr)
		return nil, err
	}
	t := &Txn{db: db, ctx: ctx, tr: tr, s: s, release: release}
	s.txn = t
	return t, nil
}

// check gates every statement: a finished transaction returns ErrTxnDone,
// and a cancelled context aborts the transaction.
func (t *Txn) check() error {
	if t.done {
		return ErrTxnDone
	}
	if t.ctx != nil {
		if err := t.ctx.Err(); err != nil {
			t.abort()
			return err
		}
	}
	return nil
}

// checkTarget confines the transaction's mutations to its declared sets. A
// violation aborts: the caller declared the wrong footprint and must restart
// with the right one. (A set that does not exist passes, so the statement
// itself reports ErrNoSuchSet.)
func (t *Txn) checkTarget(set string) error {
	if _, ok := t.db.cat.SetByName(set); !ok || t.s.inFootprint(set) {
		return nil
	}
	err := fmt.Errorf("%w: set %q is outside the transaction's declared footprint %v", ErrWriteConflict, set, t.s.fp.sets)
	t.abort()
	return err
}

// abort rolls the transaction back after a failed mutating statement and
// releases its locks.
func (t *Txn) abort() {
	t.rollback()
	t.finish()
}

// rollback restores the scope's pages and unwinds the transaction's
// registrations.
func (t *Txn) rollback() error {
	err := t.s.rollback()
	t.unwind()
	return err
}

// unwind drops the transaction's in-memory registrations (scratch files), in
// reverse order.
func (t *Txn) unwind() {
	for i := len(t.undo) - 1; i >= 0; i-- {
		t.undo[i]()
	}
	t.undo = nil
}

// finish releases the locks and closes the trace. Commit releases first and
// finishes the trace only after the durability wait, so the transaction's
// record includes its log wait.
func (t *Txn) finish() {
	t.done = true
	t.release()
	t.db.obs.Finish(t.tr)
}

// Insert stores a new object in a set (see DB.Insert). On error the
// transaction is rolled back.
func (t *Txn) Insert(set string, vals map[string]schema.Value) (pagefile.OID, error) {
	if err := t.check(); err != nil {
		return pagefile.OID{}, err
	}
	if err := t.checkTarget(set); err != nil {
		return pagefile.OID{}, err
	}
	oid, err := t.s.insert(set, vals)
	if err != nil {
		t.abort()
		return pagefile.OID{}, err
	}
	return oid, nil
}

// Update applies field changes to the object at oid (see DB.Update). On
// error the transaction is rolled back.
func (t *Txn) Update(set string, oid pagefile.OID, vals map[string]schema.Value) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.checkTarget(set); err != nil {
		return err
	}
	if err := t.s.update(set, oid, vals); err != nil {
		t.abort()
		return err
	}
	return nil
}

// Delete removes an object (see DB.Delete). A clean refusal
// (core.ErrStillReferenced) aborts like any other statement error: the
// caller cannot tell refusals and partial failures apart without inspecting
// errors, and a aborted-on-refusal transaction is always consistent.
func (t *Txn) Delete(set string, oid pagefile.OID) error {
	if err := t.check(); err != nil {
		return err
	}
	if err := t.checkTarget(set); err != nil {
		return err
	}
	if err := t.s.delete(set, oid); err != nil {
		t.abort()
		return err
	}
	return nil
}

// Get reads an object. Errors do not abort the transaction. The transaction
// sees its own uncommitted writes inside the footprint and committed
// snapshots outside it.
func (t *Txn) Get(set string, oid pagefile.OID) (*schema.Object, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	typ, err := t.db.cat.SetType(set)
	if err != nil {
		return nil, err
	}
	return t.s.readObject(oid, typ)
}

// Count returns the number of objects in a set. Errors do not abort the
// transaction.
func (t *Txn) Count(set string) (int, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	f, err := t.s.SetFile(set)
	if err != nil {
		return 0, err
	}
	return f.Count()
}

// Query executes a retrieve inside the transaction, seeing its uncommitted
// writes. A query that only reads fails without aborting; one that mutates —
// emitting an output file or draining deferred propagation — aborts the
// transaction on error, because the mutation may have applied partway.
//
// A query on an in-footprint set drains that set's pending deferred
// propagation like any write path would; a query whose set lies outside the
// footprint cannot drain (the propagation would write unlocked files) and
// fails with ErrWriteConflict when a drain is pending. So does an index walk
// outside the footprint that concurrent commits keep tearing: the
// transaction cannot wait on a lock outside its sorted footprint.
func (t *Txn) Query(q Query) (*Result, error) {
	if err := t.check(); err != nil {
		return nil, err
	}
	prog, err := t.db.compileQuery(q, !q.NoFuse)
	if err != nil {
		return nil, err
	}
	drain := t.s.inFootprint(q.Set)
	pending := len(t.db.pendingDeferred(prog)) > 0
	if !drain && pending {
		err := fmt.Errorf("%w: query on %q must drain deferred propagation outside the transaction's footprint %v", ErrWriteConflict, q.Set, t.s.fp.sets)
		t.abort()
		return nil, err
	}
	res, err := t.s.query(t.ctx, q, prog, drain)
	if err != nil && (q.EmitOutput || pending || errors.Is(err, ErrWriteConflict)) {
		t.abort()
	}
	return res, err
}

// UpdateWhere applies vals to every object of set matching where (see
// DB.UpdateWhere). On error the transaction is rolled back.
func (t *Txn) UpdateWhere(set string, where Pred, vals map[string]schema.Value) (int, error) {
	return t.ReplaceWhere(Query{Set: set, Where: &where}, vals)
}

// ReplaceWhere applies vals to every object of q.Set matching q.Where and
// q.Filters (see DB.ReplaceWhere). On error the transaction is rolled back.
func (t *Txn) ReplaceWhere(q Query, vals map[string]schema.Value) (int, error) {
	return t.mutateWhere(q.Set, func() (int, error) { return t.s.updateWhere(t.ctx, q, vals) })
}

// DeleteWhere deletes every object of q.Set matching q.Where and q.Filters
// (see DB.DeleteWhere). On error the transaction is rolled back.
func (t *Txn) DeleteWhere(q Query) (int, error) {
	return t.mutateWhere(q.Set, func() (int, error) { return t.s.deleteWhere(t.ctx, q) })
}

func (t *Txn) mutateWhere(set string, fn func() (int, error)) (int, error) {
	if err := t.check(); err != nil {
		return 0, err
	}
	if err := t.checkTarget(set); err != nil {
		return 0, err
	}
	n, err := fn()
	if err != nil {
		t.abort()
		return 0, err
	}
	return n, nil
}

// Commit makes the transaction's effects atomic and, on a logged database,
// durable: every dirty page is logged with a commit record, the scope is
// published to readers, the log is forced (group commit batches concurrent
// committers into one fsync), and only then do the pages become eligible for
// write-back. On a database without a log (in-memory) Commit just publishes
// the scope. If the log append fails, the transaction is rolled back and the
// append error returned.
func (t *Txn) Commit() error {
	if t.done {
		return ErrTxnDone
	}
	lsn, err := t.s.commit()
	if err != nil {
		// commit already rolled the pages back; unwind the registrations too.
		t.unwind()
	}
	t.done = true
	t.release()
	// The durability wait happens after the locks are released, so
	// concurrent committers can append and pile onto one fsync.
	if err == nil {
		err = t.db.waitDurable(lsn, t.tr)
	}
	t.db.obs.Finish(t.tr)
	return err
}

// Rollback discards every modification the transaction made: the scope's
// pages are restored in memory to their transaction-begin images and scratch
// registrations are unwound. Nothing the transaction did was ever written to
// the data files (no-steal), so rollback involves no I/O.
func (t *Txn) Rollback() error {
	if t.done {
		return ErrTxnDone
	}
	err := t.rollback()
	t.finish()
	return err
}
