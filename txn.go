package fieldrepl

import (
	"context"

	"github.com/exodb/fieldrepl/internal/engine"
)

// Txn is a multi-statement transaction created by DB.Begin. Its statements
// see each other's uncommitted effects and commit or roll back as one unit:
// every modification — including all replication propagation and index
// maintenance the statements trigger — is applied atomically by Commit or
// discarded by Rollback. For file-backed databases Commit is durable through
// the write-ahead log (group commit batches concurrent committers into one
// fsync); a crash after Commit returns never loses the transaction, and a
// crash before it never exposes any part of it.
//
// A transaction holds the per-set locks of its declared write footprint
// from Begin to Commit/Rollback: a BeginSets transaction those of the sets it
// names (plus everything their replication paths reach), a Begin transaction
// those of every set. Transactions over disjoint sets run and commit
// concurrently, and readers see the pre-transaction state without waiting,
// in memory and on disk alike. A transaction's modified pages stay in the
// buffer pool until it ends, so they must fit it. Use it from a single
// goroutine, and do not call the DB's own write methods while a
// transaction is open — they can deadlock behind its locks. A failed mutating
// statement aborts the transaction (it is rolled back automatically and every
// later call returns ErrTxnDone); read-only statements fail without aborting.
type Txn struct {
	t *engine.Txn
}

// Begin starts a transaction that may write every set. ctx governs the whole
// transaction: if it is cancelled, the next statement aborts with the
// context's error. A nil ctx means no cancellation. Begin blocks until every
// set's write lock is available.
func (db *DB) Begin(ctx context.Context) (*Txn, error) {
	t, err := db.e.Begin(ctx)
	if err != nil {
		return nil, err
	}
	return &Txn{t: t}, nil
}

// BeginSets starts a transaction confined to the given sets: only their
// per-set locks (plus those of every set reachable through replicated fields
// and inverse links — the write footprint's closure) are held, and
// transactions over disjoint footprints proceed fully in parallel. Mutating a
// set outside the footprint fails with ErrWriteConflict and aborts; queries
// may read any set, seeing committed snapshots outside the footprint.
func (db *DB) BeginSets(ctx context.Context, sets ...string) (*Txn, error) {
	t, err := db.e.BeginSets(ctx, sets...)
	if err != nil {
		return nil, err
	}
	return &Txn{t: t}, nil
}

// Insert stores a new object in a set, returning its OID. On error the
// transaction is rolled back.
func (t *Txn) Insert(set string, vals V) (OID, error) {
	oid, err := t.t.Insert(set, toEngineValues(vals))
	return OID{inner: oid}, err
}

// Get reads an object's visible fields. Errors do not abort the transaction.
func (t *Txn) Get(set string, oid OID) (Record, error) {
	obj, err := t.t.Get(set, oid.inner)
	if err != nil {
		return Record{}, err
	}
	rec := Record{OID: oid, Fields: make(map[string]Value, len(obj.Values))}
	for i, f := range obj.Type.Fields {
		rec.Fields[f.Name] = Value{inner: obj.Values[i]}
	}
	return rec, nil
}

// Update assigns fields of the object at oid, propagating every replication
// structure and index. On error the transaction is rolled back.
func (t *Txn) Update(set string, oid OID, vals V) error {
	return t.t.Update(set, oid.inner, toEngineValues(vals))
}

// Delete removes the object at oid. Any error — including the clean
// ErrStillReferenced refusal — rolls the transaction back.
func (t *Txn) Delete(set string, oid OID) error {
	return t.t.Delete(set, oid.inner)
}

// Count returns the number of objects in a set, seeing the transaction's
// uncommitted inserts and deletes.
func (t *Txn) Count(set string) (int, error) { return t.t.Count(set) }

// Query executes a retrieve inside the transaction, seeing its uncommitted
// writes. A purely reading query fails without aborting; one that mutates
// (EmitOutput, or draining deferred propagation) aborts the transaction on
// error.
func (t *Txn) Query(q Query) (*Result, error) {
	eq, err := toEngineQuery(q)
	if err != nil {
		return nil, err
	}
	res, err := t.t.Query(eq)
	if err != nil {
		return nil, err
	}
	return fromEngineResult(res), nil
}

// UpdateWhere applies vals to every object of set matching where, returning
// the number updated. On error the transaction is rolled back.
func (t *Txn) UpdateWhere(set string, where Pred, vals V) (int, error) {
	ep, err := toEnginePred(&where)
	if err != nil {
		return 0, err
	}
	return t.t.UpdateWhere(set, *ep, toEngineValues(vals))
}

// Commit atomically applies and (for file-backed databases) makes durable
// everything the transaction did. After Commit returns nil, a crash loses
// nothing of the transaction.
func (t *Txn) Commit() error { return t.t.Commit() }

// Rollback discards everything the transaction did. Rolling back a finished
// transaction returns ErrTxnDone.
func (t *Txn) Rollback() error { return t.t.Rollback() }
