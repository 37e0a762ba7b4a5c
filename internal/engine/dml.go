package engine

import (
	"context"
	"fmt"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// DML operations are atomic on every database. Each one-shot call runs as an
// implicit transaction under the per-set locks of its write footprint: its
// modifications — the statement's own and all the replication propagation
// and index maintenance it triggers — are captured in a buffer-pool scope,
// published on success and rolled back physically on failure, so no failure
// leaves half-applied state and no DML ever needs Repair. On a logged
// (file-backed) database the commit is appended to the WAL and
// group-committed, and writers to disjoint footprints proceed concurrently;
// an in-memory database publishes the scope with no log and its writers
// serialize behind the exclusive lock. A statement's dirty working set must
// fit the buffer pool (no-steal): a statement that outgrows it fails with
// buffer.ErrPoolExhausted and rolls back.

// Insert stores a new object in a set and returns its OID. Replicated
// hidden fields, inverted-path structures, S′ registration, and indexes are
// maintained. The insert is durable when Insert returns.
func (db *DB) Insert(set string, vals map[string]schema.Value) (pagefile.OID, error) {
	return db.InsertCtx(nil, set, vals)
}

// InsertCtx is Insert under a context: a cancellation while the statement
// waits for its per-set locks aborts it with an ErrWriteConflict-wrapped
// ctx error, and the trace is attributed to the context's session origin. A
// nil ctx behaves like Insert.
func (db *DB) InsertCtx(ctx context.Context, set string, vals map[string]schema.Value) (pagefile.OID, error) {
	if err := db.writable(); err != nil {
		return pagefile.OID{}, err
	}
	tr := db.obs.Start(obs.KindDML, set, "insert")
	tr.SetOrigin(obs.OriginFrom(ctx))
	var oid pagefile.OID
	lsn, err := db.writeShot(ctx, tr, []string{set}, func(s *sess) (ierr error) {
		oid, ierr = s.insert(set, vals)
		return ierr
	})
	if err == nil {
		err = db.waitDurable(lsn, tr)
	}
	db.obs.Finish(tr)
	if err != nil {
		return pagefile.OID{}, err
	}
	return oid, nil
}

func (s *sess) insert(set string, vals map[string]schema.Value) (pagefile.OID, error) {
	c, ok := s.db.cat.SetByName(set)
	if !ok {
		return pagefile.OID{}, fmt.Errorf("%w: %s", ErrNoSuchSet, set)
	}
	typ, err := s.db.cat.SetType(set)
	if err != nil {
		return pagefile.OID{}, err
	}
	obj := schema.NewObject(typ)
	for k, v := range vals {
		if err := obj.Set(k, v); err != nil {
			return pagefile.OID{}, err
		}
	}
	file, err := s.heapFor(c.FileID)
	if err != nil {
		return pagefile.OID{}, err
	}
	oid, err := file.Insert(obj.Encode())
	if err != nil {
		return pagefile.OID{}, err
	}
	if err := s.mgr.OnInsert(c, oid, obj); err != nil {
		return pagefile.OID{}, err
	}
	if err := s.maintainBaseIndexes(set, oid, nil, obj); err != nil {
		return pagefile.OID{}, err
	}
	if err := s.takeIdxErr(); err != nil {
		return pagefile.OID{}, err
	}
	return oid, nil
}

// Get reads an object. On a logged database the read is a page-level
// snapshot that never blocks on concurrent writers.
func (db *DB) Get(set string, oid pagefile.OID) (*schema.Object, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	typ, err := db.cat.SetType(set)
	if err != nil {
		return nil, err
	}
	return db.readSess(nil).readObject(oid, typ)
}

// Update applies field changes to the object at oid, propagating through
// every replication structure and index. The update is durable when Update
// returns.
func (db *DB) Update(set string, oid pagefile.OID, vals map[string]schema.Value) error {
	return db.UpdateCtx(nil, set, oid, vals)
}

// UpdateCtx is Update under a context: a cancellation while the statement
// waits for its per-set locks aborts it, and the trace is attributed to the
// context's session origin. A nil ctx behaves like Update.
func (db *DB) UpdateCtx(ctx context.Context, set string, oid pagefile.OID, vals map[string]schema.Value) error {
	if err := db.writable(); err != nil {
		return err
	}
	tr := db.obs.Start(obs.KindDML, set, "update")
	tr.SetOrigin(obs.OriginFrom(ctx))
	lsn, err := db.writeShot(ctx, tr, []string{set}, func(s *sess) error {
		// Advisor metadata: the fields written and the replication paths the
		// update propagates into. Stamped inside the closure (it needs the
		// session's catalog view).
		if typ, terr := s.db.cat.SetType(set); terr == nil {
			s.stampUpdateMeta(typ, vals)
		}
		s.tr.SetRows(1)
		return s.update(set, oid, vals)
	})
	if err == nil {
		err = db.waitDurable(lsn, tr)
	}
	db.obs.Finish(tr)
	return err
}

func (s *sess) update(set string, oid pagefile.OID, vals map[string]schema.Value) error {
	c, ok := s.db.cat.SetByName(set)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchSet, set)
	}
	typ, err := s.db.cat.SetType(set)
	if err != nil {
		return err
	}
	old, err := s.readObject(oid, typ)
	if err != nil {
		return err
	}
	next := old.Clone()
	for k, v := range vals {
		if err := next.Set(k, v); err != nil {
			return err
		}
	}
	if err := s.WriteObject(oid, next); err != nil {
		return err
	}
	if err := s.mgr.OnUpdate(c, oid, old, next); err != nil {
		return err
	}
	if err := s.maintainBaseIndexes(set, oid, old, next); err != nil {
		return err
	}
	return s.takeIdxErr()
}

// Delete removes an object. Objects still referenced through a replication
// path are refused (core.ErrStillReferenced). The delete is durable when
// Delete returns.
func (db *DB) Delete(set string, oid pagefile.OID) error {
	return db.DeleteCtx(nil, set, oid)
}

// DeleteCtx is Delete under a context: a cancellation while the statement
// waits for its per-set locks aborts it, and the trace is attributed to the
// context's session origin. A nil ctx behaves like Delete.
func (db *DB) DeleteCtx(ctx context.Context, set string, oid pagefile.OID) error {
	if err := db.writable(); err != nil {
		return err
	}
	tr := db.obs.Start(obs.KindDML, set, "delete")
	tr.SetOrigin(obs.OriginFrom(ctx))
	lsn, err := db.writeShot(ctx, tr, []string{set}, func(s *sess) error {
		return s.delete(set, oid)
	})
	if err == nil {
		err = db.waitDurable(lsn, tr)
	}
	db.obs.Finish(tr)
	return err
}

func (s *sess) delete(set string, oid pagefile.OID) error {
	c, ok := s.db.cat.SetByName(set)
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchSet, set)
	}
	typ, err := s.db.cat.SetType(set)
	if err != nil {
		return err
	}
	obj, err := s.readObject(oid, typ)
	if err != nil {
		return err
	}
	if err := s.mgr.OnDelete(c, oid, obj); err != nil {
		return err
	}
	s.removePathIndexZeroEntries(set, oid)
	if err := s.maintainBaseIndexes(set, oid, obj, nil); err != nil {
		return err
	}
	file, err := s.heapFor(c.FileID)
	if err != nil {
		return err
	}
	if err := file.Delete(oid); err != nil {
		return err
	}
	return s.takeIdxErr()
}

// Count returns the number of objects in a set. On a logged database the
// scan reads page-level snapshots and never blocks on concurrent writers.
func (db *DB) Count(set string) (int, error) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	f, err := db.readSess(nil).SetFile(set)
	if err != nil {
		return 0, err
	}
	return f.Count()
}
