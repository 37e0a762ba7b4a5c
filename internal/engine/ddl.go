package engine

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"strings"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
	"github.com/exodb/fieldrepl/internal/wal"
)

// Schema operations — DefineType, CreateSet, Replicate, Unreplicate,
// BuildIndex, DropIndex, and Repair, FlushReplication and VerifyReplication,
// which rewrite derived state — each run under the exclusive lock as one
// write session over every file, committed in chunks of half the pool (see
// DESIGN §4d). A new path is committed as building first and flipped live by
// the last commit; an index's catalog entry commits last. What a failure or a
// crash leaves building is torn down, so a schema operation takes effect at
// its last commit, durable when it returns, or not at all.

// ddl runs fn as a schema operation of the public API: refused on a
// follower, under the exclusive lock.
func (db *DB) ddl(fn func(s *sess) error) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.schemaOp(fn)
}

// schemaOp runs fn as a schema operation, tearing down what is building
// before it and after it: the path of a failed operation (its compensation)
// or the placeholder of an S′ group a Replicate widened. A teardown that fails
// after the operation succeeded is left to the next one or Open. Caller holds
// db.mu.Lock.
func (db *DB) schemaOp(fn func(s *sess) error) error {
	if err := db.settle(); err != nil {
		return err
	}
	err := db.inSchemaSess(fn)
	if serr := db.settle(); serr != nil && err != nil {
		err = errors.Join(err, serr)
	}
	return err
}

// inSchemaSess runs fn in a fresh schema session and commits its last chunk,
// waiting until it is durable. If fn or that commit fails, the open chunk is
// rolled back and the catalog is put back to what the log last committed.
func (db *DB) inSchemaSess(fn func(s *sess) error) error {
	s, err := db.schemaSess()
	if err != nil {
		return err
	}
	if err = fn(s); err == nil {
		err = s.commitChunk()
	}
	if err != nil {
		return errors.Join(err, s.abandon())
	}
	db.pool.EndScope(s.fp.files) // the empty scope the last commit opened
	return db.waitDurable(s.lsn, nil)
}

// schemaSess opens a schema session: every file in its footprint, a pool
// scope, and a chunk bound of half the pool — the other half serves the
// reads and pins of the operation in flight, so the scope never exhausts the
// pool the way an oversized statement does.
func (db *DB) schemaSess() (*sess, error) {
	logged, err := db.cat.Snapshot()
	if err != nil {
		return nil, err
	}
	fp := &footprint{files: map[pagefile.FileID]bool{}}
	for fid := range db.files {
		fp.files[fid] = true
	}
	for _, t := range db.trees {
		fp.files[t.FileID()] = true
	}
	s := db.newSess(nil, fp)
	s.chunk = max(1, db.pool.Size()/2)
	s.logged = logged
	db.pool.BeginScope()
	return s, nil
}

// safePoint is called between heap operations, with no page pinned. There a
// schema session whose captured pages fill its chunk commits them.
func (s *sess) safePoint() error {
	if s.chunk == 0 || s.db.pool.Captured() < s.chunk {
		return nil
	}
	return s.commitChunk()
}

// commitChunk commits what the session did since its last commit — the files
// it created, its dirty pages, and the catalog if it changed — and opens the
// next chunk's scope. On failure the scope stays open for abandon. A failed
// index update fails it: the tree may be left unfit to commit.
func (s *sess) commitChunk() error {
	if s.idxErr != nil {
		return s.idxErr
	}
	cat, err := s.db.cat.Snapshot()
	if err != nil {
		return err
	}
	if bytes.Equal(cat, s.logged) {
		cat = nil
	}
	lsn, err := s.logScope(cat)
	if err != nil {
		return err
	}
	s.db.pool.EndScope(s.fp.files)
	s.db.pool.BeginScope()
	s.lsn = max(s.lsn, lsn)
	s.created = nil
	if cat != nil {
		s.logged = cat
	}
	return nil
}

// abandon rolls back the session's open chunk and puts the catalog back to
// its last committed state, with the file and index handles to match. Files
// the chunk created stay behind, unreferenced.
func (s *sess) abandon() error {
	db := s.db
	err := s.rollback()
	c, rerr := catalog.Restore(s.logged)
	if rerr != nil {
		return errors.Join(err, rerr)
	}
	*db.cat = *c
	for name := range db.trees {
		if _, ok := c.IndexByName(name); !ok {
			delete(db.trees, name)
		}
	}
	return errors.Join(err, db.rehydrate())
}

// settle finishes what the catalog leaves unfinished: it tears down every
// path left building — by a schema operation that failed or crashed before
// its flip, by Unreplicate, or as the placeholder of a widened S′ group — and
// unregisters it, then resumes a Repair a failure or a crash cut short (or
// the one a catalog with legacy taint markers asks for). A follower leaves
// both to its primary, whose work reaches it through the log. Caller holds
// db.mu.Lock.
func (db *DB) settle() error {
	if db.role.Load() == roleFollower {
		return nil
	}
	if len(db.cat.Building()) > 0 {
		if err := db.inSchemaSess(func(s *sess) error { return s.dropBuilding() }); err != nil {
			return err
		}
	}
	if !db.cat.NeedsRederive() {
		return nil
	}
	err := db.inSchemaSess(func(s *sess) error {
		_, err := s.repair()
		return err
	})
	if err != nil {
		return fmt.Errorf("%w: %w", errUnfinishedRepair, err)
	}
	return nil
}

// errUnfinishedRepair wraps settle's failure to resume a Repair.
var errUnfinishedRepair = errors.New("engine: resuming an unfinished Repair")

// settleToServe is settle for Open and Promote: a Repair that cannot finish —
// on a damaged page of a set's own file, say — does not stop the database
// from serving. Until one finishes, reads walk the primary objects, and
// Repair and every other schema operation retry it and return its error.
func (db *DB) settleToServe() error {
	if err := db.settle(); !errors.Is(err, errUnfinishedRepair) {
		return err
	}
	return nil
}

// dropBuilding tears down every building path, committing each one's removal
// from the catalog with the last pages of its teardown.
func (s *sess) dropBuilding() error {
	for _, p := range s.db.cat.Building() {
		if err := s.mgr.TeardownPath(p); err != nil {
			return err
		}
		if err := s.db.cat.RemovePath(p); err != nil {
			return err
		}
		if err := s.commitChunk(); err != nil {
			return err
		}
	}
	return nil
}

// addFile enters a file the session created in its footprint and in the file
// creations its next commit logs.
func (s *sess) addFile(fid pagefile.FileID, name string) {
	s.fp.files[fid] = true
	s.created = append(s.created, wal.FileCreate{FID: fid, Name: name})
}

// createHeap creates and registers a heap file for a schema session.
func (s *sess) createHeap(name string) (*heap.File, error) {
	f, err := heap.Create(s.db.pool, name)
	if err != nil {
		return nil, err
	}
	s.db.files[f.ID()] = f
	s.addFile(f.ID(), name)
	return f, nil
}

// ensurePathFiles creates the link and S′ page files of p that do not exist
// yet, so every file a statement's propagation can touch exists — and is named
// by its footprint — before the path goes live.
func (s *sess) ensurePathFiles(p *catalog.Path) error {
	for _, l := range pathLinks(p) {
		if !l.HasFile {
			f, err := s.createHeap(fmt.Sprintf("__link_%d", l.ID))
			if err != nil {
				return err
			}
			l.FileID, l.HasFile = f.ID(), true
		}
	}
	if g := p.Group; g != nil && !g.HasFile {
		f, err := s.createHeap(fmt.Sprintf("__sprime_%d", g.ID))
		if err != nil {
			return err
		}
		g.FileID, g.HasFile = f.ID(), true
	}
	return nil
}

// --- the operations ---

// DefineType registers a type (EXTRA "define type").
func (db *DB) DefineType(name string, fields []schema.Field) error {
	return db.ddl(func(*sess) error {
		_, err := db.cat.DefineType(name, fields)
		return err
	})
}

// CreateSet creates a named top-level set stored as its own disk file
// (EXTRA "create").
func (db *DB) CreateSet(name, typeName string) error {
	return db.ddl(func(s *sess) error {
		f, err := s.createHeap(name)
		if err != nil {
			return err
		}
		_, err = db.cat.CreateSet(name, typeName, f.ID())
		return err
	})
}

// Replicate registers a replication path given in the paper's dotted syntax
// ("Emp1.dept.name", "Emp1.dept.org.name", "Emp1.dept.all"), creates its link
// and S′ page files, and builds its replicated state over existing data. The
// path is committed as building with its files, so its IDs are reserved from
// then on, and goes live with the last commit.
func (db *DB) Replicate(path string, strategy catalog.Strategy, opts ...catalog.PathOption) error {
	return db.ddl(func(s *sess) error {
		spec, err := catalog.ParsePathSpec(path)
		if err != nil {
			return err
		}
		p, err := db.cat.AddPath(spec, strategy, opts...)
		if err != nil {
			return err
		}
		if err := s.ensurePathFiles(p); err != nil {
			return err
		}
		if err := s.commitChunk(); err != nil {
			return err
		}
		if err := s.mgr.BuildPath(p); err != nil {
			return err
		}
		return db.cat.Publish(p)
	})
}

// Unreplicate removes a replication path: hidden values, link structures not
// shared with other paths, and (for the last path of an S′ group) the S′
// registrations are torn down, and the catalog entry is dropped. Fails if an
// index is built on the path's replicated values; drop the index first. The
// first commit retires the path; from there the removal completes, if not in
// this call then at the next schema operation or Open.
func (db *DB) Unreplicate(path string, strategy catalog.Strategy) error {
	return db.ddl(func(s *sess) error {
		spec, err := catalog.ParsePathSpec(path)
		if err != nil {
			return err
		}
		p, ok := db.cat.FindPath(spec, strategy)
		if !ok {
			return fmt.Errorf("engine: no %s replication path %s", strategy, spec)
		}
		for _, f := range p.Fields {
			if ix, ok := db.cat.PathIndexFor(p.Spec.Source, p.Spec.Refs, f.Name); ok {
				return fmt.Errorf("%w: index %s on %s", core.ErrPathInUse, ix.Name, spec)
			}
		}
		if err := db.cat.Retire(p); err != nil {
			return err
		}
		if err := s.commitChunk(); err != nil {
			return err
		}
		return s.dropBuilding()
	})
}

// BuildIndex builds a B+tree on a set (EXTRA "build btree on"). expr is
// either a base field name ("salary") or a dotted path ("dept.org.name");
// path indexes require the path to be replicated in-place first (§3.3.4).
// clustered records whether the set's file is physically ordered by this key
// (a workload property; the executor uses it for plan metadata only). The
// tree is loaded bottom-up in its own file and its catalog entry commits
// last.
func (db *DB) BuildIndex(name, set, expr string, clustered bool) error {
	return db.ddl(func(s *sess) error {
		if _, dup := db.cat.IndexByName(name); dup {
			return fmt.Errorf("catalog: index %s already exists", name)
		}
		typ, err := db.cat.SetType(set)
		if err != nil {
			return err
		}
		parts := strings.Split(expr, ".")
		field := parts[len(parts)-1]
		refs := parts[:len(parts)-1]

		var keyKind schema.Kind
		var path *catalog.Path
		if len(refs) == 0 {
			f, ok := typ.Field(field)
			if !ok {
				return fmt.Errorf("engine: set %s has no field %q", set, field)
			}
			if f.Kind == schema.KindRef {
				return fmt.Errorf("engine: cannot index reference attribute %s.%s", set, field)
			}
			keyKind = f.Kind
		} else {
			spec := catalog.PathSpec{Source: set, Refs: refs, Field: field}
			p, ok := db.cat.FindPath(spec, catalog.InPlace)
			if !ok {
				return fmt.Errorf("engine: index on path %s requires the path to be replicated in-place first (§3.3.4)", spec)
			}
			if p.Deferred && db.mgr.HasPending(p) {
				if err := s.mgr.FlushPath(p); err != nil {
					return err
				}
				if err := s.takeIdxErr(); err != nil {
					return err
				}
			}
			path = p
			for _, pf := range p.Fields {
				if pf.Name == field {
					keyKind = pf.Kind
				}
			}
			if keyKind == schema.KindRef {
				return fmt.Errorf("engine: cannot index replicated reference attribute %s", spec)
			}
		}

		entries, err := s.indexEntries(set, typ, field, path)
		if err != nil {
			return err
		}
		tree, err := btree.Create(db.pool, "__idx_"+name)
		if err != nil {
			return err
		}
		s.addFile(tree.FileID(), "__idx_"+name)
		if err := tree.WithCapture(nil).Load(entries, s.safePoint); err != nil {
			return err
		}
		if err := db.cat.AddIndex(&catalog.Index{
			Name: name, Set: set, Field: field, Path: refs,
			Clustered: clustered, KeyKind: keyKind, FileID: tree.FileID(),
		}); err != nil {
			return err
		}
		db.trees[name] = tree
		return nil
	})
}

// indexEntries collects one entry per object of set, sorted: the key is the
// base field named field, or that replicated field of in-place path. Sorting
// them first lets the tree be loaded bottom-up, dense, every page written
// once (28 B of memory per entry while it is built).
func (s *sess) indexEntries(set string, typ *schema.Type, field string, path *catalog.Path) ([]btree.Entry, error) {
	setFile, err := s.SetFile(set)
	if err != nil {
		return nil, err
	}
	fieldIdx := typ.FieldIndex(field)
	var rf catalog.ReplField
	if path != nil {
		for _, pf := range path.Fields {
			if pf.Name == field {
				rf = pf
			}
		}
	}
	var entries []btree.Entry
	var obj schema.View
	err = setFile.Scan(func(oid pagefile.OID, payload []byte) error {
		if err := obj.Reset(typ, payload); err != nil {
			return err
		}
		var v schema.Value
		if path == nil {
			v = obj.Field(fieldIdx)
		} else if v, err = s.mgr.ReadReplicated(path, &obj, rf.Idx, nil); err != nil {
			return err
		}
		entries = append(entries, btree.Entry{Key: keyFor(v), OID: oid})
		return nil
	})
	if err != nil {
		return nil, err
	}
	slices.SortFunc(entries, btree.Entry.Compare)
	return entries, nil
}

// DropIndex removes an index definition and stops maintaining it. The
// index's pages are orphaned (page stores do not delete files).
func (db *DB) DropIndex(name string) error {
	return db.ddl(func(*sess) error {
		if err := db.cat.RemoveIndex(name); err != nil {
			return err
		}
		delete(db.trees, name)
		return nil
	})
}

// keyFor maps a value to its order-preserving index key.
func keyFor(v schema.Value) btree.Key {
	switch v.Kind {
	case schema.KindInt:
		return btree.Int64Key(v.I)
	case schema.KindFloat:
		return btree.Float64Key(v.F)
	case schema.KindString:
		return btree.StringKey(v.S)
	default:
		return btree.Key{}
	}
}

// maintainBaseIndexes applies an object transition (nil old = insert, nil
// new = delete) to the base-field indexes of a set, through the session's
// views (a set's index files are part of its footprint).
func (s *sess) maintainBaseIndexes(set string, oid pagefile.OID, old, new *schema.Object) error {
	for _, ix := range s.db.cat.IndexesOn(set) {
		if ix.IsPathIndex() {
			continue
		}
		tree, ok := s.treeFor(ix.Name)
		if !ok {
			continue
		}
		var oldV, newV schema.Value
		hasOld, hasNew := false, false
		if old != nil {
			oldV, _ = old.Get(ix.Field)
			hasOld = true
		}
		if new != nil {
			newV, _ = new.Get(ix.Field)
			hasNew = true
		}
		if hasOld && hasNew && oldV.Equal(newV) {
			continue
		}
		if hasOld {
			if err := tree.Delete(keyFor(oldV), oid); err != nil {
				return fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
		}
		if hasNew {
			if err := tree.Insert(keyFor(newV), oid); err != nil {
				return fmt.Errorf("engine: index %s: %w", ix.Name, err)
			}
		}
	}
	return nil
}

// dropPathIndexEntriesOnDelete is unnecessary: core notifies the listener
// with (old -> zero) transitions while unregistering a deleted source, and
// the final zero-value entries are removed below in Delete via
// removePathIndexZeroEntries.
func (s *sess) removePathIndexZeroEntries(set string, oid pagefile.OID) {
	for _, ix := range s.db.cat.IndexesOn(set) {
		if !ix.IsPathIndex() {
			continue
		}
		if tree, ok := s.treeFor(ix.Name); ok {
			_ = tree.Delete(keyFor(schema.Zero(ix.KeyKind)), oid)
		}
	}
}
