package engine

import (
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
)

// DefineType registers a type (EXTRA "define type").
func (db *DB) DefineType(name string, fields []schema.Field) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	_, err := db.cat.DefineType(name, fields)
	return err
}

// CreateSet creates a named top-level set stored as its own disk file
// (EXTRA "create").
func (db *DB) CreateSet(name, typeName string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	f, err := heap.Create(db.pool, name)
	if err != nil {
		return err
	}
	db.noteFileCreated(f.ID(), name)
	if _, err := db.cat.CreateSet(name, typeName, f.ID()); err != nil {
		return err
	}
	db.files[f.ID()] = f
	return db.syncIfDurable()
}

// Replicate registers a replication path given in the paper's dotted syntax
// ("Emp1.dept.name", "Emp1.dept.org.name", "Emp1.dept.all"), creates its link
// and S′ page files, and builds its replicated state over existing data.
func (db *DB) Replicate(path string, strategy catalog.Strategy, opts ...catalog.PathOption) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	spec, err := catalog.ParsePathSpec(path)
	if err != nil {
		return err
	}
	p, err := db.cat.AddPath(spec, strategy, opts...)
	if err != nil {
		return err
	}
	err = db.ensurePathFiles(p)
	if err == nil {
		err = db.mgr.BuildPath(p)
	}
	if err != nil {
		// The path stays registered with its build incomplete; taint the
		// source set so the partial state is never trusted. Repair finishes
		// the build (it derives the same structures the build would have).
		db.taint(spec.Source, err)
		return err
	}
	return db.syncIfDurable()
}

// BuildIndex builds a B+tree on a set (EXTRA "build btree on"). expr is
// either a base field name ("salary") or a dotted path ("dept.org.name");
// path indexes require the path to be replicated in-place first (§3.3.4).
// clustered records whether the set's file is physically ordered by this key
// (a workload property; the executor uses it for plan metadata only).
func (db *DB) BuildIndex(name, set, expr string, clustered bool) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
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
			if err := db.mgr.FlushPath(p); err != nil {
				return err
			}
			if err := db.takeIdxErr(); err != nil {
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

	tree, err := btree.Create(db.pool, "__idx_"+name)
	if err != nil {
		return err
	}
	db.noteFileCreated(tree.FileID(), "__idx_"+name)
	ix := &catalog.Index{
		Name: name, Set: set, Field: field, Path: refs,
		Clustered: clustered, KeyKind: keyKind, FileID: tree.FileID(),
	}
	if err := db.cat.AddIndex(ix); err != nil {
		return err
	}
	db.trees[name] = tree

	// Backfill from existing data: collect one entry per object in a scan of
	// the set, sort them, and load the tree bottom-up, so the index comes out
	// dense and every page of it is written once (28 B of memory per entry
	// while it is built). A failed backfill is compensated by removing the
	// half-built index (its pages are orphaned, like DropIndex).
	err = db.loadIndex(tree, set, typ, field, path)
	if err != nil {
		_ = db.cat.RemoveIndex(name)
		delete(db.trees, name)
		return err
	}
	return db.syncIfDurable()
}

// loadIndex bulk-loads tree with the key of every object of set: the base
// field named field, or that replicated field of in-place path.
func (db *DB) loadIndex(tree *btree.Tree, set string, typ *schema.Type, field string, path *catalog.Path) error {
	setFile, err := db.SetFile(set)
	if err != nil {
		return err
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
		} else if v, err = db.mgr.ReadReplicated(path, &obj, rf.Idx, nil); err != nil {
			return err
		}
		entries = append(entries, btree.Entry{Key: keyFor(v), OID: oid})
		return nil
	})
	if err != nil {
		return err
	}
	slices.SortFunc(entries, btree.Entry.Compare)
	return tree.Load(entries)
}

// Unreplicate removes a replication path: hidden values, link structures not
// shared with other paths, and (for the last path of an S′ group) the S′
// registrations are torn down, and the catalog entry is dropped. Fails if an
// index is built on the path's replicated values; drop the index first.
func (db *DB) Unreplicate(path string, strategy catalog.Strategy) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
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
	if err := db.mgr.TeardownPath(p); err != nil {
		// Partial teardown: the path is still registered, some structures are
		// gone. Taint so nothing trusts the remains; Repair restores them.
		db.taint(p.Spec.Source, err)
		return err
	}
	if err := db.cat.RemovePath(p); err != nil {
		return err
	}
	return db.syncIfDurable()
}

// DropIndex removes an index definition and stops maintaining it. The
// index's pages are orphaned (page stores do not delete files).
func (db *DB) DropIndex(name string) error {
	if err := db.writable(); err != nil {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.cat.RemoveIndex(name); err != nil {
		return err
	}
	delete(db.trees, name)
	return nil
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

// HiddenChanged implements core.Listener for the engine's own manager: it
// keeps indexes on replicated paths exact as Repair or FlushReplication
// rewrite hidden values (statements propagate through sess.HiddenChanged).
func (db *DB) HiddenChanged(source pagefile.OID, p *catalog.Path, f catalog.ReplField, old, new schema.Value) {
	ix, ok := db.cat.PathIndexFor(p.Spec.Source, p.Spec.Refs, f.Name)
	if !ok {
		return
	}
	tree, ok := db.trees[ix.Name]
	if !ok {
		return
	}
	// Tolerate a missing old entry (first installation) and an existing new
	// entry (idempotent re-propagation); the running operation surfaces any
	// other failure (takeIdxErr).
	if err := tree.Delete(keyFor(old), source); err != nil && !errors.Is(err, btree.ErrNotFound) {
		db.idxErr = err
	}
	if err := tree.Insert(keyFor(new), source); err != nil && !errors.Is(err, btree.ErrExists) {
		db.idxErr = err
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
