package core

import (
	"fmt"
	"testing"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/heap"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// testDB is a minimal engine used to drive the Manager in tests: it owns the
// heap files and performs the insert/update/delete choreography the real
// engine performs.
type testDB struct {
	t     *testing.T
	pool  *buffer.Pool
	cat   *catalog.Catalog
	mgr   *Manager
	files map[pagefile.FileID]*heap.File
	sets  map[string]*heap.File
}

func (db *testDB) ReadObject(oid pagefile.OID, typ *schema.Type) (*schema.Object, error) {
	f, ok := db.files[oid.File]
	if !ok {
		return nil, fmt.Errorf("testdb: no file %d", oid.File)
	}
	data, err := f.Read(oid)
	if err != nil {
		return nil, err
	}
	return schema.Decode(typ, data)
}

func (db *testDB) WriteObject(oid pagefile.OID, o *schema.Object) error {
	f, ok := db.files[oid.File]
	if !ok {
		return fmt.Errorf("testdb: no file %d", oid.File)
	}
	return f.Update(oid, o.Encode())
}

func (db *testDB) LinkFile(l *catalog.Link) (*heap.File, error) {
	if l.HasFile {
		return db.files[l.FileID], nil
	}
	f, err := heap.Create(db.pool, fmt.Sprintf("link_%d", l.ID))
	if err != nil {
		return nil, err
	}
	l.FileID = f.ID()
	l.HasFile = true
	db.files[f.ID()] = f
	return f, nil
}

func (db *testDB) GroupFile(g *catalog.Group) (*heap.File, error) {
	if g.HasFile {
		return db.files[g.FileID], nil
	}
	f, err := heap.Create(db.pool, fmt.Sprintf("sprime_%d", g.ID))
	if err != nil {
		return nil, err
	}
	g.FileID = f.ID()
	g.HasFile = true
	db.files[f.ID()] = f
	return f, nil
}

func (db *testDB) SetFile(name string) (*heap.File, error) {
	f, ok := db.sets[name]
	if !ok {
		return nil, fmt.Errorf("testdb: no set %s", name)
	}
	return f, nil
}

// newTestDB builds the paper's employee database schema (Figure 1).
func newTestDB(t *testing.T, opts ...Option) *testDB {
	t.Helper()
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	db := &testDB{
		t:     t,
		pool:  buffer.New(store, 128),
		cat:   catalog.New(),
		files: map[pagefile.FileID]*heap.File{},
		sets:  map[string]*heap.File{},
	}
	db.mgr = New(db.cat, db, opts...)

	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err := db.cat.DefineType("ORG", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
	})
	must(err)
	_, err = db.cat.DefineType("DEPT", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
		{Name: "org", Kind: schema.KindRef, RefType: "ORG"},
	})
	must(err)
	_, err = db.cat.DefineType("EMP", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "age", Kind: schema.KindInt},
		{Name: "salary", Kind: schema.KindInt},
		{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"},
	})
	must(err)
	for _, s := range []struct{ name, typ string }{
		{"Org", "ORG"}, {"Dept", "DEPT"}, {"Emp1", "EMP"}, {"Emp2", "EMP"},
	} {
		f, err := heap.Create(db.pool, s.name)
		must(err)
		db.files[f.ID()] = f
		db.sets[s.name] = f
		_, err = db.cat.CreateSet(s.name, s.typ, f.ID())
		must(err)
	}
	return db
}

// insert stores an object and runs the replication insert hook.
func (db *testDB) insert(set string, vals map[string]schema.Value) pagefile.OID {
	db.t.Helper()
	s, _ := db.cat.SetByName(set)
	typ, _ := db.cat.TypeByName(s.TypeName)
	o := schema.NewObject(typ)
	for k, v := range vals {
		if err := o.Set(k, v); err != nil {
			db.t.Fatal(err)
		}
	}
	oid, err := db.sets[set].Insert(o.Encode())
	if err != nil {
		db.t.Fatal(err)
	}
	if err := db.mgr.OnInsert(s, oid, o); err != nil {
		db.t.Fatalf("OnInsert: %v", err)
	}
	return oid
}

// update applies field changes and runs the replication update hook.
func (db *testDB) update(set string, oid pagefile.OID, vals map[string]schema.Value) error {
	db.t.Helper()
	s, _ := db.cat.SetByName(set)
	typ, _ := db.cat.TypeByName(s.TypeName)
	old, err := db.ReadObject(oid, typ)
	if err != nil {
		db.t.Fatal(err)
	}
	next := old.Clone()
	for k, v := range vals {
		if err := next.Set(k, v); err != nil {
			db.t.Fatal(err)
		}
	}
	if err := db.WriteObject(oid, next); err != nil {
		db.t.Fatal(err)
	}
	return db.mgr.OnUpdate(s, oid, old, next)
}

// remove deletes an object after the replication delete hook.
func (db *testDB) remove(set string, oid pagefile.OID) error {
	db.t.Helper()
	s, _ := db.cat.SetByName(set)
	typ, _ := db.cat.TypeByName(s.TypeName)
	obj, err := db.ReadObject(oid, typ)
	if err != nil {
		db.t.Fatal(err)
	}
	if err := db.mgr.OnDelete(s, oid, obj); err != nil {
		return err
	}
	return db.sets[set].Delete(oid)
}

// replicate registers, builds and publishes a path, then tears down what it
// left building (the placeholder of a group it widened), the sequence the
// engine runs.
func (db *testDB) replicate(pathStr string, strat catalog.Strategy, opts ...catalog.PathOption) *catalog.Path {
	db.t.Helper()
	spec, err := catalog.ParsePathSpec(pathStr)
	if err != nil {
		db.t.Fatal(err)
	}
	p, err := db.cat.AddPath(spec, strat, opts...)
	if err != nil {
		db.t.Fatal(err)
	}
	if err := db.mgr.BuildPath(p); err != nil {
		db.t.Fatalf("BuildPath(%s): %v", pathStr, err)
	}
	if err := db.cat.Publish(p); err != nil {
		db.t.Fatal(err)
	}
	db.dropBuilding()
	return p
}

// dropBuilding tears down and unregisters every building path.
func (db *testDB) dropBuilding() {
	db.t.Helper()
	for _, b := range db.cat.Building() {
		if err := db.mgr.TeardownPath(b); err != nil {
			db.t.Fatalf("TeardownPath(%s): %v", b.Spec, err)
		}
		if err := db.cat.RemovePath(b); err != nil {
			db.t.Fatal(err)
		}
	}
}

// read loads and decodes an object.
func (db *testDB) read(set string, oid pagefile.OID) *schema.Object {
	db.t.Helper()
	typ, err := db.cat.SetType(set)
	if err != nil {
		db.t.Fatal(err)
	}
	o, err := db.ReadObject(oid, typ)
	if err != nil {
		db.t.Fatal(err)
	}
	return o
}

// replicated reads the replicated value for a source object through the
// manager's fast path.
func (db *testDB) replicated(p *catalog.Path, set string, oid pagefile.OID, fieldName string) schema.Value {
	db.t.Helper()
	src := db.read(set, oid)
	var idx uint8
	found := false
	fields := p.Fields
	if p.Strategy == catalog.Separate {
		fields = p.Group.Fields
	}
	for _, f := range fields {
		if f.Name == fieldName {
			idx = f.Idx
			found = true
		}
	}
	if !found {
		db.t.Fatalf("path %s does not replicate %q", p.Spec, fieldName)
	}
	v, err := db.mgr.ReadReplicated(p, src, idx, nil)
	if err != nil {
		db.t.Fatal(err)
	}
	return v
}

// verify asserts that the global replication invariant holds.
func (db *testDB) verify() {
	db.t.Helper()
	if errs := db.mgr.Verify(); len(errs) > 0 {
		for _, e := range errs {
			db.t.Error(e)
		}
		db.t.Fatalf("replication invariant violated (%d errors)", len(errs))
	}
}

// Convenience value constructors.
func str(s string) schema.Value       { return schema.StringValue(s) }
func num(i int64) schema.Value        { return schema.IntValue(i) }
func ref(o pagefile.OID) schema.Value { return schema.RefValue(o) }
