package catalog

import (
	"bytes"
	"reflect"
	"testing"
)

// fullCatalog builds a catalog exercising every persisted feature.
func fullCatalog(t *testing.T) *Catalog {
	t.Helper()
	c := employeeCatalog(t)
	mustPath := func(s string, strat Strategy, opts ...PathOption) *Path {
		t.Helper()
		spec, err := ParsePathSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		p, err := addLive(c, spec, strat, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	mustPath("Emp1.dept.name", InPlace)
	mustPath("Emp1.dept.budget", Separate)
	mustPath("Emp1.dept.org.name", InPlace, WithDeferred())
	mustPath("Emp2.dept.org.name", InPlace, WithCollapsed())
	mustPath("Emp2.dept.all", Separate)
	if err := c.AddIndex(&Index{Name: "sal", Set: "Emp1", Field: "salary", KeyKind: 1, FileID: 9}); err != nil {
		t.Fatal(err)
	}
	if err := c.AddIndex(&Index{Name: "orgname", Set: "Emp1", Field: "name", Path: []string{"dept", "org"}, Clustered: true, KeyKind: 3, FileID: 10}); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSnapshotRestoreFidelity(t *testing.T) {
	c := fullCatalog(t)
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	// Paths: full structural equality of the observable state.
	if len(got.Paths()) != len(c.Paths()) {
		t.Fatalf("paths: %d vs %d", len(got.Paths()), len(c.Paths()))
	}
	for i, p := range c.Paths() {
		q := got.Paths()[i]
		if p.Spec.String() != q.Spec.String() || p.ID != q.ID || p.Strategy != q.Strategy ||
			p.Collapsed != q.Collapsed || p.Deferred != q.Deferred {
			t.Fatalf("path %d: %+v vs %+v", i, p, q)
		}
		if !reflect.DeepEqual(p.LinkSequence(), q.LinkSequence()) {
			t.Fatalf("path %d link sequence: %v vs %v", i, p.LinkSequence(), q.LinkSequence())
		}
		if !reflect.DeepEqual(p.Fields, q.Fields) {
			t.Fatalf("path %d fields: %v vs %v", i, p.Fields, q.Fields)
		}
		if (p.Group == nil) != (q.Group == nil) {
			t.Fatalf("path %d group presence differs", i)
		}
		if p.Group != nil && (p.Group.ID != q.Group.ID || !reflect.DeepEqual(p.Group.Fields, q.Group.Fields)) {
			t.Fatalf("path %d group: %+v vs %+v", i, p.Group, q.Group)
		}
		if len(p.Types) != len(q.Types) {
			t.Fatalf("path %d types: %d vs %d", i, len(p.Types), len(q.Types))
		}
		for j := range p.Types {
			if p.Types[j].Name != q.Types[j].Name || p.Types[j].Tag != q.Types[j].Tag {
				t.Fatalf("path %d type %d differs", i, j)
			}
		}
	}
	// Indexes.
	for _, name := range []string{"sal", "orgname"} {
		a, ok1 := c.IndexByName(name)
		b, ok2 := got.IndexByName(name)
		if !ok1 || !ok2 || !reflect.DeepEqual(a, b) {
			t.Fatalf("index %s: %+v vs %+v", name, a, b)
		}
	}
	// Links registry, including the prefix-sharing map.
	for source, prefix := range map[string][]string{"Emp1": {"dept"}} {
		a, ok1 := c.LinkFor(source, prefix)
		b, ok2 := got.LinkFor(source, prefix)
		if !ok1 || !ok2 || a.ID != b.ID || a.Level != b.Level {
			t.Fatalf("LinkFor(%s, %v): %+v vs %+v", source, prefix, a, b)
		}
	}
	// The snapshot is stable: snapshotting the restored catalog reproduces
	// the same bytes.
	data2, err := got.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("snapshot not stable across restore")
	}
	// Counters continue, so new DDL never collides with restored IDs.
	spec, _ := ParsePathSpec("Org.name")
	_ = spec
	newSpec, _ := ParsePathSpec("Emp2.dept.name")
	p, err := got.AddPath(newSpec, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range c.Paths() {
		if old.ID == p.ID {
			t.Fatalf("restored catalog reused path ID %d", p.ID)
		}
	}
}

func TestRestoreRejectsCorruption(t *testing.T) {
	c := fullCatalog(t)
	data, _ := c.Snapshot()
	cases := [][]byte{
		nil,
		[]byte("not json"),
		[]byte(`{"version": 2}`),
		bytes.Replace(data, []byte(`"type": "EMP"`), []byte(`"type": "GONE"`), 1),
	}
	for i, bad := range cases {
		if _, err := Restore(bad); err == nil {
			t.Errorf("case %d: corrupt snapshot accepted", i)
		}
	}
}

func TestRemovePathAndSharedLinks(t *testing.T) {
	c := employeeCatalog(t)
	spec1, _ := ParsePathSpec("Emp1.dept.name")
	spec2, _ := ParsePathSpec("Emp1.dept.budget")
	p1, err := c.AddPath(spec1, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.AddPath(spec2, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	sharedID := p1.Links[0].ID
	if err := c.RemovePath(p1); err != nil {
		t.Fatal(err)
	}
	// The shared link survives for p2.
	if _, ok := c.LinkByID(sharedID); !ok {
		t.Fatal("shared link dropped while in use")
	}
	if err := c.RemovePath(p2); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.LinkByID(sharedID); ok {
		t.Fatal("orphaned link not dropped")
	}
	if _, ok := c.LinkFor("Emp1", []string{"dept"}); ok {
		t.Fatal("orphaned link still in sharing map")
	}
	// A fresh path gets a fresh link ID and everything still works.
	p3, err := c.AddPath(spec1, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	if p3.Links[0].ID == sharedID {
		t.Log("link ID reuse is fine; registry must be consistent")
	}
	if err := c.RemovePath(p1); err == nil {
		t.Fatal("double remove succeeded")
	}
}

func TestRemovePathGroupLifecycle(t *testing.T) {
	c := employeeCatalog(t)
	spec1, _ := ParsePathSpec("Emp1.dept.name")
	spec2, _ := ParsePathSpec("Emp1.dept.budget")
	p1, _ := addLive(c, spec1, Separate)
	old := p1.Group
	p2, _ := addLive(c, spec2, Separate)
	gid := p2.Group.ID
	if p1.Group != p2.Group {
		t.Fatal("publishing the wider group did not move the live path to it")
	}
	// The placeholder left for the old group goes once its teardown is done.
	placeholder := c.Building()[0]
	if err := c.RemovePath(placeholder); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GroupByID(old.ID); ok {
		t.Fatal("the widened-away group outlived its placeholder")
	}
	if err := c.RemovePath(p1); err == nil {
		t.Fatal("a live path was removed without being retired")
	}
	if err := c.Retire(p1); err != nil {
		t.Fatal(err)
	}
	if err := c.RemovePath(p1); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GroupByID(gid); !ok {
		t.Fatal("group dropped while p2 remains")
	}
	if err := c.Retire(p2); err != nil {
		t.Fatal(err)
	}
	if got := c.PathsWithGroup(gid); len(got) != 0 {
		t.Fatalf("a retired path is still live: %v", got)
	}
	if err := c.RemovePath(p2); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.GroupByID(gid); ok {
		t.Fatal("orphaned group not dropped")
	}
}

// TestBuildingPathsPersist: a snapshot taken while a path is building
// restores it as building, so the reopened engine can tear it down, with its
// IDs still reserved.
func TestBuildingPathsPersist(t *testing.T) {
	c := employeeCatalog(t)
	spec, _ := ParsePathSpec("Emp1.dept.name")
	p, err := c.AddPath(spec, InPlace)
	if err != nil {
		t.Fatal(err)
	}
	data, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Paths()) != 0 || len(got.Building()) != 1 || got.Building()[0].ID != p.ID {
		t.Fatalf("restored %d live and %v building paths, want 0 and [%d]", len(got.Paths()), got.Building(), p.ID)
	}
	if _, ok := got.LinkByID(p.Links[0].ID); !ok {
		t.Fatal("a building path's link was not restored")
	}
	q, err := got.AddPath(mustSpec(t, "Emp2.dept.name"), InPlace)
	if err != nil {
		t.Fatal(err)
	}
	if q.ID == p.ID || q.Links[0].ID == p.Links[0].ID {
		t.Fatal("a restored building path's IDs were reused")
	}
}

// TestLegacyTaintNeedsRederive: a snapshot written by a version that kept
// per-set taint markers restores with NeedsRederive set, and the snapshot
// taken from it no longer carries the field.
func TestLegacyTaintNeedsRederive(t *testing.T) {
	data, err := fullCatalog(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if c, _ := Restore(data); c.NeedsRederive() {
		t.Fatal("a snapshot without taint markers needs re-deriving")
	}
	legacy := bytes.Replace(data, []byte(`"next_tag"`), []byte(`"tainted": {"Emp1": "injected fault"},
  "next_tag"`), 1)
	c, err := Restore(legacy)
	if err != nil {
		t.Fatal(err)
	}
	if !c.NeedsRederive() {
		t.Fatal("taint markers were dropped silently")
	}
	out, err := c.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(out, []byte("tainted")) {
		t.Fatal("a new snapshot still carries taint markers")
	}
}

func mustSpec(t *testing.T, s string) PathSpec {
	t.Helper()
	spec, err := ParsePathSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestRemoveIndex(t *testing.T) {
	c := employeeCatalog(t)
	if err := c.AddIndex(&Index{Name: "x", Set: "Emp1", Field: "salary"}); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveIndex("x"); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.IndexByName("x"); ok {
		t.Fatal("index survives removal")
	}
	if err := c.RemoveIndex("x"); err == nil {
		t.Fatal("double remove succeeded")
	}
}
