package core

import (
	"fmt"
	"slices"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// updateLogged runs db.update and returns the OIDs propagation patched and
// the ones it rewrote, the updated object itself left out.
func updateLogged(t *testing.T, db *testDB, set string, oid pagefile.OID, vals map[string]schema.Value) (patched, written []pagefile.OID) {
	t.Helper()
	db.patched, db.written = nil, nil
	if err := db.update(set, oid, vals); err != nil {
		t.Fatal(err)
	}
	return db.patched, slices.DeleteFunc(db.written, func(o pagefile.OID) bool { return o == oid })
}

func sameOIDs(got []pagefile.OID, want ...pagefile.OID) bool {
	slices.SortFunc(got, pagefile.OID.Compare)
	slices.SortFunc(want, pagefile.OID.Compare)
	return slices.Equal(got, want)
}

// TestInPlacePropagationPatches pins which source objects in-place
// propagation patches in their pages and which it decodes and re-encodes: a
// value of the same width is patched, in every source and on every kind of
// inverted path (eager, collapsed, deferred); a value of another width, on any
// field of a path with several, rewrites the source. The listener hears of
// both, with the old value, and the invariant holds after each step.
func TestInPlacePropagationPatches(t *testing.T) {
	t.Run("one field", func(t *testing.T) {
		lis := &recordingListener{}
		fx := load(t)
		db := fx.db
		db.mgr = db.mgr.WithSession(db, lis)
		p := db.replicate("Emp1.dept.name", catalog.InPlace)
		lis.events = nil
		patched, written := updateLogged(t, db, "Dept", fx.d1, map[string]schema.Value{"name": str("Archives")})
		if !sameOIDs(patched, fx.e1, fx.e2) || len(written) != 0 {
			t.Fatalf("same width: patched %v, rewrote %v; want e1, e2 patched", patched, written)
		}
		if want := []string{`name:"Research"->"Archives"`, `name:"Research"->"Archives"`}; !slices.Equal(lis.events, want) {
			t.Fatalf("listener heard %v, want %v", lis.events, want)
		}
		db.verify()
		patched, written = updateLogged(t, db, "Dept", fx.d1, map[string]schema.Value{"name": str("Lab")})
		if len(patched) != 0 || !sameOIDs(written, fx.e1, fx.e2) {
			t.Fatalf("new width: patched %v, rewrote %v; want e1, e2 rewritten", patched, written)
		}
		for _, e := range []pagefile.OID{fx.e1, fx.e2} {
			if got := db.replicated(p, "Emp1", e, "name"); got.S != "Lab" {
				t.Fatalf("%v replicates %v, want Lab", e, got)
			}
		}
		db.verify()
	})

	t.Run("all fields or none", func(t *testing.T) {
		fx := load(t)
		db := fx.db
		p := db.replicate("Emp1.dept."+catalog.AllFields, catalog.InPlace)
		patched, written := updateLogged(t, db, "Dept", fx.d1, map[string]schema.Value{"name": str("Archives"), "budget": num(7)})
		if !sameOIDs(patched, fx.e1, fx.e2) || len(written) != 0 {
			t.Fatalf("same widths: patched %v, rewrote %v; want e1, e2 patched", patched, written)
		}
		// The budget keeps its width, the name does not: both are rewritten.
		patched, written = updateLogged(t, db, "Dept", fx.d1, map[string]schema.Value{"name": str("Lab"), "budget": num(8)})
		if len(patched) != 0 || !sameOIDs(written, fx.e1, fx.e2) {
			t.Fatalf("one new width: patched %v, rewrote %v; want e1, e2 rewritten", patched, written)
		}
		if got := fmt.Sprint(db.replicated(p, "Emp1", fx.e1, "name"), db.replicated(p, "Emp1", fx.e1, "budget")); got != `"Lab" 8` {
			t.Fatalf("e1 replicates %s, want \"Lab\" 8", got)
		}
		db.verify()
	})

	t.Run("collapsed", func(t *testing.T) {
		fx := load(t)
		db := fx.db
		db.replicate("Emp1.dept.org.name", catalog.InPlace, catalog.WithCollapsed())
		patched, written := updateLogged(t, db, "Org", fx.orgA, map[string]schema.Value{"name": str("Zeta")})
		if !sameOIDs(patched, fx.e1, fx.e2, fx.e3) || len(written) != 0 {
			t.Fatalf("patched %v, rewrote %v; want e1, e2, e3 patched", patched, written)
		}
		db.verify()
	})

	t.Run("deferred", func(t *testing.T) {
		fx := load(t)
		db := fx.db
		p := db.replicate("Emp1.dept.name", catalog.InPlace, catalog.WithDeferred())
		if patched, written := updateLogged(t, db, "Dept", fx.d1, map[string]schema.Value{"name": str("Archives")}); len(patched)+len(written) != 0 {
			t.Fatalf("a deferred update patched %v and rewrote %v before the drain", patched, written)
		}
		db.patched = nil
		if err := db.mgr.FlushPath(p); err != nil {
			t.Fatal(err)
		}
		if !sameOIDs(db.patched, fx.e1, fx.e2) {
			t.Fatalf("the drain patched %v, want e1, e2", db.patched)
		}
		db.verify()
	})
}
