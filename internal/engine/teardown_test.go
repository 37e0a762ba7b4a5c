package engine

import (
	"errors"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

func mustGet(t *testing.T, db *DB, set string, oid pagefile.OID) *schema.Object {
	t.Helper()
	obj, err := db.Get(set, oid)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

func TestUnreplicateInPlace(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 20)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Unreplicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatalf("Unreplicate: %v", err)
	}
	// Hidden values and link pairs are gone.
	if emp := mustGet(t, db, "Emp1", st.emps[0]); len(emp.Hidden) != 0 {
		t.Fatalf("source keeps hidden values: %v", emp.Hidden)
	}
	if dept := mustGet(t, db, "Dept", st.depts[0]); len(dept.Links) != 0 {
		t.Fatalf("target keeps link pairs: %v", dept.Links)
	}
	// Queries fall back to functional joins with correct answers.
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name"}})
	if err != nil || len(res.Rows) != 20 {
		t.Fatalf("query after unreplicate: %d rows, %v", len(res.Rows), err)
	}
	if res.Rows[0].Values[0].S != "dept-00" {
		t.Fatalf("value = %v", res.Rows[0].Values[0])
	}
	// The catalog entry is gone; the path can be re-created cleanly.
	if len(db.cat.Paths()) != 0 {
		t.Fatalf("paths left: %d", len(db.cat.Paths()))
	}
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatalf("re-replicate: %v", err)
	}
	verifyDB(t, db)
	// Targets are deletable after the remaining path is also removed.
	if err := db.Unreplicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("Emp1", st.emps[0], map[string]schema.Value{"dept": ref(pagefile.NilOID)}); err != nil {
		t.Fatal(err)
	}
}

func TestUnreplicateKeepsSharedLinks(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 20)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.budget", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	// Both share link 1; removing the name path must keep the link alive for
	// the budget path.
	if err := db.Unreplicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if dept := mustGet(t, db, "Dept", st.depts[0]); len(dept.Links) != 1 {
		t.Fatalf("shared link was destroyed: %v", dept.Links)
	}
	// Budget propagation still works.
	if err := db.Update("Dept", st.depts[0], map[string]schema.Value{"budget": num(777)}); err != nil {
		t.Fatal(err)
	}
	res, _, _ := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.budget"},
		Where: &Pred{Expr: "dept.budget", Op: OpEQ, Value: num(777)}})
	if len(res.Rows) == 0 {
		t.Fatal("budget propagation broken after sibling teardown")
	}
	verifyDB(t, db)
}

func TestUnreplicateSeparateGroup(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 20)
	if err := db.Replicate("Emp1.dept.name", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.budget", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	// Removing one group member keeps the S′ registrations (the group
	// lives on for the other path).
	if err := db.Unreplicate("Emp1.dept.name", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	if dept := mustGet(t, db, "Dept", st.depts[0]); len(dept.Seps) != 1 {
		t.Fatalf("group S′ entry dropped while still in use: %v", dept.Seps)
	}
	verifyDB(t, db)
	// Removing the last member clears everything.
	if err := db.Unreplicate("Emp1.dept.budget", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	if dept := mustGet(t, db, "Dept", st.depts[0]); len(dept.Seps) != 0 {
		t.Fatalf("S′ entry survives group teardown: %v", dept.Seps)
	}
	if emp := mustGet(t, db, "Emp1", st.emps[0]); len(emp.Hidden) != 0 {
		t.Fatalf("hidden S′ ref survives: %v", emp.Hidden)
	}
	if len(db.cat.Paths()) != 0 {
		t.Fatal("paths remain")
	}
}

func TestUnreplicateCollapsedAndTwoLevel(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 20)
	if err := db.Replicate("Emp1.dept.org.name", catalog.InPlace, catalog.WithCollapsed()); err != nil {
		t.Fatal(err)
	}
	if err := db.Unreplicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if org := mustGet(t, db, "Org", st.orgs[0]); len(org.Links) != 0 {
		t.Fatalf("collapsed terminal keeps link: %v", org.Links)
	}
	if dept := mustGet(t, db, "Dept", st.depts[0]); len(dept.Links) != 0 {
		t.Fatalf("collapsed marker survives: %v", dept.Links)
	}
	// Plain 2-level in-place teardown.
	if err := db.Replicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Unreplicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if org := mustGet(t, db, "Org", st.orgs[0]); len(org.Links) != 0 {
		t.Fatalf("2-level terminal keeps link: %v", org.Links)
	}
	verifyDB(t, db)
}

func TestUnreplicateGuards(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 10)
	if err := db.Unreplicate("Emp1.dept.name", catalog.InPlace); err == nil {
		t.Fatal("unreplicate of unknown path succeeded")
	}
	if err := db.Replicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("byorg", "Emp1", "dept.org.name", false); err != nil {
		t.Fatal(err)
	}
	if err := db.Unreplicate("Emp1.dept.org.name", catalog.InPlace); !errors.Is(err, core.ErrPathInUse) {
		t.Fatalf("unreplicate under index: %v", err)
	}
	if err := db.DropIndex("byorg"); err != nil {
		t.Fatal(err)
	}
	if err := db.Unreplicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatalf("unreplicate after index drop: %v", err)
	}
	if err := db.DropIndex("nope"); err == nil {
		t.Fatal("drop of unknown index succeeded")
	}
	verifyDB(t, db)
}

func TestUnreplicateDeferredPurgesQueue(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 10)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace, catalog.WithDeferred()); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("Dept", st.depts[0], map[string]schema.Value{"name": str("x")}); err != nil {
		t.Fatal(err)
	}
	if db.PendingPropagations() != 1 {
		t.Fatal("no pending entry")
	}
	if err := db.Unreplicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if db.PendingPropagations() != 0 {
		t.Fatal("teardown left pending propagations")
	}
	verifyDB(t, db)
}
