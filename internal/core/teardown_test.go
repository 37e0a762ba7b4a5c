package core

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// unreplicate runs the retire + teardown + catalog removal sequence the
// engine uses.
func (db *testDB) unreplicate(t *testing.T, pathStr string, strat catalog.Strategy) {
	t.Helper()
	spec, err := catalog.ParsePathSpec(pathStr)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := db.cat.FindPath(spec, strat)
	if !ok {
		t.Fatalf("no path %s", pathStr)
	}
	if err := db.cat.Retire(p); err != nil {
		t.Fatal(err)
	}
	db.dropBuilding()
}

func TestTeardownTwoLevelInPlace(t *testing.T) {
	fx := load(t)
	db := fx.db
	db.replicate("Emp1.dept.org.name", catalog.InPlace)
	db.unreplicate(t, "Emp1.dept.org.name", catalog.InPlace)

	for _, oid := range []pagefile.OID{fx.e1, fx.e2, fx.e3} {
		if o := db.read("Emp1", oid); len(o.Hidden) != 0 {
			t.Fatalf("hidden survives on %v: %v", oid, o.Hidden)
		}
	}
	for _, oid := range []pagefile.OID{fx.d1, fx.d2, fx.d3} {
		if o := db.read("Dept", oid); len(o.Links) != 0 {
			t.Fatalf("dept link survives on %v", oid)
		}
	}
	for _, oid := range []pagefile.OID{fx.orgA, fx.orgB} {
		if o := db.read("Org", oid); len(o.Links) != 0 {
			t.Fatalf("org link survives on %v", oid)
		}
	}
	db.verify() // no paths left: trivially consistent
}

func TestTeardownPartialGroupKeepsSPrime(t *testing.T) {
	fx := load(t)
	db := fx.db
	pName := db.replicate("Emp1.dept.name", catalog.Separate)
	db.replicate("Emp1.dept.budget", catalog.Separate)
	db.unreplicate(t, "Emp1.dept.budget", catalog.Separate)

	// The group lives on for the name path: values still resolve and update.
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "Research" {
		t.Fatalf("name after partial teardown = %v", got)
	}
	if err := db.update("Dept", fx.d1, map[string]schema.Value{"name": str("Still")}); err != nil {
		t.Fatal(err)
	}
	if got := db.replicated(pName, "Emp1", fx.e1, "name"); got.S != "Still" {
		t.Fatalf("propagation after partial teardown = %v", got)
	}
	db.verify()
}

func TestTeardownWithBrokenChains(t *testing.T) {
	fx := load(t)
	db := fx.db
	db.replicate("Emp1.dept.org.name", catalog.InPlace)
	// Break some chains before teardown.
	if err := db.update("Emp1", fx.e1, map[string]schema.Value{"dept": ref(pagefile.NilOID)}); err != nil {
		t.Fatal(err)
	}
	if err := db.update("Dept", fx.d2, map[string]schema.Value{"org": ref(pagefile.NilOID)}); err != nil {
		t.Fatal(err)
	}
	db.unreplicate(t, "Emp1.dept.org.name", catalog.InPlace)
	for _, oid := range []pagefile.OID{fx.e1, fx.e2, fx.e3} {
		if o := db.read("Emp1", oid); len(o.Hidden) != 0 {
			t.Fatalf("hidden survives on %v", oid)
		}
	}
	db.verify()
}

// TestRandomizedTeardownInterleaving replicates and unreplicates paths while
// mutations run, verifying the surviving paths' invariant throughout.
func TestRandomizedTeardownInterleaving(t *testing.T) {
	db := newTestDB(t)
	rng := rand.New(rand.NewSource(31))
	var orgs, depts, emps []pagefile.OID
	for i := 0; i < 3; i++ {
		orgs = append(orgs, db.insert("Org", map[string]schema.Value{"name": str(fmt.Sprintf("o%d", i)), "budget": num(0)}))
	}
	for i := 0; i < 6; i++ {
		depts = append(depts, db.insert("Dept", map[string]schema.Value{
			"name": str(fmt.Sprintf("d%d", i)), "budget": num(0), "org": ref(orgs[rng.Intn(3)]),
		}))
	}
	for i := 0; i < 20; i++ {
		emps = append(emps, db.insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("e%d", i)), "age": num(0), "salary": num(0),
			"dept": ref(depts[rng.Intn(len(depts))]),
		}))
	}
	specs := []struct {
		path  string
		strat catalog.Strategy
	}{
		{"Emp1.dept.name", catalog.InPlace},
		{"Emp1.dept.budget", catalog.Separate},
		{"Emp1.dept.org.name", catalog.InPlace},
	}
	active := map[int]bool{}
	nameCtr := 0
	for step := 0; step < 200; step++ {
		switch rng.Intn(8) {
		case 0: // toggle a path
			i := rng.Intn(len(specs))
			if active[i] {
				db.unreplicate(t, specs[i].path, specs[i].strat)
				active[i] = false
			} else {
				db.replicate(specs[i].path, specs[i].strat)
				active[i] = true
			}
		case 1:
			nameCtr++
			emps = append(emps, db.insert("Emp1", map[string]schema.Value{
				"name": str(fmt.Sprintf("x%d", nameCtr)), "age": num(0), "salary": num(0),
				"dept": ref(depts[rng.Intn(len(depts))]),
			}))
		case 2:
			if len(emps) < 3 {
				continue
			}
			i := rng.Intn(len(emps))
			if err := db.remove("Emp1", emps[i]); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			emps = append(emps[:i], emps[i+1:]...)
		case 3:
			if err := db.update("Emp1", emps[rng.Intn(len(emps))], map[string]schema.Value{"dept": ref(depts[rng.Intn(len(depts))])}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 4:
			if err := db.update("Dept", depts[rng.Intn(len(depts))], map[string]schema.Value{"org": ref(orgs[rng.Intn(3)])}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		case 5:
			nameCtr++
			if err := db.update("Dept", depts[rng.Intn(len(depts))], map[string]schema.Value{"name": str(fmt.Sprintf("r%d", nameCtr)), "budget": num(int64(rng.Intn(100)))}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		default:
			nameCtr++
			if err := db.update("Org", orgs[rng.Intn(3)], map[string]schema.Value{"name": str(fmt.Sprintf("g%d", nameCtr))}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if step%20 == 19 {
			if errs := db.mgr.Verify(); len(errs) > 0 {
				for _, e := range errs {
					t.Error(e)
				}
				t.Fatalf("step %d: invariant violated (active paths: %v)", step, active)
			}
		}
	}
	db.verify()
}
