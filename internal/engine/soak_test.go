package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestSoakEverything is a long randomized run with every feature active at
// once — all strategies, collapsing, deferral, path and base indexes,
// teardown/rebuild, bulk updates, and queries cross-checked between indexed
// and scan plans — verifying the replication invariant throughout. Every so
// often a DML statement runs from a cold cache against a store that fails one
// of its next few I/Os: the statement may fail, and must then have rolled back
// — no taint, invariant clean, no Repair — on an in-memory and on a
// file-backed database.
func TestSoakEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	onBothStores(t, soakEverything)
}

func soakEverything(t *testing.T, dir string) {
	db, fs := openFaultDB(t, dir, 2048)
	t.Cleanup(func() { db.Close() })
	defineEmployeeSchema(t, db)
	rng := rand.New(rand.NewSource(8191))

	var orgs, depts, emps []pagefile.OID
	for i := 0; i < 8; i++ {
		oid, err := db.Insert("Org", map[string]schema.Value{
			"name": str(fmt.Sprintf("org-%02d", i)), "budget": num(int64(i * 10)),
		})
		if err != nil {
			t.Fatal(err)
		}
		orgs = append(orgs, oid)
	}
	for i := 0; i < 24; i++ {
		oid, err := db.Insert("Dept", map[string]schema.Value{
			"name": str(fmt.Sprintf("dept-%02d", i)), "budget": num(int64(i)),
			"org": ref(orgs[rng.Intn(len(orgs))]),
		})
		if err != nil {
			t.Fatal(err)
		}
		depts = append(depts, oid)
	}
	for i := 0; i < 150; i++ {
		oid, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("emp-%04d", i)), "age": num(int64(20 + i%45)),
			"salary": num(int64(40000 + i*137)), "dept": ref(depts[rng.Intn(len(depts))]),
		})
		if err != nil {
			t.Fatal(err)
		}
		emps = append(emps, oid)
	}
	var emps2 []pagefile.OID
	for i := 0; i < 30; i++ {
		oid, err := db.Insert("Emp2", map[string]schema.Value{
			"name": str(fmt.Sprintf("e2-%04d", i)), "age": num(int64(20 + i%45)),
			"salary": num(int64(40000 + i*211)), "dept": ref(depts[rng.Intn(len(depts))]),
		})
		if err != nil {
			t.Fatal(err)
		}
		emps2 = append(emps2, oid)
	}
	if err := db.BuildIndex("soak_salary", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}

	type pathToggle struct {
		path   string
		strat  catalog.Strategy
		opts   []catalog.PathOption
		active bool
	}
	paths := []*pathToggle{
		{path: "Emp1.dept.name", strat: catalog.InPlace},
		{path: "Emp1.dept.budget", strat: catalog.Separate},
		{path: "Emp1.dept.org.name", strat: catalog.InPlace, opts: []catalog.PathOption{catalog.WithDeferred()}},
		{path: "Emp1.dept.org.budget", strat: catalog.Separate},
		{path: "Emp2.dept.org.name", strat: catalog.InPlace, opts: []catalog.PathOption{catalog.WithCollapsed()}},
	}
	pathIndexBuilt := false

	verify := func(step int) {
		t.Helper()
		if errs := db.VerifyReplication(); len(errs) > 0 {
			for _, e := range errs {
				t.Error(e)
			}
			t.Fatalf("step %d: invariant violated", step)
		}
	}
	crossCheck := func(step int) {
		t.Helper()
		lo := int64(40000 + rng.Intn(15000))
		where := &Pred{Expr: "salary", Op: OpBetween, Value: num(lo), Value2: num(lo + 5000)}
		q := Query{Set: "Emp1", Project: []string{"name", "dept.name", "dept.org.name"}, Where: where}
		idx, _, err := db.Query(nil, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		q.ForceScan = true
		scan, _, err := db.Query(nil, q)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(idx.Rows) != len(scan.Rows) {
			t.Fatalf("step %d: index plan %d rows, scan plan %d rows", step, len(idx.Rows), len(scan.Rows))
		}
		byOID := map[pagefile.OID][]schema.Value{}
		for _, r := range scan.Rows {
			byOID[r.OID] = r.Values
		}
		for _, r := range idx.Rows {
			want, ok := byOID[r.OID]
			if !ok {
				t.Fatalf("step %d: index-only row %v", step, r.OID)
			}
			for i := range want {
				if !r.Values[i].Equal(want[i]) {
					t.Fatalf("step %d: plans disagree at %v col %d: %v vs %v", step, r.OID, i, r.Values[i], want[i])
				}
			}
		}
	}

	// dml runs one statement, one time in eight under an injected fault. It
	// reports whether the statement took effect; a statement the fault failed
	// must have left nothing behind.
	faulted := 0
	dml := func(step int, op func() error) bool {
		t.Helper()
		inject := rng.Intn(8) == 0
		if inject {
			if err := db.ColdCache(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			fs.AddFault(pagefile.Fault{Index: fs.Ops() + int64(rng.Intn(6)), Op: pagefile.OpAny})
		}
		err := op()
		fs.ClearFaults()
		if err == nil {
			return true
		}
		if !inject || !errors.Is(err, pagefile.ErrInjected) {
			t.Fatalf("step %d: %v", step, err)
		}
		faulted++
		if ts := db.TaintedSets(); len(ts) > 0 {
			t.Fatalf("step %d: failed statement tainted %v", step, ts)
		}
		verify(step)
		return false
	}

	n := 0
	const steps = 1200
	for step := 0; step < steps; step++ {
		switch rng.Intn(12) {
		case 0: // toggle a replication path
			p := paths[rng.Intn(len(paths))]
			if p.active {
				if p.path == "Emp1.dept.org.name" && pathIndexBuilt {
					if err := db.DropIndex("soak_orgname"); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					pathIndexBuilt = false
				}
				if err := db.Unreplicate(p.path, p.strat); err != nil {
					t.Fatalf("step %d: unreplicate %s: %v", step, p.path, err)
				}
				p.active = false
			} else {
				if err := db.Replicate(p.path, p.strat, p.opts...); err != nil {
					t.Fatalf("step %d: replicate %s: %v", step, p.path, err)
				}
				p.active = true
			}
		case 1: // toggle the path index when its path is active
			if paths[2].active && !pathIndexBuilt {
				if err := db.BuildIndex("soak_orgname", "Emp1", "dept.org.name", false); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				pathIndexBuilt = true
			} else if pathIndexBuilt {
				if err := db.DropIndex("soak_orgname"); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				pathIndexBuilt = false
			}
		case 2:
			n++
			vals := map[string]schema.Value{
				"name": str(fmt.Sprintf("new-%04d", n)), "age": num(int64(rng.Intn(60))),
				"salary": num(int64(40000 + rng.Intn(25000))), "dept": ref(depts[rng.Intn(len(depts))]),
			}
			var oid pagefile.OID
			if dml(step, func() (err error) { oid, err = db.Insert("Emp1", vals); return }) {
				emps = append(emps, oid)
			}
		case 3:
			if len(emps) < 20 {
				continue
			}
			i := rng.Intn(len(emps))
			if dml(step, func() error { return db.Delete("Emp1", emps[i]) }) {
				emps = append(emps[:i], emps[i+1:]...)
			}
		case 4:
			target := ref(depts[rng.Intn(len(depts))])
			if rng.Intn(10) == 0 && !paths[4].active {
				// Null refs only while the collapsed path is down.
				target = ref(pagefile.NilOID)
			}
			emp := emps[rng.Intn(len(emps))]
			dml(step, func() error { return db.Update("Emp1", emp, map[string]schema.Value{"dept": target}) })
		case 5:
			dept, org := depts[rng.Intn(len(depts))], orgs[rng.Intn(len(orgs))]
			dml(step, func() error { return db.Update("Dept", dept, map[string]schema.Value{"org": ref(org)}) })
		case 6:
			n++
			dept, vals := depts[rng.Intn(len(depts))], map[string]schema.Value{
				"name": str(fmt.Sprintf("dr-%04d", n)), "budget": num(int64(rng.Intn(500))),
			}
			dml(step, func() error { return db.Update("Dept", dept, vals) })
		case 7:
			n++
			org, vals := orgs[rng.Intn(len(orgs))], map[string]schema.Value{
				"name": str(fmt.Sprintf("or-%04d", n)), "budget": num(int64(rng.Intn(500))),
			}
			dml(step, func() error { return db.Update("Org", org, vals) })
		case 8:
			where := Pred{Expr: "age", Op: OpEQ, Value: num(int64(20 + rng.Intn(45)))}
			vals := map[string]schema.Value{"salary": num(int64(40000 + rng.Intn(25000)))}
			dml(step, func() error { _, _, err := db.UpdateWhere(nil, "Emp1", where, vals); return err })
		case 9:
			// Emp2 traffic exercises the collapsed path (never null refs).
			if rng.Intn(2) == 0 && len(emps2) > 5 {
				emp, dept := emps2[rng.Intn(len(emps2))], depts[rng.Intn(len(depts))]
				dml(step, func() error { return db.Update("Emp2", emp, map[string]schema.Value{"dept": ref(dept)}) })
			} else {
				if err := db.FlushReplication(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
		case 10:
			if rng.Intn(3) == 0 {
				if err := db.ColdCache(); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
			}
			crossCheck(step)
		default:
			if _, _, err := db.Query(nil, Query{
				Set:     "Emp1",
				Project: []string{"name", "dept.name", "dept.budget", "dept.org.name", "dept.org.budget"},
				Where:   &Pred{Expr: "age", Op: OpGE, Value: num(int64(rng.Intn(60)))},
				Filters: []Pred{{Expr: "salary", Op: OpGE, Value: num(40000)}},
			}); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		if step%100 == 99 {
			verify(step)
		}
	}
	verify(steps)
	crossCheck(steps)
	if faulted == 0 {
		t.Error("no injected fault failed a statement; the soak is not exercising rollback")
	}
	t.Logf("%d statements failed under an injected fault and rolled back", faulted)
}
