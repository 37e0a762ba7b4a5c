package engine

import (
	"fmt"
	"os"
	"sort"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// The fault soak drives the same operation script against a store that
// fails exactly one I/O, for every possible position of that failure, and
// checks that afterwards the database is indistinguishable (by value) from
// an oracle that ran only the operations that succeeded. A fault inside a
// DML statement rolls the statement back, and a fault inside a schema
// operation rolls back its open chunk and tears down the path it was
// building, so the comparison must hold as is — a clean replication
// invariant and no Repair.
//
// Objects are addressed by logical name, never by OID: a failed insert is
// rolled back and later allocations drift, so OIDs differ between runs while
// the visible values must not.

// soakOp is one engine call of the soak script.
type soakOp struct {
	name string
	run  func(db *DB, oids map[string]pagefile.OID) error
}

// soakOID resolves a logical name; it fails when the object's insert failed
// earlier in the same run, which makes every dependent op fail identically
// in the faulty run and the oracle.
func soakOID(oids map[string]pagefile.OID, key string) (pagefile.OID, error) {
	oid, ok := oids[key]
	if !ok {
		return pagefile.OID{}, fmt.Errorf("soak: object %q does not exist", key)
	}
	return oid, nil
}

// faultSoakScript is the deterministic workload: schema, data, three
// replication strategies (in-place, separate, collapsed), then updates that
// propagate, reference moves, a delete, and a late insert.
func faultSoakScript() []soakOp {
	ins := func(key, set string, mk func(o map[string]pagefile.OID) (map[string]schema.Value, error)) soakOp {
		return soakOp{name: "insert " + key, run: func(db *DB, o map[string]pagefile.OID) error {
			vals, err := mk(o)
			if err != nil {
				return err
			}
			oid, err := db.Insert(set, vals)
			if err != nil {
				return err
			}
			o[key] = oid
			return nil
		}}
	}
	upd := func(key, set string, mk func(o map[string]pagefile.OID) (map[string]schema.Value, error)) soakOp {
		return soakOp{name: "update " + key, run: func(db *DB, o map[string]pagefile.OID) error {
			oid, err := soakOID(o, key)
			if err != nil {
				return err
			}
			vals, err := mk(o)
			if err != nil {
				return err
			}
			return db.Update(set, oid, vals)
		}}
	}
	scalars := func(vals map[string]schema.Value) func(map[string]pagefile.OID) (map[string]schema.Value, error) {
		return func(map[string]pagefile.OID) (map[string]schema.Value, error) { return vals, nil }
	}
	withRef := func(field, target string, vals map[string]schema.Value) func(map[string]pagefile.OID) (map[string]schema.Value, error) {
		return func(o map[string]pagefile.OID) (map[string]schema.Value, error) {
			oid, err := soakOID(o, target)
			if err != nil {
				return nil, err
			}
			out := map[string]schema.Value{field: ref(oid)}
			for k, v := range vals {
				out[k] = v
			}
			return out, nil
		}
	}
	emp := func(key, dept string, age, salary int64) soakOp {
		return ins(key, "Emp1", withRef("dept", dept, map[string]schema.Value{
			"name": str(key), "age": num(age), "salary": num(salary),
		}))
	}

	ddl := func(name string, run func(db *DB) error) soakOp {
		return soakOp{name: name, run: func(db *DB, _ map[string]pagefile.OID) error { return run(db) }}
	}

	return []soakOp{
		ddl("define types", func(db *DB) error {
			if err := db.DefineType("ORG", []schema.Field{
				{Name: "name", Kind: schema.KindString},
				{Name: "budget", Kind: schema.KindInt},
			}); err != nil {
				return err
			}
			if err := db.DefineType("DEPT", []schema.Field{
				{Name: "name", Kind: schema.KindString},
				{Name: "budget", Kind: schema.KindInt},
				{Name: "org", Kind: schema.KindRef, RefType: "ORG"},
			}); err != nil {
				return err
			}
			return db.DefineType("EMP", []schema.Field{
				{Name: "name", Kind: schema.KindString},
				{Name: "age", Kind: schema.KindInt},
				{Name: "salary", Kind: schema.KindInt},
				{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"},
			})
		}),
		ddl("create Org", func(db *DB) error { return db.CreateSet("Org", "ORG") }),
		ddl("create Dept", func(db *DB) error { return db.CreateSet("Dept", "DEPT") }),
		ddl("create Emp1", func(db *DB) error { return db.CreateSet("Emp1", "EMP") }),

		ins("o1", "Org", scalars(map[string]schema.Value{"name": str("exo"), "budget": num(9000)})),
		ins("o2", "Org", scalars(map[string]schema.Value{"name": str("initech"), "budget": num(4000)})),
		ins("d1", "Dept", withRef("org", "o1", map[string]schema.Value{"name": str("toys"), "budget": num(100)})),
		ins("d2", "Dept", withRef("org", "o1", map[string]schema.Value{"name": str("shoes"), "budget": num(200)})),
		ins("d3", "Dept", withRef("org", "o2", map[string]schema.Value{"name": str("tools"), "budget": num(300)})),
		emp("e1", "d1", 30, 1000),
		emp("e2", "d1", 31, 2000),
		emp("e3", "d2", 32, 3000),
		emp("e4", "d2", 33, 4000),
		emp("e5", "d3", 34, 5000),
		emp("e6", "d3", 35, 6000),

		ddl("replicate dept.name", func(db *DB) error {
			return db.Replicate("Emp1.dept.name", catalog.InPlace)
		}),
		ddl("replicate dept.budget", func(db *DB) error {
			return db.Replicate("Emp1.dept.budget", catalog.Separate)
		}),
		ddl("replicate dept.org.name", func(db *DB) error {
			return db.Replicate("Emp1.dept.org.name", catalog.InPlace, catalog.WithCollapsed())
		}),

		upd("d1", "Dept", scalars(map[string]schema.Value{"budget": num(111)})),
		upd("o1", "Org", scalars(map[string]schema.Value{"name": str("megacorp")})),
		upd("e2", "Emp1", withRef("dept", "d2", nil)), // source ref move
		upd("d3", "Dept", withRef("org", "o1", nil)),  // intermediate ref move
		upd("d2", "Dept", scalars(map[string]schema.Value{"name": str("shoes2")})),
		{name: "delete e4", run: func(db *DB, o map[string]pagefile.OID) error {
			oid, err := soakOID(o, "e4")
			if err != nil {
				return err
			}
			if err := db.Delete("Emp1", oid); err != nil {
				return err
			}
			delete(o, "e4")
			return nil
		}},
		emp("e7", "d2", 26, 7000),
		upd("e7", "Emp1", scalars(map[string]schema.Value{"salary": num(7700)})),
		upd("o2", "Org", scalars(map[string]schema.Value{"budget": num(4444)})),
	}
}

// soakSnapshot renders every visible value in the database as sorted
// strings. OIDs are deliberately excluded: two runs that unwound different
// failed inserts allocate differently but must agree on values. Dotted
// projections read through whatever replicated structures exist, so a
// repaired path and the oracle's plain functional join must coincide.
func soakSnapshot(t *testing.T, db *DB) []string {
	t.Helper()
	var rows []string
	dump := func(set string, project []string) {
		if _, ok := db.cat.SetByName(set); !ok {
			rows = append(rows, set+": <absent>")
			return
		}
		res, _, err := db.Query(nil, Query{Set: set, Project: project})
		if err != nil {
			t.Fatalf("snapshot query on %s: %v", set, err)
		}
		for _, r := range res.Rows {
			rows = append(rows, fmt.Sprintf("%s: %v", set, r.Values))
		}
	}
	dump("Org", []string{"name", "budget"})
	dump("Dept", []string{"name", "budget", "org.name", "org.budget"})
	dump("Emp1", []string{"name", "age", "salary", "dept.name", "dept.budget", "dept.org.name"})
	sort.Strings(rows)
	return rows
}

// runSoakScript executes the script, recording which ops succeeded. The
// buffer pool is dropped after every op so each one really reads and writes
// the store — otherwise the whole working set stays cached and the fault
// stream would only ever see file-creation allocates. A reset that fails
// under an injected fault leaves the frame dirty and resident; the next
// reset (or Close) retries it, so ignoring the error loses nothing.
func runSoakScript(db *DB, script []soakOp, succeeded []bool) (map[string]pagefile.OID, int) {
	oids := make(map[string]pagefile.OID)
	n := 0
	for i, op := range script {
		if err := op.run(db, oids); err == nil {
			if succeeded != nil {
				succeeded[i] = true
			}
			n++
		}
		_ = db.ColdCache()
	}
	return oids, n
}

// runFaultSoakAt runs the script with a single transient fault at operation
// index faultAt and compares against a fault-free oracle that applies exactly
// the ops that succeeded. Returns how many ops succeeded.
func runFaultSoakAt(t *testing.T, script []soakOp, faultAt int64, dir string) int {
	t.Helper()
	db, fs := openFaultDB(t, dir, 8)
	defer db.Close()
	// Open's own store traffic is not part of the fault stream.
	fs.AddFault(pagefile.Fault{Index: fs.Ops() + faultAt, Op: pagefile.OpAny})

	succeeded := make([]bool, len(script))
	_, n := runSoakScript(db, script, succeeded)

	// The transient fault is over; from here every I/O works.
	fs.ClearFaults()
	if b := db.cat.Building(); len(b) > 0 {
		t.Fatalf("fault@%d: %d paths left building", faultAt, len(b))
	}
	if errs := db.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("fault@%d: VerifyReplication: %v", faultAt, errs)
	}

	// Oracle: a pristine engine running only the ops that succeeded above.
	// An op that succeeded on the faulty run but fails here is itself a
	// divergence (the faulty run accepted work it could not have done).
	odb, err := Open(Config{PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer odb.Close()
	ooids := make(map[string]pagefile.OID)
	for i, op := range script {
		if !succeeded[i] {
			continue
		}
		if err := op.run(odb, ooids); err != nil {
			t.Fatalf("fault@%d: op %q succeeded under fault but fails on the oracle: %v", faultAt, op.name, err)
		}
	}

	got, want := soakSnapshot(t, db), soakSnapshot(t, odb)
	if len(got) != len(want) {
		t.Fatalf("fault@%d: %d rows, oracle has %d\n got: %v\nwant: %v",
			faultAt, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("fault@%d: row %d = %q, oracle has %q", faultAt, i, got[i], want[i])
		}
	}
	return n
}

// TestFaultSoak injects one transient I/O failure at every faultSoakStride'th
// operation index of the calibration run, on an in-memory and on a
// file-backed database. The exhaustive version (stride 1) runs under -tags
// soak (make soak).
func TestFaultSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("fault soak skipped in -short mode")
	}
	onBothStores(t, faultSoak)
}

func faultSoak(t *testing.T, dir string) {
	script := faultSoakScript()
	// Every run opens a new database: in memory when dir is empty, otherwise
	// in a fresh directory under it.
	fresh := func() string {
		if dir == "" {
			return ""
		}
		d, err := os.MkdirTemp(dir, "run")
		if err != nil {
			t.Fatal(err)
		}
		return d
	}

	// Calibration: fault-free run to size the operation stream.
	db, fs := openFaultDB(t, fresh(), 8)
	base := fs.Ops()
	if _, n := runSoakScript(db, script, nil); n != len(script) {
		t.Fatalf("calibration: only %d/%d ops succeeded without faults", n, len(script))
	}
	total := fs.Ops() - base
	db.Close()
	if total == 0 {
		t.Fatal("calibration run performed no store operations")
	}
	t.Logf("calibration: %d ops, %d store operations, stride %d", len(script), total, faultSoakStride)

	sawFailure := false
	for i := int64(0); i < total; i += faultSoakStride {
		if n := runFaultSoakAt(t, script, i, fresh()); n < len(script) {
			sawFailure = true
		}
	}
	if !sawFailure {
		t.Error("no sampled fault index made any operation fail; the soak is not exercising anything")
	}
}
