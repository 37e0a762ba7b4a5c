package engine

import (
	"errors"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// The DDL crash matrix crashes the store at every store operation of a schema
// operation, on a pool of 8 pages so the build spans many chunks, then
// reopens the directory. Whatever the crash point, the reopened database has
// no path left building, verifies clean with no Repair, accepts an update of
// every object the path spans (reference moves included), and the operation
// retried — when its effect did not survive — succeeds and verifies clean.

const ddlCrashPath = "Emp1.dept.org.name"

// ddlCrashCase is one schema operation of the matrix. prep runs before it and
// is made durable; done reports whether the operation's effect is in place.
type ddlCrashCase struct {
	name string
	prep func(db *DB) error
	ddl  func(db *DB) error
	done func(db *DB) bool
}

func ddlCrashCases() []ddlCrashCase {
	spec, _ := catalog.ParsePathSpec(ddlCrashPath)
	has := func(strategy catalog.Strategy) func(db *DB) bool {
		return func(db *DB) bool { _, ok := db.cat.FindPath(spec, strategy); return ok }
	}
	hasNot := func(strategy catalog.Strategy) func(db *DB) bool {
		return func(db *DB) bool { _, ok := db.cat.FindPath(spec, strategy); return !ok }
	}
	replicate := func(strategy catalog.Strategy, opts ...catalog.PathOption) func(db *DB) error {
		return func(db *DB) error { return db.Replicate(ddlCrashPath, strategy, opts...) }
	}
	unreplicate := func(strategy catalog.Strategy) func(db *DB) error {
		return func(db *DB) error { return db.Unreplicate(ddlCrashPath, strategy) }
	}
	index := func(name, expr string) func(db *DB) error {
		return func(db *DB) error { return db.BuildIndex(name, "Emp1", expr, false) }
	}
	hasIndex := func(name string) func(db *DB) bool {
		return func(db *DB) bool { _, ok := db.cat.IndexByName(name); return ok }
	}
	collapsed := catalog.WithCollapsed()
	return []ddlCrashCase{
		{"replicate/in-place", nil, replicate(catalog.InPlace), has(catalog.InPlace)},
		{"replicate/separate", nil, replicate(catalog.Separate), has(catalog.Separate)},
		{"replicate/collapsed", nil, replicate(catalog.InPlace, collapsed), has(catalog.InPlace)},
		{"unreplicate/in-place", replicate(catalog.InPlace), unreplicate(catalog.InPlace), hasNot(catalog.InPlace)},
		{"unreplicate/separate", replicate(catalog.Separate), unreplicate(catalog.Separate), hasNot(catalog.Separate)},
		{"unreplicate/collapsed", replicate(catalog.InPlace, collapsed), unreplicate(catalog.InPlace), hasNot(catalog.InPlace)},
		{"build-index/base", nil, index("sal", "salary"), hasIndex("sal")},
		{"build-index/path", replicate(catalog.InPlace), index("orgname", "dept.org.name"), hasIndex("orgname")},
	}
}

// ddlCrashEmps is the employee count of the matrix's database: enough that
// the sets and the derived files are several times the pool.
const ddlCrashEmps = 600

// ddlCheckPool is the pool the crashed directory is reopened with: the checks
// run statements that propagate an organization's name to hundreds of
// employees, and a statement's dirty pages must fit the pool.
const ddlCheckPool = 64

// openDDLCrashDB opens a fault-injecting, file-backed database in dir with
// the employee schema, 2 orgs, 6 depts and ddlCrashEmps employees, runs prep,
// and makes all of it durable with a cold pool, so the operation that
// follows does real store I/O from its first page.
func openDDLCrashDB(t *testing.T, dir string, prep func(*DB) error) (*DB, *pagefile.FaultStore) {
	t.Helper()
	db, fs := openFaultDB(t, dir, 8)
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 6, 0)
	txn, err := db.BeginSets(nil, "Emp1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < ddlCrashEmps; i++ {
		if _, err := txn.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("emp-%03d", i)), "age": num(30), "salary": num(int64(i)), "dept": ref(st.depts[i%6]),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if prep != nil {
		if err := prep(db); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	return db, fs
}

// checkAfterDDLCrash holds a reopened database to the matrix's promises.
func checkAfterDDLCrash(t *testing.T, db *DB, c ddlCrashCase) {
	t.Helper()
	if b := db.cat.Building(); len(b) > 0 {
		t.Fatalf("%d paths still building after reopen", len(b))
	}
	verifyDB(t, db)
	touchEveryObject(t, db)
	verifyDB(t, db)
	if !c.done(db) {
		if err := c.ddl(db); err != nil {
			t.Fatalf("retrying %s: %v", c.name, err)
		}
		if !c.done(db) {
			t.Fatalf("the retried %s left no effect", c.name)
		}
		verifyDB(t, db)
	}
	for _, q := range []Query{
		{Set: "Emp1", Project: []string{"name", "salary"}, Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(1040), Value2: num(1099)}},
		{Set: "Emp1", Project: []string{"name", "dept.org.name"}, Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-01!")}},
	} {
		assertSameAsScan(t, db, q)
	}
}

// touchEveryObject updates every object of the three sets, moving each
// department to the other organization and each employee to the next
// department, and renames and re-budgets along the way.
func touchEveryObject(t *testing.T, db *DB) {
	t.Helper()
	oids := func(set string) []pagefile.OID {
		var out []pagefile.OID
		f, err := db.readSess(nil).SetFile(set)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Scan(func(oid pagefile.OID, _ []byte) error {
			out = append(out, oid)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	orgs, depts, emps := oids("Org"), oids("Dept"), oids("Emp1")
	update := func(set string, oid pagefile.OID, vals map[string]schema.Value) {
		t.Helper()
		if err := db.Update(set, oid, vals); err != nil {
			t.Fatalf("update %s %v: %v", set, oid, err)
		}
	}
	for i, oid := range orgs {
		update("Org", oid, map[string]schema.Value{"name": str(fmt.Sprintf("org-%02d!", i)), "budget": num(int64(7 + i))})
	}
	for i, oid := range depts {
		update("Dept", oid, map[string]schema.Value{"name": str(fmt.Sprintf("dept-%02d!", i)), "org": ref(orgs[(i+1)%len(orgs)])})
	}
	for i, oid := range emps {
		update("Emp1", oid, map[string]schema.Value{"dept": ref(depts[(i+1)%len(depts)]), "salary": num(int64(1000 + i))})
	}
}

// assertSameAsScan runs q as planned and with ForceScan; both must return the
// same rows.
func assertSameAsScan(t *testing.T, db *DB, q Query) {
	t.Helper()
	rows := func(q Query) []string {
		res, _, err := db.Query(nil, q)
		if err != nil {
			t.Fatalf("query %+v: %v", q, err)
		}
		var out []string
		for _, r := range res.Rows {
			out = append(out, fmt.Sprint(r.Values))
		}
		slices.Sort(out)
		return out
	}
	planned := rows(q)
	q.ForceScan = true
	if scanned := rows(q); !slices.Equal(planned, scanned) {
		t.Fatalf("query %+v: %d rows as planned, %d by a scan\nplanned: %v\nscanned: %v", q, len(planned), len(scanned), planned, scanned)
	}
}

// TestDDLCrashMatrix crashes each operation of ddlCrashCases at every
// faultSoakStride'th store operation (every one under -tags soak, make soak).
func TestDDLCrashMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix skipped in -short mode")
	}
	for _, c := range ddlCrashCases() {
		t.Run(c.name, func(t *testing.T) {
			db, fs := openDDLCrashDB(t, t.TempDir(), c.prep)
			before := fs.Ops()
			if err := c.ddl(db); err != nil {
				t.Fatal(err)
			}
			ops := fs.Ops() - before
			db.Close()
			if ops < 10 {
				t.Fatalf("the operation did only %d store operations", ops)
			}
			crashed := 0
			for at := int64(0); at < ops; at += faultSoakStride {
				dir := t.TempDir()
				db, fs := openDDLCrashDB(t, dir, c.prep)
				fs.AddFault(pagefile.Fault{Index: fs.Ops() + at, Op: pagefile.OpAny, Crash: true})
				if err := c.ddl(db); err != nil {
					if !errors.Is(err, pagefile.ErrInjected) {
						t.Fatalf("crash@%d: %v", at, err)
					}
					crashed++
				}
				db.CrashStop()
				re, err := Open(Config{Dir: dir, PoolPages: ddlCheckPool})
				if err != nil {
					t.Fatalf("crash@%d: reopen: %v", at, err)
				}
				t.Run(fmt.Sprintf("crash@%d", at), func(t *testing.T) { checkAfterDDLCrash(t, re, c) })
				if err := re.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if crashed == 0 {
				t.Fatal("no crash point failed the operation")
			}
			t.Logf("%d store operations, %d crash points failed the operation", ops, crashed)
		})
	}
}

// TestDDLDoubleFault fails a Replicate two thirds into its build, then fails
// the compensating teardown: the path stays building, statements run beside
// it — moving references away from objects that carry its pairs — and both
// the next schema operation and a reopen tear it down.
func TestDDLDoubleFault(t *testing.T) {
	c := ddlCrashCases()[0]
	calib, fs := openDDLCrashDB(t, t.TempDir(), nil)
	before := fs.Ops()
	if err := c.ddl(calib); err != nil {
		t.Fatal(err)
	}
	buildOps := fs.Ops() - before
	calib.Close()
	for _, reopen := range []bool{false, true} {
		t.Run(fmt.Sprintf("reopen=%v", reopen), func(t *testing.T) {
			dir := t.TempDir()
			db, fs := openDDLCrashDB(t, dir, nil)
			first := fs.Ops() + buildOps*2/3
			fs.AddFault(pagefile.Fault{Index: first, Op: pagefile.OpAny})
			// The teardown scans every set the path spans; a fault a few store
			// operations past the first lands in it.
			fs.AddFault(pagefile.Fault{Index: first + 3, Op: pagefile.OpAny})
			if err := c.ddl(db); err == nil {
				t.Fatal("Replicate succeeded through two faults")
			}
			fs.ClearFaults()
			if len(db.cat.Building()) == 0 {
				t.Fatal("the second fault did not fail the compensating teardown")
			}
			if n, err := db.Count("Emp1"); err != nil || n != ddlCrashEmps {
				t.Fatalf("Count with a path left building: %d, %v", n, err)
			}
			touchEveryObject(t, db)
			if reopen {
				db.CrashStop()
				var err error
				if db, err = Open(Config{Dir: dir, PoolPages: ddlCheckPool}); err != nil {
					t.Fatal(err)
				}
			} else if err := db.DefineType("LATER", []schema.Field{{Name: "x", Kind: schema.KindInt}}); err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			checkAfterDDLCrash(t, db, c)
		})
	}
}

// TestDropIndexSurvivesCrash: a dropped index stays dropped across a crash,
// however durable the index was before it was dropped, so rows inserted
// after the drop are never missing from an indexed query.
func TestDropIndexSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 10)
	if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("sal"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Insert("Emp1", map[string]schema.Value{"name": str("late"), "salary": num(4242), "dept": ref(st.depts[0])}); err != nil {
		t.Fatal(err)
	}
	db.CrashStop()

	db, err = Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, ok := db.cat.IndexByName("sal"); ok {
		t.Fatal("the dropped index came back")
	}
	q := Query{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "salary", Op: OpEQ, Value: num(4242)}}
	assertSameAsScan(t, db, q)
	if res, _, err := db.Query(nil, q); err != nil || len(res.Rows) != 1 {
		t.Fatalf("%v rows, %v; want the row inserted after the drop", res, err)
	}
}

// TestDefineTypeSurvivesCrash: an acknowledged type is durable.
func TestDefineTypeSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DefineType("T", []schema.Field{{Name: "x", Kind: schema.KindInt}}); err != nil {
		t.Fatal(err)
	}
	db.CrashStop()
	db, err = Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.CreateSet("S", "T"); err != nil {
		t.Fatalf("CreateSet on the type defined before the crash: %v", err)
	}
}

// TestLegacyTaintedCatalogRederived opens a directory whose catalog carries
// the taint markers earlier versions recorded, over replicated state that is
// indeed stale: Open re-derives it once and rewrites the catalog without
// them.
func TestLegacyTaintedCatalogRederived(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 4, 20)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// What such a version left behind: a hidden value no log record covers,
	// written behind the log's back.
	db, err = Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	p := db.cat.Paths()[0]
	emp, err := db.readSess(nil).readObject(st.emps[0], p.Types[0])
	if err != nil {
		t.Fatal(err)
	}
	emp.SetHidden(p.ID, 0, str("stale"))
	if err := db.files[st.emps[0].File].Update(st.emps[0], emp.Encode()); err != nil {
		t.Fatal(err)
	}
	if errs := db.VerifyReplication(); len(errs) != 1 {
		t.Fatalf("the stale value shows as %d violations, want 1", len(errs))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// ... and the marker naming its set.
	path := dir + "/" + catalogFileName
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = []byte(strings.Replace(string(data), `"next_tag"`, `"tainted": {"Emp1": "injected fault"},
  "next_tag"`, 1))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || strings.Contains(string(data), "tainted") {
		t.Fatalf("the rewritten catalog still carries taint markers (%v)", err)
	}
}

// TestEmptyIndexSurvivesCrash: an index built on an empty set logs the
// tree's two initial pages like any other, so a crash right after it leaves
// an index that opens and maintains itself.
func TestEmptyIndexSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	db.CrashStop()
	db, err = Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Insert("Emp1", map[string]schema.Value{"name": str("x"), "salary": num(7)}); err != nil {
		t.Fatal(err)
	}
	q := Query{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "salary", Op: OpEQ, Value: num(7)}}
	res, _, err := db.Query(nil, q)
	if err != nil || len(res.Rows) != 1 || res.UsedIndex != "sal" {
		t.Fatalf("%v through %q (%v), want one row through sal", res, res.UsedIndex, err)
	}
}
