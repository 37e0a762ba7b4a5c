package engine

import (
	"errors"
	"fmt"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/core"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

func str(s string) schema.Value       { return schema.StringValue(s) }
func num(i int64) schema.Value        { return schema.IntValue(i) }
func ref(o pagefile.OID) schema.Value { return schema.RefValue(o) }

// openEmployeeDB builds the Figure 1 database in a fresh engine.
func openEmployeeDB(t *testing.T, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	defineEmployeeSchema(t, db)
	return db
}

// onBothStores runs fn as two subtests: against an in-memory database
// (dir "") and against a file-backed, logged one in a fresh directory.
func onBothStores(t *testing.T, fn func(t *testing.T, dir string)) {
	t.Run("in-memory", func(t *testing.T) { fn(t, "") })
	t.Run("file-backed", func(t *testing.T) { fn(t, t.TempDir()) })
}

// openFaultDB opens a database over a fault-injecting store: a MemStore when
// dir is empty, otherwise a FileStore in dir (which makes the database
// logged). The caller closes it.
func openFaultDB(t *testing.T, dir string, poolPages int) (*DB, *pagefile.FaultStore) {
	t.Helper()
	var inner pagefile.Store = pagefile.NewMemStore()
	if dir != "" {
		fileStore, err := pagefile.NewFileStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		inner = fileStore
	}
	fs := pagefile.NewFaultStore(inner)
	db, err := Open(Config{Dir: dir, Store: fs, PoolPages: poolPages})
	if err != nil {
		t.Fatal(err)
	}
	return db, fs
}

// defineEmployeeSchema installs the ORG/DEPT/EMP types and their sets.
func defineEmployeeSchema(t testing.TB, db *DB) {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineType("ORG", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
	}))
	must(db.DefineType("DEPT", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "budget", Kind: schema.KindInt},
		{Name: "org", Kind: schema.KindRef, RefType: "ORG"},
	}))
	must(db.DefineType("EMP", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "age", Kind: schema.KindInt},
		{Name: "salary", Kind: schema.KindInt},
		{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"},
	}))
	must(db.CreateSet("Org", "ORG"))
	must(db.CreateSet("Dept", "DEPT"))
	must(db.CreateSet("Emp1", "EMP"))
	must(db.CreateSet("Emp2", "EMP"))
}

type staff struct {
	orgs  []pagefile.OID
	depts []pagefile.OID
	emps  []pagefile.OID
}

func populate(t testing.TB, db *DB, nOrgs, nDepts, nEmps int) staff {
	t.Helper()
	var st staff
	for i := 0; i < nOrgs; i++ {
		oid, err := db.Insert("Org", map[string]schema.Value{
			"name": str(fmt.Sprintf("org-%02d", i)), "budget": num(int64(1000 * i)),
		})
		if err != nil {
			t.Fatal(err)
		}
		st.orgs = append(st.orgs, oid)
	}
	for i := 0; i < nDepts; i++ {
		oid, err := db.Insert("Dept", map[string]schema.Value{
			"name": str(fmt.Sprintf("dept-%02d", i)), "budget": num(int64(100 * i)),
			"org": ref(st.orgs[i%nOrgs]),
		})
		if err != nil {
			t.Fatal(err)
		}
		st.depts = append(st.depts, oid)
	}
	for i := 0; i < nEmps; i++ {
		oid, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("emp-%03d", i)), "age": num(int64(20 + i%40)),
			"salary": num(int64(50000 + 1000*i)), "dept": ref(st.depts[i%nDepts]),
		})
		if err != nil {
			t.Fatal(err)
		}
		st.emps = append(st.emps, oid)
	}
	return st
}

func verifyDB(t testing.TB, db *DB) {
	t.Helper()
	if errs := db.VerifyReplication(); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatal("replication invariant violated")
	}
}

func TestCRUDAndScanQuery(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 20)

	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "salary"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 20 {
		t.Fatalf("full scan returned %d rows", len(res.Rows))
	}
	res, _, err = db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpGT, Value: num(65000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 { // salaries 66k..69k
		t.Fatalf("filtered scan returned %d rows", len(res.Rows))
	}
	if res.UsedIndex != "" {
		t.Fatal("no index exists but one was used")
	}

	// Update and delete round trip.
	if err := db.Update("Emp1", st.emps[0], map[string]schema.Value{"salary": num(1)}); err != nil {
		t.Fatal(err)
	}
	obj, err := db.Get("Emp1", st.emps[0])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obj.Get("salary"); v.I != 1 {
		t.Fatalf("update lost: %v", obj)
	}
	if err := db.Delete("Emp1", st.emps[1]); err != nil {
		t.Fatal(err)
	}
	if n, _ := db.Count("Emp1"); n != 19 {
		t.Fatalf("Count = %d", n)
	}
	if _, err := db.Insert("Nope", nil); !errors.Is(err, ErrNoSuchSet) {
		t.Fatalf("insert into missing set: %v", err)
	}
}

func TestFunctionalJoinProjection(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 8)
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name", "dept.org.name"}})
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		wantDept := fmt.Sprintf("dept-%02d", i%4)
		wantOrg := fmt.Sprintf("org-%02d", (i%4)%2)
		if row.Values[1].S != wantDept || row.Values[2].S != wantOrg {
			t.Fatalf("row %d: %v", i, row.Values)
		}
	}
}

func TestIndexedQuery(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 50)
	if err := db.BuildIndex("emp1_salary", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(60000), Value2: num(64000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "emp1_salary" {
		t.Fatalf("UsedIndex = %q", res.UsedIndex)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("indexed range returned %d rows", len(res.Rows))
	}
	// Index maintenance across update and delete: 60000 moves to 63500
	// (still in range), 61000 is deleted, leaving 4 matches.
	if err := db.Update("Emp1", st.emps[10], map[string]schema.Value{"salary": num(63500)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("Emp1", st.emps[11]); err != nil { // salary 61000
		t.Fatal(err)
	}
	res, _, _ = db.Query(nil, Query{
		Set: "Emp1", Project: []string{"salary"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(60000), Value2: num(64000)},
	})
	if len(res.Rows) != 4 {
		t.Fatalf("after maintenance, indexed range returned %d rows", len(res.Rows))
	}
	// ForceScan agrees with the index.
	res2, _, _ := db.Query(nil, Query{
		Set: "Emp1", Project: []string{"salary"}, ForceScan: true,
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(60000), Value2: num(64000)},
	})
	if len(res2.Rows) != len(res.Rows) {
		t.Fatalf("scan (%d) and index (%d) disagree", len(res2.Rows), len(res.Rows))
	}
}

func TestReplicationAvoidsJoinIO(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 1024})
	// Many wide departments make the functional join expensive relative to
	// scanning Emp1 — the regime the paper targets (R and S relatively
	// unclustered, S spread over many pages).
	var depts []pagefile.OID
	for i := 0; i < 400; i++ {
		oid, err := db.Insert("Dept", map[string]schema.Value{
			"name":   str(fmt.Sprintf("dept-%03d-%s", i, string(make([]byte, 150)))),
			"budget": num(int64(i)), "org": ref(pagefile.NilOID),
		})
		if err != nil {
			t.Fatal(err)
		}
		depts = append(depts, oid)
	}
	for i := 0; i < 400; i++ {
		if _, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("emp-%03d", i)), "age": num(1), "salary": num(1),
			"dept": ref(depts[(i*131)%len(depts)]),
		}); err != nil {
			t.Fatal(err)
		}
	}

	q := Query{Set: "Emp1", Project: []string{"name", "dept.budget"}}
	measure := func() int64 {
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		_, rec, err := db.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		return rec.StoreReads
	}
	before := measure()
	if err := db.Replicate("Emp1.dept.budget", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
	after := measure()
	if after >= before {
		t.Fatalf("in-place replication did not reduce query reads: %d -> %d", before, after)
	}
	// The replicated query must not touch the Dept file at all: its reads
	// are bounded by the Emp1 file size.
	empPages, _ := db.NumPages("Emp1")
	if after > int64(empPages)+2 {
		t.Fatalf("replicated query read %d pages, Emp1 has %d", after, empPages)
	}
}

func TestReplicatedQueryResultsMatchJoins(t *testing.T) {
	for _, strat := range []catalog.Strategy{catalog.InPlace, catalog.Separate} {
		t.Run(strat.String(), func(t *testing.T) {
			db := openEmployeeDB(t, Config{})
			st := populate(t, db, 2, 4, 30)
			baseline, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name", "dept.org.name"}})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Replicate("Emp1.dept.name", strat); err != nil {
				t.Fatal(err)
			}
			if err := db.Replicate("Emp1.dept.org.name", strat); err != nil {
				t.Fatal(err)
			}
			verifyDB(t, db)
			replicated, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name", "dept.org.name"}})
			if err != nil {
				t.Fatal(err)
			}
			if len(baseline.Rows) != len(replicated.Rows) {
				t.Fatalf("row counts differ: %d vs %d", len(baseline.Rows), len(replicated.Rows))
			}
			for i := range baseline.Rows {
				for j := range baseline.Rows[i].Values {
					if !baseline.Rows[i].Values[j].Equal(replicated.Rows[i].Values[j]) {
						t.Fatalf("row %d col %d: %v vs %v", i, j, baseline.Rows[i].Values[j], replicated.Rows[i].Values[j])
					}
				}
			}
			// Results stay equal after updates flow through replication.
			if _, _, err := db.UpdateWhere(nil, "Dept", Pred{Expr: "budget", Op: OpGE, Value: num(0)}, map[string]schema.Value{"name": str("renamed")}); err != nil {
				t.Fatal(err)
			}
			verifyDB(t, db)
			after, _, _ := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name"}})
			for _, row := range after.Rows {
				if row.Values[0].S != "renamed" {
					t.Fatalf("update not visible through replication: %v", row.Values[0])
				}
			}
			_ = st
		})
	}
}

func TestPathIndex(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 3, 6, 60)

	// Path index requires in-place replication first (§3.3.4).
	if err := db.BuildIndex("bad", "Emp1", "dept.org.name", false); err == nil {
		t.Fatal("path index without replication accepted")
	}
	if err := db.Replicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.BuildIndex("emp1_orgname", "Emp1", "dept.org.name", false); err != nil {
		t.Fatal(err)
	}
	res, _, err := db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name", "dept.org.name"},
		Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-01")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "emp1_orgname" {
		t.Fatalf("UsedIndex = %q", res.UsedIndex)
	}
	// org-01 owns depts 1 and 4 of 6; employees are assigned round-robin.
	want := 0
	for i := 0; i < 60; i++ {
		if (i%6)%3 == 1 {
			want++
		}
	}
	if len(res.Rows) != want {
		t.Fatalf("associative lookup returned %d rows, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row.Values[1].S != "org-01" {
			t.Fatalf("row has wrong org: %v", row.Values)
		}
	}

	// The index follows propagation: renaming the org moves all its entries.
	if err := db.Update("Org", st.orgs[1], map[string]schema.Value{"name": str("renamed-org")}); err != nil {
		t.Fatal(err)
	}
	res, _, _ = db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-01")},
	})
	if len(res.Rows) != 0 {
		t.Fatalf("stale index entries: %d", len(res.Rows))
	}
	res, _, _ = db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("renamed-org")},
	})
	if len(res.Rows) != want {
		t.Fatalf("index after rename returned %d rows, want %d", len(res.Rows), want)
	}
	// And it follows deletes and dept moves.
	if err := db.Delete("Emp1", res.Rows[0].OID); err != nil {
		t.Fatal(err)
	}
	res2, _, _ := db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("renamed-org")},
	})
	if len(res2.Rows) != want-1 {
		t.Fatalf("index after delete returned %d rows, want %d", len(res2.Rows), want-1)
	}
	verifyDB(t, db)
}

func TestRefReplicationCollapsesJoins(t *testing.T) {
	// §3.3.3: replicate Emp1.dept.org (a reference attribute); queries on
	// dept.org.* then need one functional join instead of two.
	db := openEmployeeDB(t, Config{PoolPages: 512})
	populate(t, db, 2, 8, 200)
	if err := db.Replicate("Emp1.dept.org", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
	q := Query{Set: "Emp1", Project: []string{"dept.org.name"}}
	res, _, err := db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range res.Rows {
		want := fmt.Sprintf("org-%02d", (i%8)%2)
		if row.Values[0].S != want {
			t.Fatalf("row %d = %v, want %s", i, row.Values[0], want)
		}
	}
	// I/O: the collapsed query must not read the Dept file.
	db.ColdCache()
	_, rec, err := db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	reads := rec.StoreReads
	empPages, _ := db.NumPages("Emp1")
	orgPages, _ := db.NumPages("Org")
	if reads > int64(empPages+orgPages)+2 {
		t.Fatalf("collapsed query read %d pages; Emp1+Org have %d", reads, empPages+orgPages)
	}
	// Keeps working when the dept's org moves (referential integrity
	// argument of §3.3.3).
	deptRes, _, _ := db.Query(nil, Query{Set: "Dept", Project: []string{"name"}})
	orgRes, _, _ := db.Query(nil, Query{Set: "Org", Project: []string{"name"}})
	if err := db.Update("Dept", deptRes.Rows[0].OID, map[string]schema.Value{"org": ref(orgRes.Rows[1].OID)}); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
}

func TestUpdateWhere(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 20)
	if err := db.BuildIndex("dept_budget", "Dept", "budget", false); err != nil {
		t.Fatal(err)
	}
	n, _, err := db.UpdateWhere(nil, "Dept", Pred{Expr: "budget", Op: OpLE, Value: num(100)}, map[string]schema.Value{"budget": num(999)})
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 { // budgets 0 and 100
		t.Fatalf("UpdateWhere touched %d rows, want 2", n)
	}
	res, _, _ := db.Query(nil, Query{Set: "Dept", Project: []string{"name"}, Where: &Pred{Expr: "budget", Op: OpEQ, Value: num(999)}})
	if len(res.Rows) != 2 {
		t.Fatalf("after UpdateWhere, query found %d rows", len(res.Rows))
	}
}

func TestEmitOutput(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 100)
	res, rec, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "salary"}, EmitOutput: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputPages == 0 {
		t.Fatal("no output pages recorded")
	}
	if rec.StoreAllocs == 0 {
		t.Fatal("output file did not allocate pages")
	}
}

func TestDeleteStillReferenced(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 8)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("Dept", st.depts[0]); !errors.Is(err, core.ErrStillReferenced) {
		t.Fatalf("delete of referenced dept: %v", err)
	}
}

func TestFileBackedStore(t *testing.T) {
	db := openEmployeeDB(t, Config{Dir: t.TempDir()})
	populate(t, db, 2, 4, 50)
	if err := db.Replicate("Emp1.dept.name", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name"}})
	if err != nil || len(res.Rows) != 50 {
		t.Fatalf("file-backed query: %d rows, %v", len(res.Rows), err)
	}
}

func TestColdCacheMeasurementDiscipline(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 256})
	populate(t, db, 2, 4, 200)
	q := Query{Set: "Emp1", Project: []string{"name"}}
	// Warm run: everything cached, near-zero store reads on repeat.
	if _, _, err := db.Query(nil, q); err != nil {
		t.Fatal(err)
	}
	_, rec, err := db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if warm := rec.StoreReads; warm != 0 {
		t.Fatalf("warm query performed %d reads", warm)
	}
	db.ColdCache()
	_, rec, err = db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	cold := rec.StoreReads
	pages, _ := db.NumPages("Emp1")
	if cold < int64(pages) {
		t.Fatalf("cold query read %d pages, set has %d", cold, pages)
	}
}

func TestEngineInverseAndAccessors(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 12)

	// 1-level scan fallback, then via inverted path.
	got, via, err := db.Inverse("Emp1", "dept", st.depts[1])
	if err != nil || via != "scan" {
		t.Fatalf("Inverse scan: via=%q err=%v", via, err)
	}
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	got2, via, err := db.Inverse("Emp1", "dept", st.depts[1])
	if err != nil || via != "inverted-path" {
		t.Fatalf("Inverse links: via=%q err=%v", via, err)
	}
	if len(got2) != len(got) {
		t.Fatalf("inverse answers differ: %d vs %d", len(got2), len(got))
	}
	// 2-level scan fallback (no 2-level link maintained).
	got3, via, err := db.Inverse("Emp1", "dept.org", st.orgs[0])
	if err != nil || via != "scan" {
		t.Fatalf("2-level Inverse: via=%q err=%v", via, err)
	}
	want := 0
	for i := 0; i < 12; i++ {
		if (i%4)%2 == 0 { // depts 0,2 belong to org 0
			want++
		}
	}
	if len(got3) != want {
		t.Fatalf("2-level inverse = %d, want %d", len(got3), want)
	}
	// Errors.
	if _, _, err := db.Inverse("Emp1", "salary", st.orgs[0]); err == nil {
		t.Fatal("non-ref expression accepted")
	}
	if _, _, err := db.Inverse("Nope", "dept", st.orgs[0]); err == nil {
		t.Fatal("unknown set accepted")
	}
	if _, _, err := db.Inverse("Emp1", "", st.orgs[0]); err == nil {
		t.Fatal("empty expression accepted")
	}

	// Accessor smoke coverage.
	if db.PoolStats().Misses < 0 {
		t.Fatal("PoolStats broken")
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	io := db.IO()
	if io.Sub(IOStats{}).Total() != io.Total() {
		t.Fatal("IOStats arithmetic broken")
	}
	if err := db.FlushReplication(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []Op{OpEQ, OpLT, OpLE, OpGT, OpGE, OpBetween, Op(99)} {
		if op.String() == "" {
			t.Fatal("Op.String empty")
		}
	}
}

func TestQueryErrorPaths(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 6)
	if _, _, err := db.Query(nil, Query{Set: "Nope"}); err == nil {
		t.Fatal("query on missing set succeeded")
	}
	if _, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"missing"}}); err == nil {
		t.Fatal("projection of missing field succeeded")
	}
	if _, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpEQ, Value: str("not an int")}}); err == nil {
		t.Fatal("kind-mismatched predicate succeeded")
	}
	if _, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"age.name"}}); err == nil {
		t.Fatal("path through non-ref field succeeded")
	}
	if _, _, err := db.UpdateWhere(nil, "Emp1", Pred{Expr: "salary", Op: Op(77), Value: num(1)}, nil); err == nil {
		t.Fatal("unknown operator succeeded")
	}
}

func TestConjunctiveFilters(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 40)
	if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	// Index drives the Where; the Filters prune further, including through a
	// path expression.
	res, _, err := db.Query(nil, Query{
		Set:     "Emp1",
		Project: []string{"name", "salary", "dept.name"},
		Where:   &Pred{Expr: "salary", Op: OpBetween, Value: num(50000), Value2: num(70000)},
		Filters: []Pred{
			{Expr: "age", Op: OpGE, Value: num(30)},
			{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "sal" {
		t.Fatalf("UsedIndex = %q", res.UsedIndex)
	}
	// Cross-check against a manual triple filter via scan.
	want := 0
	all, _, _ := db.Query(nil, Query{Set: "Emp1", Project: []string{"salary", "age", "dept.name"}, ForceScan: true})
	for _, row := range all.Rows {
		if row.Values[0].I >= 50000 && row.Values[0].I <= 70000 &&
			row.Values[1].I >= 30 && row.Values[2].S == "dept-01" {
			want++
		}
	}
	if len(res.Rows) != want || want == 0 {
		t.Fatalf("conjunctive rows = %d, want %d", len(res.Rows), want)
	}
	for _, row := range res.Rows {
		if row.Values[2].S != "dept-01" {
			t.Fatalf("filter violated: %v", row.Values)
		}
	}
}

// TestLargeDepartmentFanout is the paper's §5 motivating case: a department
// with a thousand employees. The link object spans heap forwarding, in-place
// propagation touches every member, and separate replication touches one
// shared object.
func TestLargeDepartmentFanout(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 4096})
	st := populate(t, db, 1, 2, 0)
	big, small := st.depts[0], st.depts[1]
	for i := 0; i < 1000; i++ {
		if _, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("e%04d", i)), "age": num(1), "salary": num(1),
			"dept": ref(big),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Insert("Emp1", map[string]schema.Value{
		"name": str("solo"), "age": num(1), "salary": num(1), "dept": ref(small),
	}); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.budget", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)

	// In-place rename fans out to 1000 objects; measure it.
	db.ColdCache()
	before := db.IO()
	if err := db.Update("Dept", big, map[string]schema.Value{"name": str("Huge")}); err != nil {
		t.Fatal(err)
	}
	db.FlushAll()
	inplaceIO := db.IO().Sub(before).Total()

	// Separate budget change touches one S′ object.
	db.ColdCache()
	before = db.IO()
	if err := db.Update("Dept", big, map[string]schema.Value{"budget": num(9)}); err != nil {
		t.Fatal(err)
	}
	db.FlushAll()
	separateIO := db.IO().Sub(before).Total()

	if separateIO*4 > inplaceIO {
		t.Fatalf("separate update (%d) not far cheaper than in-place fan-out (%d)", separateIO, inplaceIO)
	}
	// All 1000 replicas correct.
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name", "dept.budget"},
		Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("Huge")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1000 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Values[1].I != 9 {
			t.Fatalf("budget replica = %v", r.Values[1])
		}
	}
	// Inverse over the big link object.
	members, via, err := db.Inverse("Emp1", "dept", big)
	if err != nil || via != "inverted-path" || len(members) != 1000 {
		t.Fatalf("inverse: %d members via %q, %v", len(members), via, err)
	}
	verifyDB(t, db)
}
