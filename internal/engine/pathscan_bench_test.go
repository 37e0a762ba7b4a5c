package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// loadPathScan builds the repository benchmark's pathscan.warm database in db:
// Org / Dept / Emp with no replication and no index, departments and
// employees assigned round-robin and then shuffled, so every organisation
// owns nEmp/nOrg employees scattered over the whole Emp file.
func loadPathScan(tb testing.TB, db *DB, nOrg, nDept, nEmp int) {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(db.DefineType("ORG", []schema.Field{{Name: "name", Kind: schema.KindString}, {Name: "budget", Kind: schema.KindInt}}))
	must(db.DefineType("DEPT", []schema.Field{{Name: "name", Kind: schema.KindString}, {Name: "org", Kind: schema.KindRef, RefType: "ORG"}}))
	must(db.DefineType("EMP", []schema.Field{{Name: "name", Kind: schema.KindString}, {Name: "salary", Kind: schema.KindInt},
		{Name: "dept", Kind: schema.KindRef, RefType: "DEPT"}}))
	must(db.CreateSet("Org", "ORG"))
	must(db.CreateSet("Dept", "DEPT"))
	must(db.CreateSet("Emp", "EMP"))

	rng := rand.New(rand.NewSource(1))
	deptOrg := make([]int, nDept)
	for i := range deptOrg {
		deptOrg[i] = i % nOrg
	}
	rng.Shuffle(nDept, func(i, j int) { deptOrg[i], deptOrg[j] = deptOrg[j], deptOrg[i] })
	empDept := make([]int, nEmp)
	for i := range empDept {
		empDept[i] = i % nDept
	}
	rng.Shuffle(nEmp, func(i, j int) { empDept[i], empDept[j] = empDept[j], empDept[i] })

	load := func(set string, n int, vals func(i int) map[string]schema.Value) []pagefile.OID {
		oids := make([]pagefile.OID, n)
		txn, err := db.BeginSets(nil, set)
		must(err)
		for i := range oids {
			oids[i], err = txn.Insert(set, vals(i))
			must(err)
		}
		must(txn.Commit())
		return oids
	}
	orgs := load("Org", nOrg, func(i int) map[string]schema.Value {
		return map[string]schema.Value{"name": str(fmt.Sprintf("org-%02d", i)), "budget": num(int64(1000 + i))}
	})
	depts := load("Dept", nDept, func(i int) map[string]schema.Value {
		return map[string]schema.Value{"name": str(fmt.Sprintf("dept-%03d", i)), "org": ref(orgs[deptOrg[i]])}
	})
	load("Emp", nEmp, func(i int) map[string]schema.Value {
		return map[string]schema.Value{"name": str(fmt.Sprintf("emp-%06d", i)), "salary": num(int64(30000 + i)), "dept": ref(depts[empDept[i]])}
	})
}

// pathScanQuery is the pathscan.warm read: the employees of one organisation
// through the 2-reference path, projecting two more values through it.
func pathScanQuery(org int) Query {
	return Query{Set: "Emp", Project: []string{"name", "dept.org.name", "dept.org.budget"},
		Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str(fmt.Sprintf("org-%02d", org))}}
}

// BenchmarkPathScanWarm is the repository benchmark's pathscan.warm read as a
// Go benchmark: Org 20 / Dept 200 / Emp 20 000 on a file-backed (logged,
// snapshot-read) database that fits the pool, 1 000 rows out of 20 000 per
// query. ns/op and allocs/op are per query.
func BenchmarkPathScanWarm(b *testing.B) {
	db, err := Open(Config{Dir: b.TempDir(), PoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	loadPathScan(b, db, 20, 200, 20000)
	if _, _, err := db.Query(nil, pathScanQuery(0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _, err := db.Query(nil, pathScanQuery(i%20))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1000 {
			b.Fatalf("%d rows, want 1000", len(res.Rows))
		}
	}
}
