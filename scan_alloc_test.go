package fieldrepl

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// loadPathScan builds the pathscan.warm database through the public API, as
// internal/engine's loader of the same name does: Org / Dept / Emp with no
// replication and no index, departments and employees assigned round-robin
// and then shuffled, so every organisation owns nEmp/nOrg employees scattered
// over the whole Emp file.
func loadPathScan(tb testing.TB, db *DB, nOrg, nDept, nEmp int) {
	tb.Helper()
	must := func(err error) {
		tb.Helper()
		if err != nil {
			tb.Fatal(err)
		}
	}
	must(db.DefineType("ORG", []Field{{Name: "name", Kind: String}, {Name: "budget", Kind: Int}}))
	must(db.DefineType("DEPT", []Field{{Name: "name", Kind: String}, {Name: "org", Kind: Ref, RefType: "ORG"}}))
	must(db.DefineType("EMP", []Field{{Name: "name", Kind: String}, {Name: "salary", Kind: Int},
		{Name: "dept", Kind: Ref, RefType: "DEPT"}}))
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

	load := func(set string, n int, vals func(i int) V) []OID {
		oids := make([]OID, n)
		txn, err := db.BeginSets(nil, set)
		must(err)
		for i := range oids {
			oids[i], err = txn.Insert(set, vals(i))
			must(err)
		}
		must(txn.Commit())
		return oids
	}
	orgs := load("Org", nOrg, func(i int) V { return V{"name": S(fmt.Sprintf("org-%02d", i)), "budget": I(int64(1000 + i))} })
	depts := load("Dept", nDept, func(i int) V { return V{"name": S(fmt.Sprintf("dept-%03d", i)), "org": R(orgs[deptOrg[i]])} })
	load("Emp", nEmp, func(i int) V {
		return V{"name": S(fmt.Sprintf("emp-%06d", i)), "salary": I(int64(30000 + i)), "dept": R(depts[empDept[i]])}
	})
}

// pathScanQuery is the pathscan.warm read with op in place of its equality:
// the employees whose organisation's name compares so with org's, with two
// more values projected through the same path.
func pathScanQuery(op Op, org int) Query {
	return Query{Set: "Emp", Project: []string{"name", "dept.org.name", "dept.org.budget"},
		Where: &Pred{Expr: "dept.org.name", Op: op, Value: S(fmt.Sprintf("org-%02d", org))}}
}

// TestQueryAllocsPerRow pins what a returned row costs in allocations through
// DB.QueryCtx. Two pathscan-shaped queries scan the same 4 000 employees and
// return 200 and 2 000 of them; the difference may be at most 1.2
// allocations per extra row. What is left per row is its name string: the
// projected values are carved from slabs and the public result takes one
// array for all values. (Before the slabs, when each row made two value
// slices, the slope was 3.01.)
//
// A 1-row query may also allocate at most 512 bytes more than a 0-row query
// of the same shape, measured in the same run (about 120 here). Both project
// base fields only, so the difference is the row itself: its values in the
// engine and in the public result, and the row headers. A first slab of eight
// rows adds about 1 KB, one at full size about 32 KB. The race detector's
// runtime allocates too, so this half is skipped under -race.
func TestQueryAllocsPerRow(t *testing.T) {
	db, err := Open(Config{PoolPages: 1024, AdvisorDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadPathScan(t, db, 20, 200, 4000)
	query := func(q Query, rows int) func() {
		return func() {
			res, err := db.QueryCtx(nil, q)
			if err != nil || len(res.Rows) != rows {
				t.Fatalf("%d rows, %v; want %d", len(res.Rows), err, rows)
			}
		}
	}
	few := testing.AllocsPerRun(10, query(pathScanQuery(EQ, 0), 200))
	many := testing.AllocsPerRun(10, query(pathScanQuery(LE, 9), 2000))
	perRow := (many - few) / 1800
	t.Logf("%.0f allocations for 200 rows, %.0f for 2000: %.2f per extra row", few, many, perRow)
	if perRow > 1.2 {
		t.Fatalf("%.2f allocations per returned row, want at most 1.2", perRow)
	}

	// The rows share one array of values, each capped at its own length.
	res, err := db.QueryCtx(nil, pathScanQuery(EQ, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i+1 < len(res.Rows); i++ {
		next := res.Rows[i+1].Values[0]
		_ = append(res.Rows[i].Values, S("grown"))
		if got := res.Rows[i+1].Values[0]; !got.Equal(next) {
			t.Fatalf("appending to row %d changed row %d from %v to %v", i, i+1, next, got)
		}
	}

	if raceEnabled {
		return
	}
	deptQuery := func(name string, rows int) func() {
		return query(Query{Set: "Dept", Project: []string{"name", "org"},
			Where: &Pred{Expr: "name", Op: EQ, Value: S(name)}}, rows)
	}
	none, one := bytesPerRun(deptQuery("no-such-dept", 0)), bytesPerRun(deptQuery("dept-000", 1))
	t.Logf("%d bytes per 0-row query, %d per 1-row query", none, one)
	if one-none > 512 {
		t.Fatalf("a 1-row query allocates %d bytes more than a 0-row query, want at most 512", one-none)
	}
}

// bytesPerRun returns the bytes f allocates per call, averaged over 100 calls
// after one that warms it up.
func bytesPerRun(f func()) int64 {
	const runs = 100
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc-before.TotalAlloc) / runs
}

// BenchmarkPublicPathScanWarm is internal/engine's BenchmarkPathScanWarm
// through the public API: the same data, file-backed, the same queries
// through DB.QueryCtx, so the conversion of every result to public rows is
// paid as the benchmark workload pays it. ns/op and allocs/op are per query.
func BenchmarkPublicPathScanWarm(b *testing.B) {
	db, err := Open(Config{Dir: b.TempDir(), PoolPages: 2048})
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	loadPathScan(b, db, 20, 200, 20000)
	if _, err := db.QueryCtx(nil, pathScanQuery(EQ, 0)); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.QueryCtx(nil, pathScanQuery(EQ, i%20))
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1000 {
			b.Fatalf("%d rows, want 1000", len(res.Rows))
		}
	}
}

// TestIndexedReadAllocsPerRecord pins that a snapshot read copies no page:
// an index range reads each qualifying record through the read session's
// snapshot view in place, into a buffer the range reuses, so reading 100
// records may allocate at most 0.5 times more per record than reading one
// (a handle per access and a copy per record would be two), and under 4 KiB
// per record in bytes (a page copy per access would be 4 KiB each). A filter
// that matches nothing keeps the rows themselves out of the count.
func TestIndexedReadAllocsPerRecord(t *testing.T) {
	db, err := Open(Config{PoolPages: 1024, AdvisorDisabled: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineType("REC", []Field{{Name: "k", Kind: Int}, {Name: "name", Kind: String}}))
	must(db.CreateSet("Rec", "REC"))
	txn, err := db.BeginSets(nil, "Rec")
	must(err)
	for i := 0; i < 10000; i++ {
		_, err := txn.Insert("Rec", V{"k": I(int64(i)), "name": S(fmt.Sprintf("rec-%05d", i))})
		must(err)
	}
	must(txn.Commit())
	must(db.BuildIndex("byk", "Rec", "k", false))

	query := func(n int64) func() {
		q := Query{Set: "Rec", Project: []string{"name"},
			Where:   &Pred{Expr: "k", Op: Between, Value: I(5000), Value2: I(5000 + n - 1)},
			Filters: []Pred{{Expr: "name", Op: EQ, Value: S("none")}}}
		return func() {
			res, err := db.QueryCtx(nil, q)
			if err != nil || len(res.Rows) != 0 || res.UsedIndex != "byk" {
				t.Fatalf("%v, %d rows via %q; want none via byk", err, len(res.Rows), res.UsedIndex)
			}
		}
	}
	one, hundred := testing.AllocsPerRun(20, query(1)), testing.AllocsPerRun(20, query(100))
	perRecord := (hundred - one) / 99
	t.Logf("%.0f allocations reading 1 record, %.0f reading 100: %.2f per extra record", one, hundred, perRecord)
	if perRecord > 0.5 {
		t.Fatalf("%.2f allocations per record read, want at most 0.5", perRecord)
	}

	if raceEnabled {
		return
	}
	perRead := float64(bytesPerRun(query(100))) / 100
	t.Logf("%.0f bytes allocated per record read", perRead)
	if perRead >= 4096 {
		t.Fatalf("%.0f bytes per record read, want under 4 KiB", perRead)
	}
}
