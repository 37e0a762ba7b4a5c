package engine

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/exodb/fieldrepl/internal/schema"
)

// rowKey flattens a result row into a comparable string (OID + projected
// values), so result sets can be compared as multisets.
func rowKey(r Row) string {
	s := r.OID.String()
	for _, v := range r.Values {
		s += "|" + v.String()
	}
	return s
}

func sortedKeys(res *Result) []string {
	keys := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		keys[i] = rowKey(r)
	}
	sort.Strings(keys)
	return keys
}

// TestParallelQueryEquivalence runs the same non-indexed queries on a
// sequential engine and on one with scan workers and a sharded pool; the
// row multisets must match.
func TestParallelQueryEquivalence(t *testing.T) {
	seqDB := openEmployeeDB(t, Config{})
	parDB := openEmployeeDB(t, Config{ScanWorkers: 4, PoolShards: 8})
	populate(t, seqDB, 2, 6, 300)
	populate(t, parDB, 2, 6, 300)

	queries := []Query{
		{Set: "Emp1", Project: []string{"name", "salary"}},
		{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "salary", Op: OpGT, Value: num(200000)}},
		{Set: "Emp1", Project: []string{"name", "age"}, Where: &Pred{Expr: "age", Op: OpEQ, Value: num(25)}},
		{Set: "Dept", Project: []string{"name", "budget"}},
	}
	for i, q := range queries {
		qs, _, err := seqDB.Query(nil, q)
		if err != nil {
			t.Fatalf("query %d sequential: %v", i, err)
		}
		qp, _, err := parDB.Query(nil, q)
		if err != nil {
			t.Fatalf("query %d parallel: %v", i, err)
		}
		if qp.UsedIndex != "" || qs.UsedIndex != "" {
			t.Fatalf("query %d used an index; this test covers the scan path", i)
		}
		sk, pk := sortedKeys(qs), sortedKeys(qp)
		if len(sk) != len(pk) {
			t.Fatalf("query %d: sequential %d rows, parallel %d rows", i, len(sk), len(pk))
		}
		for j := range sk {
			if sk[j] != pk[j] {
				t.Fatalf("query %d row %d: %q != %q", i, j, sk[j], pk[j])
			}
		}
	}
}

// TestParallelUpdateWhereEquivalence applies the same predicate update on
// sequential and parallel engines and compares the resulting table contents.
func TestParallelUpdateWhereEquivalence(t *testing.T) {
	seqDB := openEmployeeDB(t, Config{})
	parDB := openEmployeeDB(t, Config{ScanWorkers: 4, PoolShards: 4})
	populate(t, seqDB, 2, 6, 200)
	populate(t, parDB, 2, 6, 200)

	where := Pred{Expr: "age", Op: OpGT, Value: num(40)}
	vals := map[string]schema.Value{"salary": num(99)}
	nSeq, _, err := seqDB.UpdateWhere(nil, "Emp1", where, vals)
	if err != nil {
		t.Fatal(err)
	}
	nPar, _, err := parDB.UpdateWhere(nil, "Emp1", where, vals)
	if err != nil {
		t.Fatal(err)
	}
	if nSeq != nPar || nSeq == 0 {
		t.Fatalf("UpdateWhere matched %d sequential vs %d parallel rows", nSeq, nPar)
	}
	q := Query{Set: "Emp1", Project: []string{"name", "age", "salary"}}
	qs, _, err := seqDB.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	qp, _, err := parDB.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	sk, pk := sortedKeys(qs), sortedKeys(qp)
	for j := range sk {
		if sk[j] != pk[j] {
			t.Fatalf("row %d after UpdateWhere: %q != %q", j, sk[j], pk[j])
		}
	}
	verifyDB(t, seqDB)
	verifyDB(t, parDB)
}

// TestConcurrentReadersAndWriter soaks the reader/writer locking: parallel
// query goroutines run against a writer that inserts, updates, and deletes.
// Run under -race this exercises the engine lock discipline end to end;
// every query must see a consistent row count (no torn scans).
func TestConcurrentReadersAndWriter(t *testing.T) {
	db := openEmployeeDB(t, Config{ScanWorkers: 4, PoolShards: 8, PoolPages: 512})
	st := populate(t, db, 2, 6, 150)

	iters := 40
	if testing.Short() {
		iters = 10
	}
	const readers = 4
	var wg sync.WaitGroup
	var fail atomic.Value
	stop := make(chan struct{})

	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, _, err := db.Query(nil, Query{
					Set: "Emp1", Project: []string{"name", "salary"},
					Where: &Pred{Expr: "age", Op: OpGT, Value: num(int64(20 + (g+i)%30))},
				})
				if err != nil {
					fail.Store(fmt.Errorf("reader %d: %w", g, err))
					return
				}
				// Each record's projection must be internally consistent.
				for _, r := range res.Rows {
					if len(r.Values) != 2 {
						fail.Store(fmt.Errorf("reader %d: row with %d values", g, len(r.Values)))
						return
					}
				}
				if _, err := db.Count("Emp1"); err != nil {
					fail.Store(err)
					return
				}
			}
		}(g)
	}

	for i := 0; i < iters && fail.Load() == nil; i++ {
		oid, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("w-%03d", i)), "age": num(int64(20 + i%40)),
			"salary": num(int64(70000 + i)), "dept": ref(st.depts[i%len(st.depts)]),
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Update("Emp1", oid, map[string]schema.Value{"salary": num(int64(80000 + i))}); err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			if err := db.Delete("Emp1", oid); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err := fail.Load(); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
}

// BenchmarkConcurrentReaders measures query throughput with N goroutines
// issuing non-indexed scans against a sharded pool, the workload the
// reader/writer lock and pool sharding exist to serve.
func BenchmarkConcurrentReaders(b *testing.B) {
	for _, readers := range []int{1, 4} {
		b.Run(fmt.Sprintf("readers=%d", readers), func(b *testing.B) {
			db, err := Open(Config{ScanWorkers: 1, PoolShards: 8, PoolPages: 512})
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			defineEmployeeSchemaB(b, db)
			for i := 0; i < 2000; i++ {
				if _, err := db.Insert("Emp1", map[string]schema.Value{
					"name": str(fmt.Sprintf("emp-%04d", i)), "age": num(int64(20 + i%40)),
					"salary": num(int64(50000 + i)),
				}); err != nil {
					b.Fatal(err)
				}
			}
			q := Query{Set: "Emp1", Project: []string{"name"},
				Where: &Pred{Expr: "salary", Op: OpGT, Value: num(51500)}}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N/readers + 1
			for g := 0; g < readers; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						if _, _, err := db.Query(nil, q); err != nil {
							b.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}

// defineEmployeeSchemaB is defineEmployeeSchema for benchmarks (EMP only,
// no ref fields, so inserts need no dept).
func defineEmployeeSchemaB(b *testing.B, db *DB) {
	b.Helper()
	if err := db.DefineType("EMP", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "age", Kind: schema.KindInt},
		{Name: "salary", Kind: schema.KindInt},
	}); err != nil {
		b.Fatal(err)
	}
	if err := db.CreateSet("Emp1", "EMP"); err != nil {
		b.Fatal(err)
	}
}
