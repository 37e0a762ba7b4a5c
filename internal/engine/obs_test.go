package engine

import (
	"sync"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/schema"
)

// attributionQueries is a mix of distinct read-only query shapes whose
// logical page-access counts (hits + misses) are plan-deterministic: the same
// query visits the same pages whether it runs alone or interleaved with
// others, so its trace must report the same count either way.
func attributionQueries() []Query {
	return []Query{
		{Set: "Emp1", Project: []string{"name", "salary"}},
		{Set: "Emp1", Project: []string{"name"},
			Where: &Pred{Expr: "salary", Op: OpGT, Value: num(100000)}},
		{Set: "Emp1", Project: []string{"name", "dept.name"},
			Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(60000), Value2: num(90000)}},
		{Set: "Dept", Project: []string{"name", "budget"}},
		{Set: "Emp1", Project: []string{"name"},
			Where: &Pred{Expr: "age", Op: OpEQ, Value: num(25)}},
	}
}

// TestConcurrentQueryAttribution is the tentpole's acceptance test: each
// concurrent query's trace reports exactly the counters the same query
// reports when run serially, and the per-trace counters sum to the global
// deltas over the window (no lost or double-counted charges). Run under
// -race by make race.
func TestConcurrentQueryAttribution(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 512, PoolShards: 4, ScanWorkers: 2})
	populate(t, db, 4, 8, 300)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	queries := attributionQueries()

	// Serial baselines: logical page accesses per query.
	serial := make([]int64, len(queries))
	for i, q := range queries {
		_, rec, err := db.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = rec.PageAccesses()
		if serial[i] == 0 {
			t.Fatalf("query %d reported zero page accesses", i)
		}
	}

	// Quiet window: flush so no query pays another operation's write-backs,
	// then snapshot globals.
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
	poolBefore := db.PoolStats()
	ioBefore := db.IO()

	const rounds = 20
	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		sum obs.Counters
	)
	for r := 0; r < rounds; r++ {
		for i, q := range queries {
			wg.Add(1)
			go func(i int, q Query) {
				defer wg.Done()
				_, rec, err := db.Query(nil, q)
				if err != nil {
					t.Error(err)
					return
				}
				if got := rec.PageAccesses(); got != serial[i] {
					t.Errorf("query %d concurrent page accesses = %d, serial = %d", i, got, serial[i])
				}
				mu.Lock()
				sum = sum.Add(rec.Counters)
				mu.Unlock()
			}(i, q)
		}
	}
	wg.Wait()

	poolAfter := db.PoolStats()
	ioAfter := db.IO()
	if got, want := sum.Hits, poolAfter.Hits-poolBefore.Hits; got != want {
		t.Errorf("Σ trace hits = %d, global hit delta = %d", got, want)
	}
	if got, want := sum.Misses, poolAfter.Misses-poolBefore.Misses; got != want {
		t.Errorf("Σ trace misses = %d, global miss delta = %d", got, want)
	}
	if got, want := sum.StoreReads, ioAfter.Reads-ioBefore.Reads; got != want {
		t.Errorf("Σ trace store reads = %d, global read delta = %d", got, want)
	}
	if got, want := sum.StoreWrites+sum.StoreAllocs, (ioAfter.Writes-ioBefore.Writes)+(ioAfter.Allocs-ioBefore.Allocs); got != want {
		t.Errorf("Σ trace store writes+allocs = %d, global delta = %d", got, want)
	}
}

// TestDMLAndUpdateWhereTraced checks write operations carry traces through
// the writer path: the trace sees the operation's page accesses, including
// replication propagation I/O.
func TestDMLAndUpdateWhereTraced(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	st := populate(t, db, 2, 4, 40)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	_ = st

	n, rec, err := db.UpdateWhere(nil, "Dept",
		Pred{Expr: "budget", Op: OpGT, Value: num(-1)},
		map[string]schema.Value{"name": str("renamed")})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("updated %d depts, want 4", n)
	}
	if rec.Kind != obs.KindUpdate || rec.Set != "Dept" {
		t.Fatalf("record identity = %q/%q", rec.Kind, rec.Set)
	}
	if rec.PageAccesses() == 0 {
		t.Fatal("update trace recorded no page accesses")
	}

	// The update rewrote the replicated dept.name in every Emp1 object; the
	// propagation I/O must be on the update's trace, so its accesses exceed
	// what touching the 4 Dept objects alone would need (1 page).
	if rec.PageAccesses() < 5 {
		t.Fatalf("update trace accesses = %d; propagation I/O not attributed", rec.PageAccesses())
	}
}

// TestMetricsAndRecentTraces exercises the pull-based snapshot surface.
func TestMetricsAndRecentTraces(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 20)

	if _, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"}}); err != nil {
		t.Fatal(err)
	}
	m := db.Metrics()
	if m.Traces.Completed == 0 {
		t.Fatal("Metrics.Traces.Completed = 0")
	}
	if m.Traces.Active != 0 {
		t.Fatalf("Metrics.Traces.Active = %d, want 0", m.Traces.Active)
	}
	if len(m.Recent) == 0 {
		t.Fatal("Metrics.Recent empty")
	}
	recent := db.RecentTraces()
	last := recent[len(recent)-1]
	if last.Kind != obs.KindQuery || last.Set != "Emp1" {
		t.Fatalf("last trace = %q/%q, want query/Emp1", last.Kind, last.Set)
	}
	if last.Plan == "" {
		t.Fatal("query trace has no plan")
	}
}

// TestIndexedQueryTracePlan checks the planner's index choice is recorded on
// the trace and indexed access I/O is attributed.
func TestIndexedQueryTracePlan(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 50)
	if err := db.BuildIndex("bysal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	res, rec, err := db.Query(nil, Query{
		Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(55000), Value2: num(60000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "bysal" {
		t.Fatalf("UsedIndex = %q", res.UsedIndex)
	}
	if rec.Plan != "index:bysal" {
		t.Fatalf("trace plan = %q, want index:bysal", rec.Plan)
	}
	if rec.PageAccesses() == 0 {
		t.Fatal("indexed query trace recorded no page accesses")
	}
}
