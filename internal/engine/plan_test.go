package engine

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/plan"
	"github.com/exodb/fieldrepl/internal/schema"
)

// seedEmps inserts n employees with salary i and a round-robin dept ref.
func seedEmps(t *testing.T, db *DB, n int) {
	t.Helper()
	d1, err := db.Insert("Org", map[string]schema.Value{"name": str("Acme"), "budget": num(1000)})
	if err != nil {
		t.Fatal(err)
	}
	dept, err := db.Insert("Dept", map[string]schema.Value{"name": str("R&D"), "budget": num(100), "org": ref(d1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("e%04d", i)), "age": num(int64(20 + i%40)),
			"salary": num(int64(i)), "dept": ref(dept),
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlannerFlipsAccessPath is the engine-level golden test for the
// planner's catalog sensitivity: building or dropping an index, widening the
// predicate range, shrinking cardinality, and replicating a path each flip
// the chosen access path or traversal strategy.
func TestPlannerFlipsAccessPath(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 2048})
	seedEmps(t, db, 2000)

	wide := Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(0), Value2: num(1899)}}
	narrow := Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(100), Value2: num(119)}}

	// No index: the scan is the only candidate.
	d, err := db.PlanQuery(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if d.Access != plan.SeqScan || len(d.Candidates) != 1 {
		t.Fatalf("without index: %+v", d)
	}

	if err := db.BuildIndex("bysal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}

	// Index on: a narrow range flips to the index, a wide unclustered range
	// stays on the scan — and both alternatives are costed and recorded.
	d, err = db.PlanQuery(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if d.Access != plan.IndexRange || d.Index != "bysal" {
		t.Fatalf("narrow range chose %s (%+v)", d.Access, d.Candidates)
	}
	if len(d.Candidates) != 2 {
		t.Fatalf("candidates = %+v", d.Candidates)
	}
	d, err = db.PlanQuery(wide)
	if err != nil {
		t.Fatal(err)
	}
	if d.Access != plan.SeqScan {
		t.Fatalf("wide unclustered range chose %s (%+v)", d.Access, d.Candidates)
	}

	// Execution follows the decision.
	res, _, err := db.Query(nil, narrow)
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "bysal" || len(res.Rows) != 20 {
		t.Fatalf("narrow run: index=%q rows=%d", res.UsedIndex, len(res.Rows))
	}
	if res, _, err = db.Query(nil, wide); err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "" || len(res.Rows) != 1900 {
		t.Fatalf("wide run: index=%q rows=%d", res.UsedIndex, len(res.Rows))
	}

	// Cardinality skew: the same wide shape on a tiny set flips back to the
	// index (the margin rule keeps small sets on their indexes).
	if err := db.CreateSet("Emp2b", "EMP"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := db.Insert("Emp2b", map[string]schema.Value{
			"name": str(fmt.Sprintf("t%d", i)), "salary": num(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.BuildIndex("bysal2", "Emp2b", "salary", false); err != nil {
		t.Fatal(err)
	}
	d, err = db.PlanQuery(Query{Set: "Emp2b", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(0), Value2: num(2)}})
	if err != nil {
		t.Fatal(err)
	}
	if d.Access != plan.IndexRange {
		t.Fatalf("tiny set chose %s (%+v)", d.Access, d.Candidates)
	}

	// Dropping the index flips the narrow range back to the scan.
	if err := db.DropIndex("bysal"); err != nil {
		t.Fatal(err)
	}
	d, err = db.PlanQuery(narrow)
	if err != nil {
		t.Fatal(err)
	}
	if d.Access != plan.SeqScan {
		t.Fatalf("after drop: %s", d.Access)
	}

	// Replicating the path removes it from the fused-traversal list: the
	// value is read from the source object, no join per record.
	proj := Query{Set: "Emp1", Project: []string{"name", "dept.name"}}
	d, err = db.PlanQuery(proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fused) != 1 || d.Fused[0] != "dept.name" {
		t.Fatalf("unreplicated path not fused: %+v", d.Fused)
	}
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	d, err = db.PlanQuery(proj)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Fused) != 0 {
		t.Fatalf("replicated path still fused: %+v", d.Fused)
	}
}

// TestPlannedQueriesConcurrentWriters interleaves planned queries with
// per-set writers on a WAL-backed database and asserts the snapshot read
// path stayed lock-free: every query trace charges zero lock wait, carries a
// planner decision, and sees a consistent row count. Run with -race this
// also exercises the fusion memo and index execution under concurrency.
func TestPlannedQueriesConcurrentWriters(t *testing.T) {
	db := openEmployeeDB(t, Config{Dir: t.TempDir(), PoolPages: 2048, ScanWorkers: 2})
	seedEmps(t, db, 400)
	if err := db.BuildIndex("bysal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	werr := make(chan error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := db.Insert("Emp1", map[string]schema.Value{
					"name": str(fmt.Sprintf("w%d-%04d", w, i)), "age": num(30),
					"salary": num(int64(10000 + i)),
				}); err != nil {
					werr <- err
					return
				}
			}
		}(w)
	}

	iters := 50
	if testing.Short() {
		iters = 10
	}
	for i := 0; i < iters; i++ {
		// Alternate a planned index range with a fused-path scan.
		q := Query{Set: "Emp1", Project: []string{"name"},
			Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(100), Value2: num(119)}}
		if i%2 == 1 {
			q = Query{Set: "Emp1", Project: []string{"name", "dept.name"},
				Where: &Pred{Expr: "age", Op: OpGE, Value: num(20)}}
		}
		res, rec, err := db.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		if rec.LockWaitNs != 0 {
			t.Fatalf("query %d charged %dns lock wait; planned reads must not block", i, rec.LockWaitNs)
		}
		if res.Decision == nil {
			t.Fatalf("query %d has no planner decision", i)
		}
		if i%2 == 0 && len(res.Rows) != 20 {
			t.Fatalf("query %d rows = %d, want 20", i, len(res.Rows))
		}
	}
	close(stop)
	wg.Wait()
	select {
	case err := <-werr:
		t.Fatal(err)
	default:
	}
	verifyDB(t, db)
}

// TestQueryShapes runs the planner's four query shapes — point probe, index
// range, 3-level path, aggregate — on 20,000 employees over 200 departments
// over 20 orgs with a B-tree on Emp1.salary, each from a cold cache, and
// checks that every rendered plan pairs the predicted pages with the
// observed ones. Under -tags gates (make gates) it is also the fusion gate:
// with no replication declared, the fused 3-level path query must run at
// least 2x faster than record-at-a-time (NoFuse), best of 7 warm runs each.
func TestQueryShapes(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 1024})
	populate(t, db, 20, 200, 20000)
	if err := db.BuildIndex("bysal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	salary := func(i int64) schema.Value { return num(50000 + 1000*i) }
	shapes := []struct {
		name string
		q    Query
	}{
		{"point", Query{Set: "Emp1", Project: []string{"name"},
			Where: &Pred{Expr: "salary", Op: OpEQ, Value: salary(12345)}}},
		{"range", Query{Set: "Emp1", Project: []string{"name", "salary"},
			Where: &Pred{Expr: "salary", Op: OpBetween, Value: salary(5000), Value2: salary(5199)}}},
		{"path3", Query{Set: "Emp1", Project: []string{"name", "dept.org.name", "dept.org.budget"},
			Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-07")}}},
		{"aggregate", Query{Set: "Emp1", Project: []string{"salary"}}},
	}
	for _, s := range shapes {
		if err := db.ColdCache(); err != nil {
			t.Fatal(err)
		}
		res, rec, err := db.Query(nil, s.q)
		if err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		explain := res.Decision.RenderObserved(rec.IO())
		if !strings.Contains(explain, "predicted=") || !strings.Contains(explain, "observed=") {
			t.Errorf("%s: plan does not pair predicted with observed pages:\n%s", s.name, explain)
		}
		t.Logf("%-9s rows=%-5d %s", s.name, len(res.Rows), strings.SplitN(explain, "\n", 2)[0])
	}
	if !gates {
		return
	}
	best := func(q Query) time.Duration {
		min := time.Duration(math.MaxInt64)
		for i := 0; i < 7; i++ {
			start := time.Now()
			if _, _, err := db.Query(nil, q); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < min {
				min = d
			}
		}
		return min
	}
	path3 := shapes[2].q
	fused := best(path3)
	path3.NoFuse = true
	baseline := best(path3)
	speedup := float64(baseline) / float64(fused)
	t.Logf("path3 fused %v, record-at-a-time %v: %.2fx (limit 2x)", fused, baseline, speedup)
	if speedup < 2 {
		t.Fatalf("fused path3 is %.2fx the record-at-a-time baseline, want >= 2x", speedup)
	}
}
