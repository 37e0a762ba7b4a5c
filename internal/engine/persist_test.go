package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestReopenRoundTrip closes a fully configured file-backed database and
// reopens it: data, replication paths (all strategies and options), indexes,
// and the replication invariant must all survive.
func TestReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()

	var alice, research pagefile.OID
	{
		db := openEmployeeDB(t, Config{Dir: dir})
		st := populate(t, db, 3, 6, 40)
		alice = st.emps[0]
		research = st.depts[0]
		for _, r := range []struct {
			path  string
			strat catalog.Strategy
			opts  []catalog.PathOption
		}{
			{"Emp1.dept.name", catalog.InPlace, nil},
			{"Emp1.dept.budget", catalog.Separate, nil},
			{"Emp1.dept.org.name", catalog.InPlace, []catalog.PathOption{catalog.WithDeferred()}},
			{"Emp2.dept.org.name", catalog.InPlace, []catalog.PathOption{catalog.WithCollapsed()}},
		} {
			if err := db.Replicate(r.path, r.strat, r.opts...); err != nil {
				t.Fatalf("replicate %s: %v", r.path, err)
			}
		}
		if err := db.BuildIndex("emp1_salary", "Emp1", "salary", false); err != nil {
			t.Fatal(err)
		}
		if err := db.BuildIndex("emp1_deptname", "Emp1", "dept.name", false); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
	}

	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { db.Close() })

	// Data survived.
	if n, err := db.Count("Emp1"); err != nil || n != 40 {
		t.Fatalf("Count after reopen = %d, %v", n, err)
	}
	obj, err := db.Get("Emp1", alice)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obj.Get("name"); v.S != "emp-000" {
		t.Fatalf("Get after reopen: %v", obj)
	}
	// Queries resolve through the restored replication paths.
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name", "dept.budget", "dept.org.name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Indexes survived (base and path).
	ir, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: OpBetween, Value: num(50000), Value2: num(55000)}})
	if err != nil || ir.UsedIndex != "emp1_salary" {
		t.Fatalf("base index after reopen: %+v, %v", ir, err)
	}
	pr, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("dept-01")}})
	if err != nil || pr.UsedIndex != "emp1_deptname" {
		t.Fatalf("path index after reopen: %+v, %v", pr, err)
	}
	// Propagation machinery works across the reopen boundary, including to
	// the restored indexes.
	if err := db.Update("Dept", research, map[string]schema.Value{"name": str("Renamed")}); err != nil {
		t.Fatal(err)
	}
	pr, _, err = db.Query(nil, Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("Renamed")}})
	if err != nil || len(pr.Rows) == 0 {
		t.Fatalf("propagated index lookup after reopen: %d rows, %v", len(pr.Rows), err)
	}
	// New DDL continues cleanly in the restored catalog.
	if err := db.Replicate("Emp2.dept.name", catalog.Separate); err != nil {
		t.Fatalf("new path after reopen: %v", err)
	}
	if _, err := db.Insert("Emp1", map[string]schema.Value{
		"name": str("post-reopen"), "age": num(1), "salary": num(1),
		"dept": ref(research),
	}); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, db)
}

// TestReopenTwice exercises repeated open/close cycles.
func TestReopenTwice(t *testing.T) {
	dir := t.TempDir()
	{
		db := openEmployeeDB(t, Config{Dir: dir})
		populate(t, db, 2, 4, 10)
		if err := db.Replicate("Emp1.dept.name", catalog.Separate); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for cycle := 0; cycle < 3; cycle++ {
		db, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		if _, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str("x"), "age": num(int64(cycle)), "salary": num(1), "dept": ref(pagefile.NilOID),
		}); err != nil {
			t.Fatalf("cycle %d insert: %v", cycle, err)
		}
		verifyDB(t, db)
		if err := db.Close(); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
	}
	db, _ := Open(Config{Dir: dir})
	defer db.Close()
	if n, _ := db.Count("Emp1"); n != 13 {
		t.Fatalf("Count after cycles = %d", n)
	}
}

func TestCatalogSnapshotRestore(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 8)
	if err := db.Replicate("Emp1.dept.budget", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.name", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	data, err := db.cat.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, err := catalog.Restore(data)
	if err != nil {
		t.Fatal(err)
	}
	// Spot-check structural equality.
	if len(got.Paths()) != len(db.cat.Paths()) {
		t.Fatalf("paths = %d vs %d", len(got.Paths()), len(db.cat.Paths()))
	}
	for i, p := range db.cat.Paths() {
		q := got.Paths()[i]
		if p.Spec.String() != q.Spec.String() || p.Strategy != q.Strategy || p.ID != q.ID {
			t.Fatalf("path %d mismatch: %+v vs %+v", i, p.Spec, q.Spec)
		}
		if len(p.Links) != len(q.Links) {
			t.Fatalf("path %d links: %d vs %d", i, len(p.Links), len(q.Links))
		}
	}
	emp, ok := got.TypeByName("EMP")
	if !ok || emp.FieldIndex("salary") != 2 {
		t.Fatal("EMP type not restored")
	}
	// Link-prefix sharing survives: a new path from Emp1 via dept must share
	// link 1 in the restored catalog.
	spec, _ := catalog.ParsePathSpec("Emp1.dept.org.name")
	p, err := got.AddPath(spec, catalog.InPlace)
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkSequence()[0] != db.cat.Paths()[0].LinkSequence()[0] {
		t.Fatalf("restored catalog lost prefix sharing: %v", p.LinkSequence())
	}
	// Corrupt snapshots are rejected.
	if _, err := catalog.Restore([]byte("{")); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
	if _, err := catalog.Restore([]byte(`{"version": 99}`)); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestCloseUnderLoad releases a file-backed database while 4 goroutines are
// mid-Insert/Query, with nothing above the engine serializing them: the
// release waits the in-flight statements out on the exclusive lock, every
// statement completes or returns an error (never panics or races), a later
// Close fails with pagefile.ErrClosed, and the reopened database holds every
// acknowledged insert with the replication invariant intact. The CrashStop
// row does the same through the kill -9 path and log recovery.
func TestCloseUnderLoad(t *testing.T) {
	// A second Close is refused on every store kind (an in-memory database
	// has no closed file store to trip over).
	mem := openEmployeeDB(t, Config{})
	if err := mem.Close(); err != nil {
		t.Fatal(err)
	}
	if err := mem.Close(); !errors.Is(err, pagefile.ErrClosed) {
		t.Fatalf("second Close of an in-memory database = %v, want pagefile.ErrClosed", err)
	}
	for _, crash := range []bool{false, true} {
		name := "Close"
		if crash {
			name = "CrashStop"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db := openEmployeeDB(t, Config{Dir: dir})
			st := populate(t, db, 2, 4, 20)
			if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
				t.Fatal(err)
			}
			if err := db.Replicate("Emp1.dept.budget", catalog.Separate); err != nil {
				t.Fatal(err)
			}

			// Each goroutine reports once, after its first warm statements,
			// so the release lands while all four are mid-loop.
			const warm = 5
			warmed := make(chan struct{}, 4)
			released := make(chan struct{})
			var acked, attempted atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < 2; g++ {
				wg.Add(2)
				go func(g int) { // inserter: runs until the released database refuses it
					defer wg.Done()
					for i := 0; ; i++ {
						if i == warm {
							warmed <- struct{}{}
						}
						attempted.Add(1)
						_, err := db.Insert("Emp1", map[string]schema.Value{
							"name": str(fmt.Sprintf("late-%d-%d", g, i)), "age": num(30),
							"salary": num(1), "dept": ref(st.depts[i%len(st.depts)]),
						})
						if err != nil {
							if i < warm {
								t.Errorf("insert %d before the release: %v", i, err)
								warmed <- struct{}{}
							}
							return
						}
						acked.Add(1)
					}
				}(g)
				go func() { // reader: a released database may answer from the pool or fail
					defer wg.Done()
					for i := 0; ; i++ {
						if i == warm {
							warmed <- struct{}{}
						}
						_, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name", "dept.budget"}})
						if err != nil && i < warm {
							t.Errorf("query %d before the release: %v", i, err)
						}
						select {
						case <-released:
							return
						default:
						}
					}
				}()
			}
			for i := 0; i < 4; i++ {
				<-warmed
			}
			if crash {
				db.CrashStop()
			} else if err := db.Close(); err != nil {
				t.Errorf("Close under load: %v", err)
			}
			close(released)
			wg.Wait()
			if err := db.Close(); !errors.Is(err, pagefile.ErrClosed) {
				t.Errorf("Close of a released database = %v, want pagefile.ErrClosed", err)
			}

			db2, err := Open(Config{Dir: dir})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db2.Close()
			verifyDB(t, db2)
			// An insert that failed in the durability wait may still be in
			// the log, so the count is bracketed, not exact.
			n, err := db2.Count("Emp1")
			if err != nil {
				t.Fatal(err)
			}
			if lo, hi := 20+acked.Load(), 20+attempted.Load(); int64(n) < lo || int64(n) > hi {
				t.Fatalf("Emp1 holds %d objects after reopen, want %d..%d (acknowledged..attempted)", n, lo, hi)
			}
		})
	}
}
