package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestNullReferenceTransparent checks that replication is transparent for
// null references: a broken chain yields the zero value of the terminal
// field's kind whichever way the expression is resolved, in predicates and in
// projections. (Unreplicated, the predicate used to fail the whole query with
// "cannot compare Kind(0) with string" and the projection to return an
// invalid value, while in-place replication matched nothing and projected "".)
func TestNullReferenceTransparent(t *testing.T) {
	routes := []struct {
		name, path string
		strategy   catalog.Strategy
	}{
		{"unreplicated", "", 0},
		{"in-place", "Emp1.dept.org.name", catalog.InPlace},
		{"separate", "Emp1.dept.org.name", catalog.Separate},
		{"collapsed-prefix", "Emp1.dept.org", catalog.InPlace},
	}
	for _, route := range routes {
		t.Run(route.name, func(t *testing.T) {
			db := openEmployeeDB(t, Config{})
			insert := func(set string, vals map[string]schema.Value) pagefile.OID {
				t.Helper()
				oid, err := db.Insert(set, vals)
				if err != nil {
					t.Fatal(err)
				}
				return oid
			}
			org := insert("Org", map[string]schema.Value{"name": str("acme"), "budget": num(1)})
			dept := insert("Dept", map[string]schema.Value{"name": str("toys"), "budget": num(1), "org": ref(org)})
			orphan := insert("Dept", map[string]schema.Value{"name": str("orphan"), "budget": num(1)})
			emp := func(name string, dept pagefile.OID) {
				insert("Emp1", map[string]schema.Value{"name": str(name), "age": num(1), "salary": num(1), "dept": ref(dept)})
			}
			// Broken chains both stored before the path exists and inserted
			// into it afterwards.
			emp("whole-0", dept)
			emp("no-dept-0", pagefile.NilOID)
			emp("no-org-0", orphan)
			if route.path != "" {
				if err := db.Replicate(route.path, route.strategy); err != nil {
					t.Fatal(err)
				}
			}
			emp("whole-1", dept)
			emp("no-dept-1", pagefile.NilOID)
			emp("no-org-1", orphan)
			verifyDB(t, db)

			for _, c := range []struct {
				what string
				q    Query
				want string
			}{
				{"predicate", Query{Set: "Emp1", Project: []string{"name"},
					Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("acme")}},
					"whole-0 whole-1"},
				{"predicate on the zero value", Query{Set: "Emp1", Project: []string{"name"},
					Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("")}},
					"no-dept-0 no-org-0 no-dept-1 no-org-1"},
				{"int predicate", Query{Set: "Emp1", Project: []string{"name"},
					Where: &Pred{Expr: "dept.org.budget", Op: OpLT, Value: num(1)}},
					"no-dept-0 no-org-0 no-dept-1 no-org-1"},
				{"projection", Query{Set: "Emp1", Project: []string{"dept.org.name"}},
					`"acme" "" "" "acme" "" ""`},
				{"int projection", Query{Set: "Emp1", Project: []string{"dept.org.budget"}},
					"1 0 0 1 0 0"},
				{"ref projection", Query{Set: "Emp1", Project: []string{"dept.org"},
					Where: &Pred{Expr: "name", Op: OpEQ, Value: str("no-dept-1")}},
					"ref(nil)"},
			} {
				res, _, err := db.Query(nil, c.q)
				if err != nil {
					t.Fatalf("%s: %v", c.what, err)
				}
				var got []string
				for _, row := range res.Rows {
					v := row.Values[0]
					if v.Kind == schema.KindString && c.q.Project[0] == "name" {
						got = append(got, v.S)
					} else {
						got = append(got, v.String())
					}
				}
				if s := strings.Join(got, " "); s != c.want {
					t.Errorf("%s: got %s, want %s", c.what, s, c.want)
				}
			}
		})
	}
}

// TestCompileTimeValidation checks that a statement's expressions are
// validated once, before any page is read — so an empty set does not hide
// the error — and that a constant of the wrong kind is a
// schema.ErrTypeMismatch.
func TestCompileTimeValidation(t *testing.T) {
	db := openEmployeeDB(t, Config{}) // every set is empty
	cases := []struct {
		name     string
		q        Query
		mismatch bool
		text     string
	}{
		{"unknown field", Query{Set: "Emp1", Project: []string{"missing"}}, false, `set Emp1 has no field "missing"`},
		{"unknown terminal field", Query{Set: "Emp1", Project: []string{"dept.org.missing"}}, false, `ORG has no field "missing"`},
		{"non-reference step", Query{Set: "Emp1", Project: []string{"dept.name.org"}}, false, `DEPT has no reference attribute "name"`},
		{"unknown step", Query{Set: "Emp1", Project: []string{"boss.name"}}, false, `EMP has no reference attribute "boss"`},
		{"constant kind", Query{Set: "Emp1", Where: &Pred{Expr: "salary", Op: OpEQ, Value: str("x")}}, true, "Emp1.salary is int, compared with string"},
		{"constant kind through a path", Query{Set: "Emp1", Where: &Pred{Expr: "dept.org.name", Op: OpGT, Value: num(3)}}, true, "is string, compared with int"},
		{"second between constant", Query{Set: "Emp1", Where: &Pred{Expr: "age", Op: OpBetween, Value: num(1), Value2: schema.FloatValue(2)}}, true, "compared with float"},
		{"filter constant kind", Query{Set: "Emp1", Filters: []Pred{{Expr: "name", Op: OpEQ, Value: num(1)}}}, true, "is string, compared with int"},
		{"reference comparison", Query{Set: "Emp1", Where: &Pred{Expr: "dept", Op: OpEQ, Value: ref(pagefile.NilOID)}}, false, "cannot compare ref values"},
		{"unknown operator", Query{Set: "Emp1", Where: &Pred{Expr: "age", Op: Op(77), Value: num(1)}}, false, "unknown operator"},
	}
	check := func(t *testing.T, err error, mismatch bool, text string) {
		t.Helper()
		if err == nil || !strings.Contains(err.Error(), text) {
			t.Fatalf("err = %v, want one containing %q", err, text)
		}
		if errors.Is(err, schema.ErrTypeMismatch) != mismatch {
			t.Fatalf("errors.Is(%v, ErrTypeMismatch) = %v, want %v", err, !mismatch, mismatch)
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, rec, err := db.Query(nil, c.q)
			check(t, err, c.mismatch, c.text)
			if n := rec.Hits + rec.Misses; n != 0 {
				t.Fatalf("rejected query touched %d pages", n)
			}
			_, err = db.PlanQuery(c.q)
			check(t, err, c.mismatch, c.text)
			if c.q.Where != nil {
				_, rec, err := db.UpdateWhere(nil, "Emp1", *c.q.Where, map[string]schema.Value{"age": num(1)})
				check(t, err, c.mismatch, c.text)
				if n := rec.Hits + rec.Misses; n != 0 {
					t.Fatalf("rejected update touched %d pages", n)
				}
			}
		})
	}
}

// pageCtx is a context whose Err counts its calls and reports cancellation
// from call number cancelAt on: the scan's page-boundary checks, counted.
type pageCtx struct {
	context.Context
	calls    atomic.Int64
	cancelAt int64
}

func (c *pageCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCancelledScanStopsAtPageBoundary checks cancellation the way it is
// documented: once per heap page, not per record, and a cancelled scan stops
// without visiting the remaining pages.
func TestCancelledScanStopsAtPageBoundary(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	loadPathScan(t, db, 20, 200, 20000)
	pages, err := db.NumPages("Emp")
	if err != nil {
		t.Fatal(err)
	}

	whole := &pageCtx{Context: context.Background(), cancelAt: 1 << 62}
	res, wholeRec, err := db.Query(whole, pathScanQuery(3))
	if err != nil || len(res.Rows) != 1000 {
		t.Fatalf("uncancelled scan: %d rows, %v", len(res.Rows), err)
	}
	if n := whole.calls.Load(); n != int64(pages) {
		t.Fatalf("ctx.Err checked %d times over %d pages of 20000 records", n, pages)
	}

	// Cancelled at the tenth page boundary: nine Emp pages were evaluated (at
	// most every Dept and Org read once for them), the other pages never
	// fetched.
	const cancelAt = 10
	cancelled := &pageCtx{Context: context.Background(), cancelAt: cancelAt}
	res, rec, err := db.Query(cancelled, pathScanQuery(3))
	if !errors.Is(err, context.Canceled) || res != nil {
		t.Fatalf("cancelled scan returned %v, %v; want context.Canceled", res, err)
	}
	skipped := int64(pages) - cancelAt
	if touched, all := rec.Hits+rec.Misses, wholeRec.Hits+wholeRec.Misses; touched > all-skipped {
		t.Fatalf("cancelled scan touched %d pages; the whole scan touches %d, %d of them after the cancellation", touched, all, skipped)
	}
	if n := cancelled.calls.Load(); n != cancelAt {
		t.Fatalf("ctx.Err checked %d times, want %d", n, cancelAt)
	}

	update := &pageCtx{Context: context.Background(), cancelAt: cancelAt}
	n, _, err := db.UpdateWhere(update, "Emp", Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-03")},
		map[string]schema.Value{"salary": num(1)})
	if !errors.Is(err, context.Canceled) || n != 0 {
		t.Fatalf("cancelled update returned %d, %v; want context.Canceled", n, err)
	}
	if n := update.calls.Load(); n < cancelAt || n > cancelAt+2 {
		// The set-lock acquisition may consult the context as well.
		t.Fatalf("cancelled update checked ctx.Err %d times, want about %d", n, cancelAt)
	}
}

// TestScanAllocBudget pins the property the row program exists for: what a
// scan query allocates is a function of the rows it emits, not of the rows it
// scans. The same 200-row answer is computed over 5 000 and then 20 000
// non-matching extra records; the allocation counts may differ by one percent
// plus the per-page cost of the extra pages (a snapshot page copy and its
// handle). A per-record allocation creeping back into the scan path fails
// this deterministically, where a timing gate cannot.
func TestScanAllocBudget(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 2, 0)
	grow := func(n int, dept pagefile.OID) {
		t.Helper()
		txn, err := db.BeginSets(nil, "Emp1")
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if _, err := txn.Insert("Emp1", map[string]schema.Value{
				"name": str(fmt.Sprintf("emp-%05d", i)), "age": num(30), "salary": num(int64(i)), "dept": ref(dept),
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := txn.Commit(); err != nil {
			t.Fatal(err)
		}
	}
	q := Query{Set: "Emp1", Project: []string{"name", "dept.org.name", "dept.org.budget"},
		Where:   &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-00")},
		Filters: []Pred{{Expr: "age", Op: OpGE, Value: num(18)}, {Expr: "name", Op: OpGE, Value: str("emp")}}}
	measure := func() (allocs float64, pages uint32) {
		t.Helper()
		allocs = testing.AllocsPerRun(5, func() {
			res, _, err := db.Query(nil, q)
			if err != nil || len(res.Rows) != 200 {
				t.Fatalf("%d rows, %v", len(res.Rows), err)
			}
		})
		pages, err := db.NumPages("Emp1")
		if err != nil {
			t.Fatal(err)
		}
		return allocs, pages
	}
	grow(200, st.depts[0]) // dept-00 is in org-00: the answer
	grow(5000, st.depts[1])
	small, smallPages := measure()
	grow(15000, st.depts[1])
	large, largePages := measure()

	const perPage = 3
	budget := small*1.01 + perPage*float64(largePages-smallPages)
	t.Logf("%.0f allocs over %d pages, %.0f over %d pages (budget %.0f)", small, smallPages, large, largePages, budget)
	if large > budget {
		t.Fatalf("scanning 15000 more non-matching records (%d more pages) cost %.0f more allocations; budget %.0f",
			largePages-smallPages, large-small, budget-small)
	}
}

// TestSeparateReadAllocBudget pins what one S′ read costs in allocations: the
// group's S′ type is built once, not per read, and the replicated field is
// read off the encoded S′ object instead of a decoded copy. Every record of
// the scan resolves its predicate through one S′ fetch; only a twentieth of
// them match. The fetch itself (page pin, record, traced file view) takes
// about five; rebuilding the type and decoding the object on every read took
// eleven.
func TestSeparateReadAllocBudget(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	const nEmps = 2000
	populate(t, db, 2, 20, nEmps)
	if err := db.Replicate("Emp1.dept.budget", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	q := Query{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "dept.budget", Op: OpEQ, Value: num(0)}}
	allocs := testing.AllocsPerRun(5, func() {
		res, _, err := db.Query(nil, q)
		if err != nil || len(res.Rows) != nEmps/20 {
			t.Fatalf("%d rows, %v", len(res.Rows), err)
		}
	})
	const perRecord = 7
	t.Logf("%.0f allocs for %d S′ reads (%.2f each)", allocs, nEmps, allocs/nEmps)
	if allocs > perRecord*nEmps {
		t.Fatalf("%.0f allocations for a scan of %d records through a separate path; budget %d per record", allocs, nEmps, perRecord)
	}
}

// TestCarveSlabGrowth pins the slab policy: a worker's first allocation holds
// one row's values, and each later one twice as many rows, up to
// maxSlabValues values.
func TestCarveSlabGrowth(t *testing.T) {
	const n = 3
	var w rowWorker
	want := 1
	for i := 0; i < 1000; i++ {
		grows := len(w.slab) < n
		w.carve(n)
		if grows {
			if got := len(w.slab)/n + 1; got != want {
				t.Fatalf("carve %d allocated %d rows, want %d", i, got, want)
			}
			want = min(2*want, maxSlabValues/n)
		}
	}
	if want != maxSlabValues/n {
		t.Fatalf("slab stopped growing at %d rows, want %d", want, maxSlabValues/n)
	}
}

// TestCarvedRowsDoNotAlias pins that the rows a worker carves from one slab
// are each capped at their own length: growing one row's values reallocates
// it instead of writing into the next row's.
func TestCarvedRowsDoNotAlias(t *testing.T) {
	db := openEmployeeDB(t, Config{})
	populate(t, db, 2, 4, 40)
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name"}})
	if err != nil || len(res.Rows) != 40 {
		t.Fatalf("%d rows, %v", len(res.Rows), err)
	}
	for i := 0; i+1 < len(res.Rows); i++ {
		next := res.Rows[i+1].Values[0]
		_ = append(res.Rows[i].Values, str("grown"))
		if got := res.Rows[i+1].Values[0]; got != next {
			t.Fatalf("appending to row %d changed row %d from %v to %v", i, i+1, next, got)
		}
	}
}
