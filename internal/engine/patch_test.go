package engine

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestInPlacePropagationPatchBranches drives in-place propagation through
// every branch a source object's refresh can take: a value of the same width
// patched in the page, one of another width re-encoded with the record moved
// behind a forwarding stub, a forwarded record patched through its stub, a
// patch rolled back, and a deferred path drained through the patch. After
// each step the replication invariant holds, the index on the replicated
// path answers as a scan does (a patch that skipped the listener would leave
// stale entries), and the replicated values are the departments' names.
func TestInPlacePropagationPatchBranches(t *testing.T) {
	onBothStores(t, func(t *testing.T, dir string) {
		db := openEmployeeDB(t, Config{Dir: dir})
		st := populate(t, db, 2, 4, 40)
		must := func(err error) {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
		}
		must(db.Replicate("Emp1.dept.name", catalog.InPlace))
		must(db.Replicate("Emp1.dept.budget", catalog.InPlace, catalog.WithDeferred()))
		must(db.BuildIndex("emp1_deptname", "Emp1", "dept.name", false))

		names := map[pagefile.OID]string{}
		budgets := map[pagefile.OID]int64{}
		for i, d := range st.depts {
			names[d] = fmt.Sprintf("dept-%02d", i)
			budgets[d] = int64(100 * i)
		}
		check := func(step string) {
			t.Helper()
			verifyDB(t, db)
			scan, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept", "dept.name", "dept.budget"}})
			must(err)
			if len(scan.Rows) != len(st.emps) {
				t.Fatalf("%s: the scan returns %d employees, want %d", step, len(scan.Rows), len(st.emps))
			}
			byName := map[string][]string{}
			for _, row := range scan.Rows {
				emp, dept, name, budget := row.Values[0].S, row.Values[1].R, row.Values[2].S, row.Values[3].I
				if name != names[dept] || budget != budgets[dept] {
					t.Fatalf("%s: %s replicates %q, %d; its department is %q, %d", step, emp, name, budget, names[dept], budgets[dept])
				}
				byName[name] = append(byName[name], emp)
			}
			for name, emps := range byName {
				res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"},
					Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str(name)}})
				must(err)
				var got []string
				for _, row := range res.Rows {
					got = append(got, row.Values[0].S)
				}
				slices.Sort(got)
				slices.Sort(emps)
				if res.UsedIndex != "emp1_deptname" || !slices.Equal(got, emps) {
					t.Fatalf("%s: the index (used: %q) finds %v under %.12q, the scan %v", step, res.UsedIndex, got, name, emps)
				}
			}
		}
		rename := func(d pagefile.OID, name string) {
			t.Helper()
			must(db.Update("Dept", d, map[string]schema.Value{"name": str(name)}))
			names[d] = name
		}
		forwarded := func() int {
			t.Helper()
			s, err := db.SetStats("Emp1")
			must(err)
			return s.Forwarded
		}
		check("built")
		fwd0 := forwarded()

		rename(st.depts[0], "dept-XX")
		check("same width")
		if forwarded() != fwd0 {
			t.Fatalf("a same-width rename moved records: %d forwarded, was %d", forwarded(), fwd0)
		}

		// Ten employees each grow by a kilobyte: they cannot all stay on
		// their page.
		rename(st.depts[1], strings.Repeat("a", 1000))
		check("new width")
		fwd1 := forwarded()
		if fwd1 <= fwd0 {
			t.Fatalf("growing ten records by 1 KB each moved none (%d forwarded)", fwd1)
		}
		rename(st.depts[1], strings.Repeat("b", 1000))
		check("through the stub")
		if forwarded() != fwd1 {
			t.Fatalf("a same-width rename of forwarded records moved them: %d forwarded, was %d", forwarded(), fwd1)
		}

		// A rolled-back patch leaves every record byte for byte as it was.
		records := func() map[pagefile.OID][]byte {
			t.Helper()
			set, _ := db.cat.SetByName("Emp1")
			f, ok := db.lookupFile(set.FileID)
			if !ok {
				t.Fatal("no Emp1 file")
			}
			out := map[pagefile.OID][]byte{}
			for _, e := range st.emps {
				b, err := f.Read(e)
				must(err)
				out[e] = b
			}
			return out
		}
		before := records()
		txn, err := db.BeginSets(context.Background(), "Dept", "Emp1")
		must(err)
		must(txn.Update("Dept", st.depts[2], map[string]schema.Value{"name": str("dept-YY")}))
		must(txn.Update("Dept", st.depts[1], map[string]schema.Value{"name": str(strings.Repeat("c", 1000))}))
		must(txn.Rollback())
		for e, b := range records() {
			if !bytes.Equal(b, before[e]) {
				t.Fatalf("after rollback %v reads % x, was % x", e, b, before[e])
			}
		}
		check("rolled back")

		// The budget path is deferred: the update queues, the next read of
		// the path drains it, and the drain patches the same-width value.
		must(db.Update("Dept", st.depts[3], map[string]schema.Value{"budget": num(999)}))
		budgets[st.depts[3]] = 999
		if n := db.mgr.PendingPropagations(); n != 1 {
			t.Fatalf("%d propagations queued, want 1", n)
		}
		check("deferred drain")
		if n := db.mgr.PendingPropagations(); n != 0 {
			t.Fatalf("the drain left %d propagations queued", n)
		}
	})
}
