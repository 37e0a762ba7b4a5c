package fieldrepl

import (
	"strings"
	"testing"
)

// openCompany builds the paper's employee database through the public API.
func openCompany(t *testing.T) (*DB, map[string]OID) {
	t.Helper()
	db, err := Open(Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(db.DefineType("ORG", []Field{
		{Name: "name", Kind: String},
		{Name: "budget", Kind: Int},
	}))
	must(db.DefineType("DEPT", []Field{
		{Name: "name", Kind: String},
		{Name: "budget", Kind: Int},
		{Name: "org", Kind: Ref, RefType: "ORG"},
	}))
	must(db.DefineType("EMP", []Field{
		{Name: "name", Kind: String},
		{Name: "age", Kind: Int},
		{Name: "salary", Kind: Int},
		{Name: "dept", Kind: Ref, RefType: "DEPT"},
	}))
	must(db.CreateSet("Org", "ORG"))
	must(db.CreateSet("Dept", "DEPT"))
	must(db.CreateSet("Emp1", "EMP"))

	oids := map[string]OID{}
	ins := func(key, set string, vals V) {
		t.Helper()
		oid, err := db.Insert(set, vals)
		if err != nil {
			t.Fatal(err)
		}
		oids[key] = oid
	}
	ins("acme", "Org", V{"name": S("Acme"), "budget": I(1000)})
	ins("globex", "Org", V{"name": S("Globex"), "budget": I(2000)})
	ins("research", "Dept", V{"name": S("Research"), "budget": I(100), "org": R(oids["acme"])})
	ins("sales", "Dept", V{"name": S("Sales"), "budget": I(200), "org": R(oids["globex"])})
	ins("alice", "Emp1", V{"name": S("Alice"), "age": I(30), "salary": I(120000), "dept": R(oids["research"])})
	ins("bob", "Emp1", V{"name": S("Bob"), "age": I(40), "salary": I(90000), "dept": R(oids["research"])})
	ins("carol", "Emp1", V{"name": S("Carol"), "age": I(50), "salary": I(150000), "dept": R(oids["sales"])})
	return db, oids
}

func TestPublicAPIQuickstartFlow(t *testing.T) {
	db, oids := openCompany(t)
	if err := db.Replicate("Emp1.dept.name", InPlace); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(Query{
		Set:     "Emp1",
		Project: []string{"name", "salary", "dept.name"},
		Where:   &Pred{Expr: "salary", Op: GT, Value: I(100000)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Get(1).Int() <= 100000 {
			t.Fatalf("predicate violated: %v", row.Values)
		}
	}
	// Propagation visible through the public API.
	if err := db.Update("Dept", oids["research"], V{"name": S("R&D")}); err != nil {
		t.Fatal(err)
	}
	rec, err := db.Get("Emp1", oids["alice"])
	if err != nil {
		t.Fatal(err)
	}
	if rec.Fields["name"].Str() != "Alice" {
		t.Fatalf("record = %v", rec.Fields)
	}
	res, _ = db.Query(Query{Set: "Emp1", Project: []string{"dept.name"},
		Where: &Pred{Expr: "name", Op: EQ, Value: S("Alice")}})
	if res.Rows[0].Get(0).Str() != "R&D" {
		t.Fatalf("propagated value = %v", res.Rows[0].Get(0))
	}
	if errs := db.VerifyReplication(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

func TestPublicValueAccessors(t *testing.T) {
	if I(7).Int() != 7 || F(2.5).Float() != 2.5 || S("x").Str() != "x" {
		t.Fatal("value accessors broken")
	}
	if !NilOID.IsNil() || NilOID.String() != "nil" {
		t.Fatal("NilOID broken")
	}
	if !I(3).Equal(I(3)) || I(3).Equal(I(4)) || I(3).Equal(S("3")) {
		t.Fatal("Equal broken")
	}
	if Int.String() != "int" || Ref.String() != "ref" {
		t.Fatal("Kind.String broken")
	}
	if InPlace.String() != "in-place" || Separate.String() != "separate" {
		t.Fatal("Strategy.String broken")
	}
	var st IOStats
	st2 := IOStats{Reads: 5, Writes: 3}
	if st2.Sub(st).Total() != 8 || !strings.Contains(st2.String(), "reads=5") {
		t.Fatal("IOStats broken")
	}
}

func TestPublicExecSurfaceLanguage(t *testing.T) {
	db, _ := openCompany(t)
	outs, err := db.Exec(`
replicate separate Emp1.dept.budget
retrieve (Emp1.name, Emp1.dept.budget) where Emp1.age >= 40
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if len(outs[1].Rows) != 2 {
		t.Fatalf("rows = %v", outs[1].Rows)
	}
	if !strings.Contains(outs[1].Table(), "Emp1.dept.budget") {
		t.Fatal("Table output lacks header")
	}
	if _, err := db.ExecOne("replicate Emp1.dept.name\nreplicate Emp2.dept.name"); err == nil {
		t.Fatal("ExecOne accepted two statements")
	}
}

func TestPublicIndexAndIO(t *testing.T) {
	db, _ := openCompany(t)
	if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	res, err := db.Query(Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: Between, Value: I(80000), Value2: I(130000)}})
	if err != nil {
		t.Fatal(err)
	}
	if res.UsedIndex != "sal" || len(res.Rows) != 2 {
		t.Fatalf("res = %+v", res)
	}
	// Deltas against a snapshot (there is no counter reset): the
	// counters keep running, and the delta attributes this query's I/O.
	before := db.IO()
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(Query{Set: "Emp1", Project: []string{"name"}, EmitOutput: true}); err != nil {
		t.Fatal(err)
	}
	io := db.IO().Sub(before)
	if io.Reads == 0 || io.Total() == 0 {
		t.Fatalf("IO = %v", io)
	}
	if n, err := db.NumPages("Emp1"); err != nil || n == 0 {
		t.Fatalf("NumPages = %d, %v", n, err)
	}
	if n, _ := db.Count("Emp1"); n != 3 {
		t.Fatalf("Count = %d", n)
	}
}

func TestPublicUpdateWhereAndCollapsed(t *testing.T) {
	db, oids := openCompany(t)
	if err := db.Replicate("Emp1.dept.org.name", InPlace, Collapsed()); err != nil {
		t.Fatal(err)
	}
	n, err := db.UpdateWhere("Org", Pred{Expr: "name", Op: EQ, Value: S("Acme")}, V{"name": S("Acme2")})
	if err != nil || n != 1 {
		t.Fatalf("UpdateWhere = %d, %v", n, err)
	}
	res, _ := db.Query(Query{Set: "Emp1", Project: []string{"dept.org.name"},
		Where: &Pred{Expr: "name", Op: EQ, Value: S("Alice")}})
	if res.Rows[0].Get(0).Str() != "Acme2" {
		t.Fatalf("collapsed propagation: %v", res.Rows[0].Get(0))
	}
	if errs := db.VerifyReplication(); len(errs) > 0 {
		t.Fatal(errs)
	}
	// Deleting a referenced target fails through the public API too.
	if err := db.Delete("Org", oids["acme"]); err == nil {
		t.Fatal("delete of referenced org succeeded")
	}
}

func TestPublicFileBacked(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 64, InlineMax: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.DefineType("T", []Field{{Name: "x", Kind: Int}}); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateSet("Ts", "T"); err != nil {
		t.Fatal(err)
	}
	oid, err := db.Insert("Ts", V{"x": I(42)})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := db.Get("Ts", oid)
	if err != nil || rec.Fields["x"].Int() != 42 {
		t.Fatalf("file-backed round trip: %v, %v", rec, err)
	}
	// The page's first record since the checkpoint is a full image, its
	// second a delta; the public counters say which is which.
	if err := db.Update("Ts", oid, V{"x": I(43)}); err != nil {
		t.Fatal(err)
	}
	if st, ok := db.WALStats(); !ok || st.FullImages != 1 || st.DeltaRecords != 1 {
		t.Fatalf("WALStats after an insert and an update of one page: %+v", st)
	}
	if err := db.FlushAll(); err != nil {
		t.Fatal(err)
	}
}

func TestPublicDeferredPropagation(t *testing.T) {
	db, oids := openCompany(t)
	if err := db.Replicate("Emp1.dept.name", InPlace, Deferred()); err != nil {
		t.Fatal(err)
	}
	// A burst of renames queues one propagation.
	for _, n := range []string{"A", "B", "Lab"} {
		if err := db.Update("Dept", oids["research"], V{"name": S(n)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := db.PendingPropagations(); got != 1 {
		t.Fatalf("pending = %d", got)
	}
	// The first query through the path flushes (not propagated until needed).
	res, err := db.Query(Query{Set: "Emp1", Project: []string{"name", "dept.name"},
		Where: &Pred{Expr: "name", Op: EQ, Value: S("Alice")}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0].Get(1).Str() != "Lab" {
		t.Fatalf("deferred read = %v", res.Rows[0].Get(1))
	}
	if db.PendingPropagations() != 0 {
		t.Fatal("query did not flush the deferred queue")
	}
	// Explicit flush also works.
	if err := db.Update("Dept", oids["research"], V{"name": S("Lab2")}); err != nil {
		t.Fatal(err)
	}
	if err := db.FlushReplication(); err != nil {
		t.Fatal(err)
	}
	if db.PendingPropagations() != 0 {
		t.Fatal("FlushReplication left entries")
	}
	if errs := db.VerifyReplication(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

func TestPublicInverse(t *testing.T) {
	db, oids := openCompany(t)
	// Without any replication path: scan fallback.
	got, viaLinks, err := db.Inverse("Emp1", "dept", oids["research"])
	if err != nil {
		t.Fatal(err)
	}
	if viaLinks {
		t.Fatal("claimed inverted path without one")
	}
	if len(got) != 2 {
		t.Fatalf("scan inverse = %v", got)
	}
	// With a replication path the inverted path answers directly.
	if err := db.Replicate("Emp1.dept.name", InPlace); err != nil {
		t.Fatal(err)
	}
	got2, viaLinks, err := db.Inverse("Emp1", "dept", oids["research"])
	if err != nil || !viaLinks {
		t.Fatalf("inverted-path inverse: via=%v err=%v", viaLinks, err)
	}
	if len(got2) != len(got) {
		t.Fatalf("inverse answers differ: %v vs %v", got2, got)
	}
	// Two-level inverse through a 2-level path.
	if err := db.Replicate("Emp1.dept.org.name", InPlace); err != nil {
		t.Fatal(err)
	}
	got3, viaLinks, err := db.Inverse("Emp1", "dept.org", oids["acme"])
	if err != nil || !viaLinks {
		t.Fatalf("two-level inverse: via=%v err=%v", viaLinks, err)
	}
	if len(got3) != 2 { // alice, bob via research; carol is at globex's dept
		t.Fatalf("two-level inverse = %v", got3)
	}
	// Bad ref expression.
	if _, _, err := db.Inverse("Emp1", "salary", oids["acme"]); err == nil {
		t.Fatal("non-ref expression accepted")
	}
}

func TestPublicReopen(t *testing.T) {
	dir := t.TempDir()
	{
		db, err := Open(Config{Dir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := db.Exec(`
define type DEPT ( name: char[], budget: int )
define type EMP  ( name: char[], dept: ref DEPT )
create Dept: {own ref DEPT}
create Emp1: {own ref EMP}
let d = insert Dept (name = "Research", budget = 7)
insert Emp1 (name = "Alice", dept = d)
replicate Emp1.dept.name
`); err != nil {
			t.Fatal(err)
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
	}
	db, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer db.Close()
	out, err := db.ExecOne(`retrieve (Emp1.name, Emp1.dept.name)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][1] != "Research" {
		t.Fatalf("rows after reopen = %v", out.Rows)
	}
	if errs := db.VerifyReplication(); len(errs) > 0 {
		t.Fatal(errs)
	}
}

// TestPublicConcurrentUse hammers the public API from several goroutines with
// no lock above the engine (run with -race): DML and queries, a goroutine
// cycling the exclusive-lock operations (index build/drop, Sync) and the
// accessors, and a session script with a begin … commit block. The engine's
// two lock layers alone must keep every statement correct and the
// replication invariant intact, on both store kinds.
func TestPublicConcurrentUse(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (*DB, map[string]OID)
	}{
		{"in-memory", openCompany},
		{"file-backed", func(t *testing.T) (*DB, map[string]OID) {
			db, oids, _ := openCompanyDir(t)
			return db, oids
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			db, oids := tc.open(t)
			if err := db.Replicate("Emp1.dept.name", InPlace); err != nil {
				t.Fatal(err)
			}
			orgs, err := db.Count("Org")
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			done := make(chan error, goroutines)
			run := func(f func() error) { go func() { done <- f() }() }
			for g := 0; g < 6; g++ {
				run(func() error {
					for i := 0; i < 40; i++ {
						var err error
						switch (g + i) % 3 {
						case 0:
							_, err = db.Query(Query{Set: "Emp1", Project: []string{"name", "dept.name"}})
						case 1:
							err = db.Update("Dept", oids["research"], V{"budget": I(int64(i))})
						default:
							_, err = db.Insert("Emp1", V{"name": S("c"), "age": I(1), "salary": I(1), "dept": R(oids["research"])})
						}
						if err != nil {
							return err
						}
					}
					return nil
				})
			}
			run(func() error { // exclusive-lock operations and accessors beside the statements
				for i := 0; i < 10; i++ {
					if err := db.BuildIndex("emp1_salary", "Emp1", "salary", false); err != nil {
						return err
					}
					if err := db.Sync(); err != nil {
						return err
					}
					_ = db.IO()
					if _, err := db.NumPages("Emp1"); err != nil {
						return err
					}
					if err := db.DropIndex("emp1_salary"); err != nil {
						return err
					}
				}
				return nil
			})
			run(func() error { // a session whose script holds a transaction open across statements
				sess := db.NewSession()
				defer sess.Close()
				for i := 0; i < 10; i++ {
					_, err := sess.Exec(`begin on Org
						insert Org (name = "o", budget = 1)
						retrieve (Org.name) where Org.budget > 0
						commit
						retrieve (Emp1.name, Emp1.dept.name) where Emp1.salary > 0`)
					if err != nil {
						return err
					}
				}
				return nil
			})
			for g := 0; g < goroutines; g++ {
				if err := <-done; err != nil {
					t.Fatal(err)
				}
			}
			if n, err := db.Count("Org"); err != nil || n != orgs+10 {
				t.Fatalf("Org holds %d objects (%v), want the %d seeded plus 10 committed inserts", n, err, orgs)
			}
			if errs := db.VerifyReplication(); len(errs) > 0 {
				t.Fatal(errs)
			}
		})
	}
}

func TestPublicSetStats(t *testing.T) {
	db, _ := openCompany(t)
	st, err := db.Stats("Emp1")
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 3 || st.Pages == 0 || st.AvgPayload() <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Replicating after load widens objects; forwarding may appear, and the
	// object count must be unchanged.
	if err := db.Replicate("Emp1.dept.name", InPlace); err != nil {
		t.Fatal(err)
	}
	st2, err := db.Stats("Emp1")
	if err != nil {
		t.Fatal(err)
	}
	if st2.Live != 3 {
		t.Fatalf("live changed: %+v", st2)
	}
	if st2.AvgPayload() <= st.AvgPayload() {
		t.Fatalf("replication did not widen objects: %v -> %v", st.AvgPayload(), st2.AvgPayload())
	}
	if _, err := db.Stats("Nope"); err == nil {
		t.Fatal("stats of missing set succeeded")
	}
}
