package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestQueryConsistencyUnderMutation is the engine-level oracle test: a
// database with a mix of replication strategies (including a deferred path)
// takes random mutations, and after every batch the replicated query answers
// are compared against manually recomputed functional joins. This catches
// any divergence between what the executor serves from replicated data and
// the ground truth reachable through the forward references.
func TestQueryConsistencyUnderMutation(t *testing.T) {
	db := openEmployeeDB(t, Config{PoolPages: 1024})
	rng := rand.New(rand.NewSource(2024))

	var orgs, depts []pagefile.OID
	for i := 0; i < 5; i++ {
		oid, err := db.Insert("Org", map[string]schema.Value{
			"name": str(fmt.Sprintf("org-%d", i)), "budget": num(int64(i * 100)),
		})
		if err != nil {
			t.Fatal(err)
		}
		orgs = append(orgs, oid)
	}
	for i := 0; i < 12; i++ {
		oid, err := db.Insert("Dept", map[string]schema.Value{
			"name": str(fmt.Sprintf("dept-%d", i)), "budget": num(int64(i)),
			"org": ref(orgs[rng.Intn(len(orgs))]),
		})
		if err != nil {
			t.Fatal(err)
		}
		depts = append(depts, oid)
	}
	var emps []pagefile.OID
	for i := 0; i < 40; i++ {
		oid, err := db.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("e-%d", i)), "age": num(int64(i)), "salary": num(int64(i * 1000)),
			"dept": ref(depts[rng.Intn(len(depts))]),
		})
		if err != nil {
			t.Fatal(err)
		}
		emps = append(emps, oid)
	}

	// Mixed replication configuration over the same data.
	for _, r := range []struct {
		path  string
		strat catalog.Strategy
		opts  []catalog.PathOption
	}{
		{"Emp1.dept.name", catalog.InPlace, nil},
		{"Emp1.dept.budget", catalog.Separate, nil},
		{"Emp1.dept.org.name", catalog.InPlace, []catalog.PathOption{catalog.WithDeferred()}},
		{"Emp1.dept.org.budget", catalog.Separate, nil},
	} {
		if err := db.Replicate(r.path, r.strat, r.opts...); err != nil {
			t.Fatalf("replicate %s: %v", r.path, err)
		}
	}

	// groundTruth recomputes a path expression by pure reference walking.
	groundTruth := func(e pagefile.OID, refs []string, field string) schema.Value {
		t.Helper()
		obj, err := db.Get("Emp1", e)
		if err != nil {
			t.Fatal(err)
		}
		cur := obj
		typs := []string{"DEPT", "ORG"}
		for i, r := range refs {
			v, _ := cur.Get(r)
			if v.R.IsNil() {
				return schema.Value{}
			}
			typ, _ := db.cat.TypeByName(typs[i])
			next, err := db.ReadObject(v.R, typ)
			if err != nil {
				t.Fatal(err)
			}
			cur = next
		}
		v, _ := cur.Get(field)
		return v
	}

	check := func(step int) {
		t.Helper()
		res, _, err := db.Query(nil, Query{
			Set:     "Emp1",
			Project: []string{"dept.name", "dept.budget", "dept.org.name", "dept.org.budget"},
		})
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		exprs := []struct {
			refs  []string
			field string
		}{
			{[]string{"dept"}, "name"},
			{[]string{"dept"}, "budget"},
			{[]string{"dept", "org"}, "name"},
			{[]string{"dept", "org"}, "budget"},
		}
		for _, row := range res.Rows {
			for i, ex := range exprs {
				want := groundTruth(row.OID, ex.refs, ex.field)
				got := row.Values[i]
				// A broken chain yields the zero value through replication
				// and an invalid value from the pure walk; normalize.
				if want.Kind == schema.KindInvalid {
					want = schema.Zero(got.Kind)
				}
				if !got.Equal(want) {
					t.Fatalf("step %d: emp %v %v.%s = %v, ground truth %v",
						step, row.OID, ex.refs, ex.field, got, want)
				}
			}
		}
		if errs := db.VerifyReplication(); len(errs) > 0 {
			for _, e := range errs {
				t.Error(e)
			}
			t.Fatalf("step %d: invariant violated", step)
		}
	}

	check(-1)
	n := 0
	for step := 0; step < 150; step++ {
		switch rng.Intn(7) {
		case 0: // new employee
			n++
			oid, err := db.Insert("Emp1", map[string]schema.Value{
				"name": str(fmt.Sprintf("n-%d", n)), "age": num(1), "salary": num(1),
				"dept": ref(depts[rng.Intn(len(depts))]),
			})
			if err != nil {
				t.Fatal(err)
			}
			emps = append(emps, oid)
		case 1: // delete employee
			if len(emps) < 5 {
				continue
			}
			i := rng.Intn(len(emps))
			if err := db.Delete("Emp1", emps[i]); err != nil {
				t.Fatal(err)
			}
			emps = append(emps[:i], emps[i+1:]...)
		case 2: // employee changes dept (sometimes to null)
			target := ref(depts[rng.Intn(len(depts))])
			if rng.Intn(8) == 0 {
				target = ref(pagefile.NilOID)
			}
			if err := db.Update("Emp1", emps[rng.Intn(len(emps))], map[string]schema.Value{"dept": target}); err != nil {
				t.Fatal(err)
			}
		case 3: // dept changes org
			if err := db.Update("Dept", depts[rng.Intn(len(depts))], map[string]schema.Value{"org": ref(orgs[rng.Intn(len(orgs))])}); err != nil {
				t.Fatal(err)
			}
		case 4: // dept rename/rebudget
			n++
			if err := db.Update("Dept", depts[rng.Intn(len(depts))], map[string]schema.Value{
				"name": str(fmt.Sprintf("d-%d", n)), "budget": num(int64(rng.Intn(1000))),
			}); err != nil {
				t.Fatal(err)
			}
		case 5: // org rename/rebudget (feeds the deferred path)
			n++
			if err := db.Update("Org", orgs[rng.Intn(len(orgs))], map[string]schema.Value{
				"name": str(fmt.Sprintf("o-%d", n)), "budget": num(int64(rng.Intn(1000))),
			}); err != nil {
				t.Fatal(err)
			}
		case 6: // bulk update through the executor
			if _, _, err := db.UpdateWhere(nil, "Dept",
				Pred{Expr: "budget", Op: OpLE, Value: num(int64(rng.Intn(500)))},
				map[string]schema.Value{"budget": num(int64(rng.Intn(1000)))}); err != nil {
				t.Fatal(err)
			}
		}
		if step%25 == 24 {
			check(step)
		}
	}
	check(9999)
}
