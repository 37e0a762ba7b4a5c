package fieldrepl

import (
	"context"
	"reflect"
	"strings"
	"testing"
)

// TestCompatShims pins the API redesign's compatibility contract: the
// context-free names keep their historical signatures (checked at compile
// time by the typed assignments below) and behave identically to their
// canonical Ctx forms, which they wrap.
func TestCompatShims(t *testing.T) {
	db, _ := openCompany(t)

	// Compile-time signature checks: a change to any of these breaks the
	// assignment, not just this test's behavior.
	var (
		_ func(Query) (*Result, error)                        = db.Query
		_ func(context.Context, Query) (*Result, error)       = db.QueryCtx
		_ func(string, Pred, V) (int, error)                  = db.UpdateWhere
		_ func(context.Context, string, Pred, V) (int, error) = db.UpdateWhereCtx
		_ func(string) ([]Output, error)                      = db.Exec
		_ func(context.Context, string) ([]Output, error)     = db.ExecCtx
		_ func(context.Context, Query) (*Plan, error)         = db.Plan
	)

	q := Query{Set: "Emp1", Project: []string{"name", "dept.name"},
		Where: &Pred{Expr: "salary", Op: GT, Value: I(100000)}}
	res1, err1 := db.Query(q)
	res2, err2 := db.QueryCtx(context.Background(), q)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(res1.Rows, res2.Rows) || res1.UsedIndex != res2.UsedIndex {
		t.Fatalf("Query and QueryCtx disagree: %+v vs %+v", res1, res2)
	}
	for _, res := range []*Result{res1, res2} {
		if p := res.Plan(); !strings.HasPrefix(p, "plan: ") || !strings.Contains(p, "observed=") {
			t.Fatalf("result plan = %q, want the rendering with observed pages", p)
		}
	}

	n1, err := db.UpdateWhere("Emp1", Pred{Expr: "age", Op: GE, Value: I(40)}, V{"salary": I(95000)})
	if err != nil {
		t.Fatal(err)
	}
	n2, err := db.UpdateWhereCtx(context.Background(), "Emp1", Pred{Expr: "age", Op: GE, Value: I(40)}, V{"salary": I(95000)})
	if err != nil {
		t.Fatal(err)
	}
	if n1 != 2 || n2 != 2 {
		t.Fatalf("UpdateWhere = %d, UpdateWhereCtx = %d, want 2 and 2", n1, n2)
	}

	o1, err := db.Exec(`retrieve (Emp1.name) where Emp1.salary >= 95000`)
	if err != nil {
		t.Fatal(err)
	}
	o2, err := db.ExecCtx(context.Background(), `retrieve (Emp1.name) where Emp1.salary >= 95000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(o1) != 1 || len(o2) != 1 || !reflect.DeepEqual(o1[0].Rows, o2[0].Rows) {
		t.Fatalf("Exec and ExecCtx disagree: %+v vs %+v", o1, o2)
	}
}

// TestPlanValue exercises the first-class Plan API: compile, inspect,
// run, and the predicted/observed pairing Explain reports afterwards.
func TestPlanValue(t *testing.T) {
	db, _ := openCompany(t)
	if err := db.BuildIndex("sal", "Emp1", "salary", false); err != nil {
		t.Fatal(err)
	}
	q := Query{Set: "Emp1", Project: []string{"name"},
		Where: &Pred{Expr: "salary", Op: EQ, Value: I(90000)}}
	p, err := db.Plan(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Access() != "index-range" || p.Index() != "sal" {
		t.Fatalf("access = %s via %q", p.Access(), p.Index())
	}
	if p.ObservedPages() != -1 {
		t.Fatalf("observed before run = %d", p.ObservedPages())
	}
	before := p.Explain()
	if before == "" || p.PredictedPages() <= 0 {
		t.Fatalf("pre-run explain %q predicted %v", before, p.PredictedPages())
	}
	res, err := p.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0].Get(0).Str() != "Bob" {
		t.Fatalf("rows = %+v", res.Rows)
	}
	if p.ObservedPages() < 0 {
		t.Fatalf("observed after run = %d", p.ObservedPages())
	}
	after := p.Explain()
	if after == before {
		t.Fatal("post-run explain does not carry observed pages")
	}
	if res.Plan() != after {
		t.Fatal("Result.Plan differs from Plan.Explain")
	}
}
