package extra

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/engine"
)

// figure1Schema is the paper's Figure 1, verbatim modulo whitespace.
const figure1Schema = `
define type ORG (
    name:   char[],
    budget: int
)
define type DEPT (
    name:   char[],
    budget: int,
    org:    ref ORG
)
define type EMP (
    name:   char[],
    age:    int,
    salary: int,
    dept:   ref DEPT
)
create Org:  {own ref ORG}
create Dept: {own ref DEPT}
create Emp1: {own ref EMP}
create Emp2: {own ref EMP}
`

// run executes a script with no cancellation.
func run(in *Interp, src string) ([]Output, error) {
	return in.ExecCtx(context.Background(), src)
}

// runOne executes a single-statement script.
func runOne(in *Interp, src string) (Output, error) {
	outs, err := run(in, src)
	if err != nil {
		return Output{}, err
	}
	if len(outs) != 1 {
		return Output{}, fmt.Errorf("expected one statement, got %d", len(outs))
	}
	return outs[0], nil
}

func newInterp(t *testing.T) *Interp {
	t.Helper()
	db, err := engine.Open(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	in := NewInterp(db)
	if _, err := run(in, figure1Schema); err != nil {
		t.Fatalf("figure 1 schema: %v", err)
	}
	return in
}

func seed(t *testing.T, in *Interp) {
	t.Helper()
	_, err := run(in, `
let acme = insert Org (name = "Acme", budget = 1000)
let globex = insert Org (name = "Globex", budget = 2000)
let research = insert Dept (name = "Research", budget = 100, org = acme)
let sales = insert Dept (name = "Sales", budget = 200, org = globex)
insert Emp1 (name = "Alice", age = 30, salary = 120000, dept = research)
insert Emp1 (name = "Bob", age = 40, salary = 90000, dept = research)
insert Emp1 (name = "Carol", age = 50, salary = 150000, dept = sales)
`)
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"define EMP ( x: int )",                       // missing 'type'
		"define type T ( x: bogus )",                  // bad type
		"create X {own ref T}",                        // missing colon
		"retrieve (name)",                             // projection without set
		"insert Emp1 (name)",                          // missing =
		"retrieve (Emp1.name) where Emp2.age > 3 and", // mixed set in pred
		`insert Emp1 (name = "unterminated`,
		"replace Emp1 (x = 1) where Emp1.a ! 3",
		"@",
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded", src)
		}
	}
}

func TestLexerComments(t *testing.T) {
	stmts, err := Parse(`
# a comment
-- another comment
define type T ( x: int ) # trailing
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("got %d statements", len(stmts))
	}
}

func TestPaperQuery(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	// The paper's Section 3.1 example query.
	out, err := runOne(in, `
retrieve (Emp1.name, Emp1.salary, Emp1.dept.name)
    where Emp1.salary > 100000
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %v", out.Rows)
	}
	byName := map[string]string{}
	for _, r := range out.Rows {
		byName[r[0]] = r[2]
	}
	if byName["Alice"] != "Research" || byName["Carol"] != "Sales" {
		t.Fatalf("rows = %v", out.Rows)
	}
	if !strings.Contains(out.FormatTable(), "Emp1.dept.name") {
		t.Fatal("FormatTable lacks header")
	}
}

func TestReplicateStatementForms(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	for _, stmt := range []string{
		"replicate Emp1.dept.name",
		"replicate separate Emp1.dept.budget",
		"replicate collapsed Emp1.dept.org.name",
		"replicate inplace Emp2.dept.name",
	} {
		out, err := runOne(in, stmt)
		if err != nil {
			t.Fatalf("%s: %v", stmt, err)
		}
		if !strings.Contains(out.Message, "link sequence") && !strings.Contains(out.Message, "separate") {
			t.Fatalf("%s: message %q", stmt, out.Message)
		}
	}
	if errs := in.DB.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("invariant: %v", errs)
	}
	// Queries now exploit replication transparently.
	out, err := runOne(in, `retrieve (Emp1.name, Emp1.dept.name, Emp1.dept.org.name) where Emp1.salary > 100000`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func TestReplacePropagation(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	if _, err := runOne(in, "replicate Emp1.dept.name"); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(in, `replace Dept (name = "R&D") where Dept.name = "Research"`); err != nil {
		t.Fatal(err)
	}
	out, err := runOne(in, `retrieve (Emp1.dept.name) where Emp1.name = "Alice"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "R&D" {
		t.Fatalf("rows = %v", out.Rows)
	}
	if errs := in.DB.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("invariant: %v", errs)
	}
}

func TestBuildIndexAndBetween(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	if _, err := runOne(in, "build btree on Emp1.salary"); err != nil {
		t.Fatal(err)
	}
	out, err := runOne(in, "retrieve (Emp1.name) where Emp1.salary between 90000 and 120000")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 2 {
		t.Fatalf("rows = %v", out.Rows)
	}
	if !strings.Contains(out.Message, "via index") {
		t.Fatalf("message = %q", out.Message)
	}
	// Named and clustered variants parse.
	if _, err := runOne(in, "build btree dept_by_budget on Dept.budget clustered"); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteWhere(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	out, err := runOne(in, "delete Emp1 where Emp1.age >= 40")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Message, "deleted 2") {
		t.Fatalf("message = %q", out.Message)
	}
	res, _ := runOne(in, "retrieve (Emp1.name)")
	if len(res.Rows) != 1 || res.Rows[0][0] != "Alice" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestVariablesAndNil(t *testing.T) {
	in := newInterp(t)
	if _, err := runOne(in, `insert Dept (name = "Solo", budget = 1, org = nil)`); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(in, `insert Emp1 (name = "X", age = 1, salary = 1, dept = unbound)`); err == nil {
		t.Fatal("unbound variable accepted")
	}
	out, err := runOne(in, `retrieve (Dept.name, Dept.org)`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][1] != "nil" {
		t.Fatalf("nil ref rendered as %q", out.Rows[0][1])
	}
}

func TestRetrieveIntoOutput(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	out, err := runOne(in, "retrieve into output (Emp1.name, Emp1.salary)")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 3 {
		t.Fatalf("rows = %v", out.Rows)
	}
}

func TestReplaceAll(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	out, err := runOne(in, "replace Emp1 (age = 99)")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Message, "replaced 3") {
		t.Fatalf("message = %q", out.Message)
	}
}

func TestOIDLiteral(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	res, err := runOne(in, `retrieve (Dept.name) where Dept.name = "Research"`)
	if err != nil || len(res.Rows) != 1 {
		t.Fatal(err)
	}
	// Find an OID via a variable, then insert using the explicit literal.
	out, err := runOne(in, `let d = insert Dept (name = "Temp", budget = 1, org = nil)`)
	if err != nil {
		t.Fatal(err)
	}
	lit := "@" + out.OID.String()
	if _, err := runOne(in, `insert Emp1 (name = "Y", age = 1, salary = 1, dept = `+lit+`)`); err != nil {
		t.Fatalf("OID literal insert: %v", err)
	}
	q, err := runOne(in, `retrieve (Emp1.dept.name) where Emp1.name = "Y"`)
	if err != nil || len(q.Rows) != 1 || q.Rows[0][0] != "Temp" {
		t.Fatalf("rows = %v, err = %v", q.Rows, err)
	}
}

func TestReplicateDeferredKeyword(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	if _, err := runOne(in, "replicate deferred Emp1.dept.name"); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(in, `replace Dept (name = "Lazy") where Dept.name = "Research"`); err != nil {
		t.Fatal(err)
	}
	if in.DB.PendingPropagations() != 1 {
		t.Fatalf("pending = %d", in.DB.PendingPropagations())
	}
	out, err := runOne(in, `retrieve (Emp1.dept.name) where Emp1.name = "Alice"`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0] != "Lazy" {
		t.Fatalf("deferred read = %v", out.Rows)
	}
	// Combined modifiers parse.
	if _, err := runOne(in, "replicate collapsed deferred Emp2.dept.org.name"); err != nil {
		t.Fatal(err)
	}
}

func TestUnreplicateAndDropStatements(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	script := `
replicate Emp1.dept.name
replicate separate Emp1.dept.budget
build btree salidx on Emp1.salary
unreplicate Emp1.dept.name
unreplicate separate Emp1.dept.budget
drop btree salidx
`
	outs, err := run(in, script)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 6 {
		t.Fatalf("outputs = %d", len(outs))
	}
	if !strings.Contains(outs[3].Message, "unreplicated") || !strings.Contains(outs[5].Message, "dropped") {
		t.Fatalf("messages = %q, %q", outs[3].Message, outs[5].Message)
	}
	// Everything still answers via functional joins.
	out, err := runOne(in, `retrieve (Emp1.name, Emp1.dept.name, Emp1.dept.budget)`)
	if err != nil || len(out.Rows) != 3 {
		t.Fatalf("rows = %v, err = %v", out.Rows, err)
	}
	if errs := in.DB.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("invariant: %v", errs)
	}
}

func TestWhereAndConjuncts(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	out, err := runOne(in, `retrieve (Emp1.name) where Emp1.salary > 80000 and Emp1.age >= 40 and Emp1.dept.name = "Research"`)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rows) != 1 || out.Rows[0][0] != "Bob" {
		t.Fatalf("rows = %v", out.Rows)
	}
}

// TestTxnStatements: the surface language's begin/commit/rollback drive a
// real engine transaction with the session's isolation semantics.
func TestTxnStatements(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	if _, err := run(in, `
begin
insert Emp1 (name = "Dave", age = 33, salary = 80000, dept = nil)
commit
`); err != nil {
		t.Fatal(err)
	}
	out, err := runOne(in, "retrieve (Emp1.name)")
	if err != nil || len(out.Rows) != 4 {
		t.Fatalf("rows = %v, err = %v", out.Rows, err)
	}

	if _, err := run(in, `
begin
insert Emp1 (name = "Gone", age = 1, salary = 1, dept = nil)
rollback
`); err != nil {
		t.Fatal(err)
	}
	out, err = runOne(in, "retrieve (Emp1.name)")
	if err != nil || len(out.Rows) != 4 {
		t.Fatalf("after rollback rows = %v, err = %v", out.Rows, err)
	}
}

func TestTxnRefusesDDLAndNesting(t *testing.T) {
	in := newInterp(t)
	if _, err := runOne(in, "begin"); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(in, "define type Q ( x: int )"); err == nil || !strings.Contains(err.Error(), "not allowed inside") {
		t.Fatalf("DDL inside txn: err = %v", err)
	}
	if _, err := runOne(in, "begin"); err == nil || !strings.Contains(err.Error(), "already open") {
		t.Fatalf("nested begin: err = %v", err)
	}
	if _, err := runOne(in, "rollback"); err != nil {
		t.Fatal(err)
	}
	if _, err := runOne(in, "commit"); err == nil {
		t.Fatal("commit with no open transaction should fail")
	}
}

// TestInterpCloseRollsBack: Close rolls an open transaction back and later
// statements fail with ErrSessionClosed.
func TestInterpCloseRollsBack(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	if _, err := run(in, "begin\ninsert Emp1 (name = \"Orphan\", age = 1, salary = 1, dept = nil)"); err != nil {
		t.Fatal(err)
	}
	if err := in.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := run(in, "retrieve (Emp1.name)"); err != ErrSessionClosed {
		t.Fatalf("err = %v, want ErrSessionClosed", err)
	}
	// The rollback took effect: a fresh interpreter on the same engine sees
	// only the seeded rows.
	in2 := NewInterp(in.DB)
	out, err := runOne(in2, "retrieve (Emp1.name)")
	if err != nil || len(out.Rows) != 3 {
		t.Fatalf("rows = %v, err = %v", out.Rows, err)
	}
}
