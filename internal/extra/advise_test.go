package extra

import (
	"strings"
	"testing"
)

func TestParseAdvise(t *testing.T) {
	stmts, err := Parse("advise")
	if err != nil {
		t.Fatal(err)
	}
	if len(stmts) != 1 {
		t.Fatalf("got %d statements, want 1", len(stmts))
	}
	if _, ok := stmts[0].(*AdviseStmt); !ok {
		t.Fatalf("parsed %T, want *AdviseStmt", stmts[0])
	}
	if Classify(stmts[0]) != ClassRead {
		t.Fatal("advise should classify as a read")
	}
}

func TestExecAdvise(t *testing.T) {
	in := newInterp(t)
	seed(t, in)
	if _, err := run(in, `replicate inplace Emp1.dept.name`); err != nil {
		t.Fatal(err)
	}
	// Drive the mix the advisor aggregates: reads through the replicated
	// path, then an update of the replicated field.
	for i := 0; i < 8; i++ {
		if _, err := run(in, `retrieve (Emp1.name) where Emp1.dept.name = "Research"`); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := run(in, `replace Dept (name = "Research") where Dept.name = "Research"`); err != nil {
		t.Fatal(err)
	}

	outs, err := run(in, "advise")
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("got %d outputs, want 1", len(outs))
	}
	out := outs[0]
	if !strings.HasPrefix(out.Message, "advised ") {
		t.Fatalf("message = %q, want 'advised ...'", out.Message)
	}
	if len(out.Columns) == 0 || out.Columns[0] != "path" {
		t.Fatalf("columns = %v", out.Columns)
	}
	var row []string
	for _, r := range out.Rows {
		if r[0] == "Emp1.dept.name" {
			row = r
			break
		}
	}
	if row == nil {
		t.Fatalf("no row for Emp1.dept.name in %v", out.Rows)
	}
	if row[1] != "in-place" {
		t.Fatalf("current strategy column = %q, want in-place", row[1])
	}
	if row[3] == "0" {
		t.Fatalf("reads column is 0: %v", row)
	}
}
