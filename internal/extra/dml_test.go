package extra

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/exodb/fieldrepl/internal/engine"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// newLoggedInterp is newInterp on a file-backed, logged database whose page
// store injects the faults the test schedules.
func newLoggedInterp(t *testing.T) (*Interp, *pagefile.FaultStore) {
	t.Helper()
	dir := t.TempDir()
	inner, err := pagefile.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := pagefile.NewFaultStore(inner)
	db, err := engine.Open(engine.Config{Dir: dir, Store: fs, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	in := NewInterp(db)
	if _, err := run(in, figure1Schema); err != nil {
		t.Fatalf("figure 1 schema: %v", err)
	}
	seed(t, in)
	return in, fs
}

// column runs a retrieve and returns its first column, space-separated.
func column(t *testing.T, in *Interp, src string) string {
	t.Helper()
	out, err := runOne(in, src)
	if err != nil {
		t.Fatal(err)
	}
	var cells []string
	for _, r := range out.Rows {
		cells = append(cells, r[0])
	}
	return strings.Join(cells, " ")
}

// TestReplaceFaultChangesNothing: a replace is one write session, so a store
// fault on its second object's write leaves the first object unchanged too.
// The new name does not fit beside the others on the page, so the first
// object is rewritten in place and the second must move to a new page — the
// allocation the fault hits.
func TestReplaceFaultChangesNothing(t *testing.T) {
	in, fs := newLoggedInterp(t)
	before := column(t, in, "retrieve (Emp1.name)")
	long := strings.Repeat("x", 2000)
	for i := fs.Ops(); i < fs.Ops()+1000; i++ {
		fs.AddFault(pagefile.Fault{Index: i, Op: pagefile.OpAlloc})
	}
	_, err := runOne(in, `replace Emp1 (name = "`+long+`") where Emp1.age >= 30`)
	if !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("replace under an allocation fault: %v", err)
	}
	fs.ClearFaults()
	if after := column(t, in, "retrieve (Emp1.name)"); after != before {
		t.Fatalf("a failed replace left %d bytes of names, want %q", len(after), before)
	}
	if errs := in.DB.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("invariant: %v", errs)
	}
}

// TestReplaceIsOneCommit: a replace of three objects appends one commit
// record; inside begin … commit it appends none of its own.
func TestReplaceIsOneCommit(t *testing.T) {
	in, _ := newLoggedInterp(t)
	commits := func() int64 {
		st, ok := in.DB.WALStats()
		if !ok {
			t.Fatal("no log")
		}
		return st.Commits
	}
	c0 := commits()
	out, err := runOne(in, "replace Emp1 (salary = 1) where Emp1.age >= 30")
	if err != nil || !strings.Contains(out.Message, "replaced 3") {
		t.Fatalf("replace: %q, %v", out.Message, err)
	}
	if n := commits() - c0; n != 1 {
		t.Fatalf("a 3-object replace appended %d commit records, want 1", n)
	}

	c0 = commits()
	if _, err := run(in, "begin on Emp1\nreplace Emp1 (salary = 2) where Emp1.age >= 30\ndelete Emp1 where Emp1.age >= 40"); err != nil {
		t.Fatal(err)
	}
	if n := commits() - c0; n != 0 {
		t.Fatalf("statements inside a transaction appended %d commit records", n)
	}
	if _, err := runOne(in, "commit"); err != nil {
		t.Fatal(err)
	}
	if n := commits() - c0; n != 1 {
		t.Fatalf("the transaction appended %d commit records, want 1", n)
	}
	if got := column(t, in, "retrieve (Emp1.salary)"); got != "2" {
		t.Fatalf("salaries after the transaction: %q", got)
	}
}

// countdownCtx reports cancellation from its cancelAt-th Err call on.
type countdownCtx struct {
	context.Context
	calls    atomic.Int64
	cancelAt int64
}

func (c *countdownCtx) Err() error {
	if c.calls.Add(1) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// TestCancelledStatementChangesNothing cancels a replace and a delete at each
// point the statement consults its context — before it starts, at the scan's
// page boundary and between objects — and requires that every cancelled run
// changed nothing.
func TestCancelledStatementChangesNothing(t *testing.T) {
	for _, c := range []struct{ stmt, check, want string }{
		{"replace Emp1 (salary = 1) where Emp1.age >= 30", "retrieve (Emp1.salary)", "1 1 1"},
		{"delete Emp1 where Emp1.age >= 30", "retrieve (Emp1.name)", ""},
	} {
		in, _ := newLoggedInterp(t)
		before := column(t, in, c.check)
		cancelled := 0
		for k := int64(1); ; k++ {
			_, err := in.ExecCtx(&countdownCtx{Context: context.Background(), cancelAt: k}, c.stmt)
			if err == nil {
				break
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s cancelled at check %d: %v", c.stmt, k, err)
			}
			cancelled++
			if got := column(t, in, c.check); got != before {
				t.Fatalf("%s cancelled at check %d left %q, want %q", c.stmt, k, got, before)
			}
		}
		// One check before the statement, one at the scan's page, one before
		// each of the three objects at least.
		if cancelled < 5 {
			t.Fatalf("%s consulted its context %d times; want a cancellation point between objects", c.stmt, cancelled)
		}
		if got := column(t, in, c.check); got != c.want {
			t.Fatalf("%s uncancelled left %q, want %q", c.stmt, got, c.want)
		}
	}
}
