package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// openWALDB opens a file-backed (WAL-enabled) database in a fresh temp dir.
func openWALDB(t *testing.T) (*DB, string) {
	t.Helper()
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	return db, dir
}

func TestTxnCommitVisible(t *testing.T) {
	db, _ := openWALDB(t)
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 2)

	txn, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	oid, err := txn.Insert("Emp1", map[string]schema.Value{
		"name": str("txn-emp"), "age": num(30), "salary": num(1), "dept": ref(st.depts[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Update("Emp1", oid, map[string]schema.Value{"salary": num(2)}); err != nil {
		t.Fatal(err)
	}
	// The transaction sees its own uncommitted writes.
	obj, err := txn.Get("Emp1", oid)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obj.Get("salary"); v.I != 2 {
		t.Fatalf("txn reads salary %d, want its own uncommitted 2", v.I)
	}
	if n, err := txn.Count("Emp1"); err != nil || n != 3 {
		t.Fatalf("txn count %d (err %v), want 3", n, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Commit returned %v, want ErrTxnDone", err)
	}
	obj, err = db.Get("Emp1", oid)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obj.Get("salary"); v.I != 2 {
		t.Fatalf("committed salary %d, want 2", v.I)
	}
	verifyDB(t, db)
}

func TestTxnRollbackDiscardsEverything(t *testing.T) {
	db, _ := openWALDB(t)
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 3, 9)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.budget", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	before, err := db.Count("Emp1")
	if err != nil {
		t.Fatal(err)
	}

	txn, err := db.Begin(nil)
	if err != nil {
		t.Fatal(err)
	}
	// Mutate through every replication structure: a terminal update that
	// propagates in-place and separate, inserts, and a delete.
	if err := txn.Update("Dept", st.depts[0], map[string]schema.Value{
		"name": str("renamed"), "budget": num(4242),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("Emp1", map[string]schema.Value{
		"name": str("ghost"), "age": num(1), "salary": num(1), "dept": ref(st.depts[1]),
	}); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := txn.Rollback(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("second Rollback returned %v, want ErrTxnDone", err)
	}

	if n, _ := db.Count("Emp1"); n != before {
		t.Fatalf("count %d after rollback, want %d", n, before)
	}
	obj, err := db.Get("Dept", st.depts[0])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := obj.Get("name"); v.S == "renamed" {
		t.Fatal("rolled-back update still visible")
	}
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "name", Op: OpEQ, Value: str("ghost")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 {
		t.Fatal("rolled-back insert still visible")
	}
	verifyDB(t, db)
}

func TestTxnFailedStatementAborts(t *testing.T) {
	db, _ := openWALDB(t)
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 2)

	txn, err := db.Begin(nil)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := txn.Insert("Emp1", map[string]schema.Value{
		"name": str("doomed"), "age": num(1), "salary": num(1), "dept": ref(st.depts[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A kind-mismatched value fails the statement and must abort the whole
	// transaction, taking the first insert with it.
	if _, err := txn.Insert("Emp1", map[string]schema.Value{"name": num(7)}); err == nil {
		t.Fatal("kind-mismatched insert succeeded")
	}
	if _, err := txn.Insert("Emp1", map[string]schema.Value{}); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("statement after abort returned %v, want ErrTxnDone", err)
	}
	if _, err := db.Get("Emp1", oid); err == nil {
		t.Fatal("aborted transaction's insert is visible")
	}
	verifyDB(t, db)
}

func TestTxnContextCancellation(t *testing.T) {
	db, _ := openWALDB(t)
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 2)

	ctx, cancel := context.WithCancel(context.Background())
	txn, err := db.Begin(ctx)
	if err != nil {
		t.Fatal(err)
	}
	oid, err := txn.Insert("Emp1", map[string]schema.Value{
		"name": str("cancelled"), "age": num(1), "salary": num(1), "dept": ref(st.depts[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	if err := txn.Update("Emp1", oid, map[string]schema.Value{"salary": num(9)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("statement after cancel returned %v, want context.Canceled", err)
	}
	if _, err := txn.Get("Emp1", oid); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("statement after cancel-abort returned %v, want ErrTxnDone", err)
	}
	if _, err := db.Get("Emp1", oid); err == nil {
		t.Fatal("cancelled transaction's insert is visible")
	}
}

func TestTxnCommitSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 3, 9)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	txn, err := db.Begin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Update("Dept", st.depts[0], map[string]schema.Value{"name": str("post-crash")}); err != nil {
		t.Fatal(err)
	}
	oid, err := txn.Insert("Emp1", map[string]schema.Value{
		"name": str("survivor"), "age": num(1), "salary": num(1), "dept": ref(st.depts[0]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Sync — the committed pages live only in the pool
	// and the log.
	crashDB(t, db)

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	obj, err := db2.Get("Emp1", oid)
	if err != nil {
		t.Fatalf("committed insert lost in crash: %v", err)
	}
	if v, _ := obj.Get("name"); v.S != "survivor" {
		t.Fatalf("recovered name %q", v.S)
	}
	// The replicated dept.name must have recovered consistently too.
	res, _, err := db2.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name"}, Where: &Pred{Expr: "dept.name", Op: OpEQ, Value: str("post-crash")}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("replicated update lost in crash")
	}
	verifyDB(t, db2)
}

func TestTxnUncommittedLostInCrash(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 2)
	before, _ := db.Count("Emp1")

	txn, err := db.Begin(nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("Emp1", map[string]schema.Value{
		"name": str("phantom"), "age": num(1), "salary": num(1), "dept": ref(st.depts[0]),
	}); err != nil {
		t.Fatal(err)
	}
	// Crash with the transaction open: it never committed, so reopen must
	// not see any of it. (The abandoned txn still holds the engine lock;
	// the crashed engine is simply dropped.)
	crashDB(t, db)

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, _ := db2.Count("Emp1"); n != before {
		t.Fatalf("count %d after crash, want %d (uncommitted insert must be lost)", n, before)
	}
	verifyDB(t, db2)
}

// crashDB abandons an engine without flushing: the OS-level file handles are
// released so the directory can be reopened, but no dirty state is written.
func crashDB(t *testing.T, db *DB) {
	t.Helper()
	if db.wal != nil {
		// Closing the log file does not sync or checkpoint anything beyond
		// what commits already forced — it only releases the handle.
		if err := db.wal.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.store.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashMatrixReplicatedUpdate crashes the page store at every Nth I/O of
// an in-place + separate replicated update and reopens: WAL replay must
// leave no taint and a clean replication invariant without Repair, and the
// update must be all-or-nothing. Run for unclustered and clustered layouts.
func TestCrashMatrixReplicatedUpdate(t *testing.T) {
	for _, clustered := range []bool{false, true} {
		name := "unclustered"
		if clustered {
			name = "clustered"
		}
		t.Run(name, func(t *testing.T) {
			const maxSteps = 300
			completed := false
			for n := 0; n < maxSteps && !completed; n++ {
				completed = crashMatrixStep(t, n, clustered)
			}
			if !completed {
				t.Fatalf("update still crashing after %d fault offsets", maxSteps)
			}
		})
	}
}

// crashMatrixStep runs one matrix cell: crash the store at the nth I/O of
// the update, reopen, verify. It reports whether the update ran to
// completion (the fault fired too late to interrupt it).
func crashMatrixStep(t *testing.T, n int, clustered bool) bool {
	t.Helper()
	dir := t.TempDir()
	inner, err := pagefile.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := pagefile.NewFaultStore(inner)
	db, err := Open(Config{Dir: dir, Store: fs, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	st := crashSetup(t, db) // replicates Emp1.dept.name in-place, Emp1.dept.budget separate
	if clustered {
		if err := db.BuildIndex("emp_by_dept", "Emp1", "dept.name", true); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}

	fs.AddFault(pagefile.Fault{Index: fs.Ops() + int64(n), Op: pagefile.OpAny, Crash: true})
	uerr := db.Update("Dept", st.depts[0], map[string]schema.Value{
		"name": str("crashed-rename"), "budget": num(999999),
	})
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatalf("n=%d: reopen after crash: %v", n, err)
	}
	defer db2.Close()
	if errs := db2.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("n=%d: replication inconsistent after recovery (no Repair allowed): %v", n, errs)
	}
	// All-or-nothing: the dept reads entirely old or entirely new.
	obj, err := db2.Get("Dept", st.depts[0])
	if err != nil {
		t.Fatalf("n=%d: %v", n, err)
	}
	nameV, _ := obj.Get("name")
	budgetV, _ := obj.Get("budget")
	renamed := nameV.S == "crashed-rename"
	rebudgeted := budgetV.I == 999999
	if renamed != rebudgeted {
		t.Fatalf("n=%d: half-applied update after recovery: name=%q budget=%d", n, nameV.S, budgetV.I)
	}
	if uerr == nil && !renamed {
		t.Fatalf("n=%d: update reported success but was lost in the crash", n)
	}
	if uerr != nil && renamed {
		// A failed update whose commit nonetheless survived would also be
		// wrong: a statement only commits after its body succeeds.
		t.Fatalf("n=%d: failed update (%v) is visible after recovery", n, uerr)
	}
	return uerr == nil
}

// TestGroupCommitConcurrentWriters checks that one-shot writers to one set
// share fsyncs: each appends its commit under the set's lock and waits for
// durability after releasing it. The log's leader lock is held until all K
// wait, so the batch does not depend on how fast a statement runs against
// an fsync (a -race build makes statements many times slower).
func TestGroupCommitConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 1)

	base, ok := db.WALStats()
	if !ok {
		t.Fatal("file-backed database reports no WAL")
	}

	const K = 16
	release := db.wal.HoldSync()
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := db.Insert("Emp1", map[string]schema.Value{
				"name": str(fmt.Sprintf("w-%d", i)), "age": num(1), "salary": num(int64(i)), "dept": ref(st.depts[0]),
			}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(100 * time.Microsecond) {
		if q, _ := db.WALStats(); q.SyncQueue == K {
			break
		}
		if time.Now().After(deadline) {
			release()
			wg.Wait()
			t.Fatalf("%d writers never all reached the durability wait: a commit holds its set lock while it waits", K)
		}
	}
	release()
	wg.Wait()

	stats, _ := db.WALStats()
	commits := stats.Commits - base.Commits
	fsyncs := stats.Fsyncs - base.Fsyncs
	if commits < K {
		t.Fatalf("%d commits for %d concurrent inserts", commits, K)
	}
	if fsyncs < 1 {
		t.Fatal("no fsync at all")
	}
	if fsyncs*2 > commits {
		t.Fatalf("%d fsyncs for %d commits: group commit not batching (want < 0.5 fsyncs/commit)", fsyncs, commits)
	}
	verifyDB(t, db)
}

// TestTxnRaceWithQueries interleaves explicit transactions, one-shot DML,
// and traced queries from many goroutines; run under -race it exercises the
// capture and group-commit synchronization.
func TestTxnRaceWithQueries(t *testing.T) {
	db, _ := openWALDB(t)
	defer db.Close()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 3, 9)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				txn, err := db.Begin(context.Background())
				if err != nil {
					t.Error(err)
					return
				}
				oid, err := txn.Insert("Emp1", map[string]schema.Value{
					"name": str(fmt.Sprintf("r-%d-%d", w, i)), "age": num(1), "salary": num(1), "dept": ref(st.depts[w%3]),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if i%2 == 0 {
					if err := txn.Update("Emp1", oid, map[string]schema.Value{"salary": num(int64(i))}); err != nil {
						t.Error(err)
						return
					}
					if err := txn.Commit(); err != nil {
						t.Error(err)
						return
					}
				} else if err := txn.Rollback(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, _, err := db.Query(nil, Query{
					Set: "Emp1", Project: []string{"dept.name"},
					Where: &Pred{Expr: "salary", Op: OpGE, Value: num(0)},
				}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	verifyDB(t, db)
}
