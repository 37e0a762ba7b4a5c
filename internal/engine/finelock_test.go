package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/schema"
)

// openDisjointSets builds a database with n unrelated sets (W00..Wnn) of a
// ref-free type, so every write footprint is a singleton and writers to
// different sets share no lock. It is in-memory without cfg.Dir, WAL-backed
// with one.
func openDisjointSets(t *testing.T, n int, cfg Config) *DB {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	if err := db.DefineType("PLAIN", []schema.Field{
		{Name: "name", Kind: schema.KindString},
		{Name: "n", Kind: schema.KindInt},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.CreateSet(fmt.Sprintf("W%02d", i), "PLAIN"); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestDisjointWritersConcurrent drives 16 writers into 16 disjoint sets in
// parallel. Under -race this exercises the whole fine-grained path — shared
// engine lock, per-set locks, scoped page capture and, on the file-backed
// leg, concurrent WAL appends and group commit — and the per-set counts prove
// no commit was lost or misrouted.
func TestDisjointWritersConcurrent(t *testing.T) {
	onBothStores(t, testDisjointWritersConcurrent)
}

func testDisjointWritersConcurrent(t *testing.T, dir string) {
	const writers = 16
	perWriter := 60
	if testing.Short() {
		perWriter = 15
	}
	db := openDisjointSets(t, writers, Config{Dir: dir, PoolPages: 1024, PoolShards: 8})

	var wg sync.WaitGroup
	errs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			set := fmt.Sprintf("W%02d", w)
			for i := 0; i < perWriter; i++ {
				oid, err := db.Insert(set, map[string]schema.Value{
					"name": str(fmt.Sprintf("w%02d-%04d", w, i)), "n": num(int64(i)),
				})
				if err != nil {
					errs[w] = fmt.Errorf("insert %s #%d: %w", set, i, err)
					return
				}
				if i%4 == 0 {
					if err := db.Update(set, oid, map[string]schema.Value{"n": num(int64(-i))}); err != nil {
						errs[w] = fmt.Errorf("update %s #%d: %w", set, i, err)
						return
					}
				}
				if i%8 == 0 {
					if err := db.Delete(set, oid); err != nil {
						errs[w] = fmt.Errorf("delete %s #%d: %w", set, i, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	deleted := (perWriter + 7) / 8
	for w := 0; w < writers; w++ {
		set := fmt.Sprintf("W%02d", w)
		n, err := db.Count(set)
		if err != nil {
			t.Fatal(err)
		}
		if n != perWriter-deleted {
			t.Fatalf("%s: %d objects, want %d", set, n, perWriter-deleted)
		}
	}
	verifyDB(t, db)
}

// TestOverlappingFootprintsSerialize runs two writers whose footprints share
// the replicated-field target set: updates to Dept propagate into Emp1's
// hidden copies, so both writers' footprint closures contain {Emp1, Emp2,
// Dept, Org} and they must fully serialize. No update may be lost and the
// replicated state must verify afterwards, on either store.
func TestOverlappingFootprintsSerialize(t *testing.T) {
	onBothStores(t, testOverlappingFootprintsSerialize)
}

func testOverlappingFootprintsSerialize(t *testing.T, dir string) {
	db, err := Open(Config{Dir: dir, PoolPages: 1024, PoolShards: 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 4, 40)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	iters := 50
	if testing.Short() {
		iters = 12
	}
	var wg sync.WaitGroup
	werrs := make([]error, 2)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			dept := st.depts[w] // distinct objects, same set → same lock
			for i := 0; i < iters; i++ {
				if err := db.Update("Dept", dept, map[string]schema.Value{
					"name": str(fmt.Sprintf("d%d-%04d", w, i)),
				}); err != nil {
					werrs[w] = err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	// The last write of each writer must have won on its own object: the
	// serialized schedule never interleaves two propagations mid-flight.
	for w := 0; w < 2; w++ {
		obj, err := db.Get("Dept", st.depts[w])
		if err != nil {
			t.Fatal(err)
		}
		name, _ := obj.Get("name")
		want := fmt.Sprintf("d%d-%04d", w, iters-1)
		if name.S != want {
			t.Fatalf("dept %d name %q, want %q (lost update)", w, name.S, want)
		}
	}
	// Replicated reads resolve through the hidden copies; they must match the
	// terminal values the writers left.
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "dept.name"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 40 {
		t.Fatalf("query returned %d rows", len(res.Rows))
	}
	verifyDB(t, db)
}

// TestRandomizedMultiSetFootprints hammers BeginSets transactions with
// randomized multi-set footprints from many goroutines. Sorted acquisition
// must keep the schedule deadlock-free (the test completing is the
// assertion -race can't make), and the per-set insert counts must add up, on
// either store.
func TestRandomizedMultiSetFootprints(t *testing.T) {
	onBothStores(t, testRandomizedMultiSetFootprints)
}

func testRandomizedMultiSetFootprints(t *testing.T, dir string) {
	const nsets = 6
	const writers = 8
	iters := 30
	if testing.Short() {
		iters = 8
	}
	db := openDisjointSets(t, nsets, Config{Dir: dir, PoolPages: 1024, PoolShards: 8})

	var inserted [nsets]atomic.Int64
	var wg sync.WaitGroup
	werrs := make([]error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			for i := 0; i < iters; i++ {
				// A random 2-3 set footprint, deliberately unsorted.
				perm := rng.Perm(nsets)
				k := 2 + rng.Intn(2)
				sets := make([]string, k)
				for j := 0; j < k; j++ {
					sets[j] = fmt.Sprintf("W%02d", perm[j])
				}
				txn, err := db.BeginSets(context.Background(), sets...)
				if err != nil {
					werrs[w] = fmt.Errorf("BeginSets %v: %w", sets, err)
					return
				}
				for j, set := range sets {
					if _, err := txn.Insert(set, map[string]schema.Value{
						"name": str(fmt.Sprintf("w%d-%d-%d", w, i, j)), "n": num(int64(i)),
					}); err != nil {
						werrs[w] = fmt.Errorf("txn insert %s: %w", set, err)
						return
					}
				}
				if err := txn.Commit(); err != nil {
					werrs[w] = fmt.Errorf("commit %v: %w", sets, err)
					return
				}
				for j := 0; j < k; j++ {
					inserted[perm[j]].Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range werrs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < nsets; i++ {
		n, err := db.Count(fmt.Sprintf("W%02d", i))
		if err != nil {
			t.Fatal(err)
		}
		if int64(n) != inserted[i].Load() {
			t.Fatalf("W%02d: %d objects, want %d", i, n, inserted[i].Load())
		}
	}
	verifyDB(t, db)
}

// TestFineTxnFootprintViolation checks the BeginSets contract on both kinds
// of database: a mutation on an undeclared set fails with ErrWriteConflict and
// aborts the transaction, while queries on undeclared sets read committed
// snapshots.
func TestFineTxnFootprintViolation(t *testing.T) {
	onBothStores(t, testFootprintViolation)
}

func testFootprintViolation(t *testing.T, dir string) {
	db := openDisjointSets(t, 3, Config{PoolPages: 512, Dir: dir})
	if _, err := db.Insert("W01", map[string]schema.Value{"name": str("pre"), "n": num(1)}); err != nil {
		t.Fatal(err)
	}

	txn, err := db.BeginSets(context.Background(), "W00")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Insert("W00", map[string]schema.Value{"name": str("in"), "n": num(1)}); err != nil {
		t.Fatal(err)
	}
	// Reading outside the footprint is fine.
	if res, err := txn.Query(Query{Set: "W01", Project: []string{"name"}}); err != nil {
		t.Fatal(err)
	} else if len(res.Rows) != 1 {
		t.Fatalf("snapshot query saw %d rows", len(res.Rows))
	}
	// Writing outside it aborts with ErrWriteConflict.
	if _, err := txn.Insert("W01", map[string]schema.Value{"name": str("out"), "n": num(2)}); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("out-of-footprint insert: %v, want ErrWriteConflict", err)
	}
	if err := txn.Commit(); !errors.Is(err, ErrTxnDone) {
		t.Fatalf("commit after abort: %v, want ErrTxnDone", err)
	}
	// The abort rolled back the in-footprint insert too.
	if n, _ := db.Count("W00"); n != 0 {
		t.Fatalf("W00 has %d objects after abort, want 0", n)
	}
	verifyDB(t, db)
}

// TestSnapshotReadersNoLockWait runs readers beside a committing writer and a
// transaction left open on another set, and asserts the readers finish while
// that transaction is still open, charging zero lock wait: the snapshot read
// path takes neither the exclusive lock nor any set lock, on either store.
func TestSnapshotReadersNoLockWait(t *testing.T) {
	onBothStores(t, testSnapshotReadersNoLockWait)
}

func testSnapshotReadersNoLockWait(t *testing.T, dir string) {
	db := openDisjointSets(t, 2, Config{Dir: dir, PoolPages: 1024, PoolShards: 8})
	for i := 0; i < 50; i++ {
		if _, err := db.Insert("W00", map[string]schema.Value{
			"name": str(fmt.Sprintf("seed-%03d", i)), "n": num(int64(i)),
		}); err != nil {
			t.Fatal(err)
		}
	}
	txn, err := db.BeginSets(context.Background(), "W01")
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback() // releases the locks before Close if an assertion fails
	if _, err := txn.Insert("W01", map[string]schema.Value{"name": str("open"), "n": num(1)}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := db.Insert("W00", map[string]schema.Value{
				"name": str(fmt.Sprintf("live-%04d", i)), "n": num(int64(i)),
			}); err != nil {
				werr = err
				return
			}
		}
	}()

	iters := 60
	if testing.Short() {
		iters = 15
	}
	read := make(chan error, 1)
	go func() {
		for i := 0; i < iters; i++ {
			res, rec, err := db.Query(nil, Query{
				Set: "W00", Project: []string{"name", "n"},
				Where: &Pred{Expr: "n", Op: OpGE, Value: num(0)},
			})
			switch {
			case err != nil:
			case len(res.Rows) < 50:
				err = fmt.Errorf("reader %d saw %d rows, want >= 50", i, len(res.Rows))
			case rec.LockWaitNs != 0:
				err = fmt.Errorf("reader %d charged %dns lock wait; snapshot reads must not block", i, rec.LockWaitNs)
			}
			if err != nil {
				read <- err
				return
			}
		}
		read <- nil
	}()
	select {
	case err := <-read:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("readers blocked behind an open transaction on another set")
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()
	if werr != nil {
		t.Fatal(werr)
	}
	if n, err := db.Count("W01"); err != nil || n != 1 {
		t.Fatalf("W01 after commit: %d objects (%v), want 1", n, err)
	}
	verifyDB(t, db)
}
