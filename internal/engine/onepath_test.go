package engine

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
)

// TestReplicateOnEmptySetsThenFirstWriteInTxn registers one path of each
// strategy while every set is still empty and then performs the first writes
// through them inside a BeginSets transaction. The link and S′ files exist
// from registration, so the transaction's footprint is complete and it
// commits; a live follower receives the pre-created files with the DDL.
func TestReplicateOnEmptySetsThenFirstWriteInTxn(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	f := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f)

	for _, r := range []struct {
		path  string
		strat catalog.Strategy
		opts  []catalog.PathOption
	}{
		{"Emp1.dept.name", catalog.InPlace, nil},
		{"Emp1.dept.budget", catalog.Separate, nil},
		{"Emp2.dept.org.name", catalog.InPlace, []catalog.PathOption{catalog.WithCollapsed()}},
	} {
		if err := p.Replicate(r.path, r.strat, r.opts...); err != nil {
			t.Fatalf("replicate %s: %v", r.path, err)
		}
	}
	assertPathFiles := func(db *DB, who string) {
		t.Helper()
		for _, path := range db.cat.Paths() {
			for _, l := range pathLinks(path) {
				if _, ok := db.lookupFile(l.FileID); !l.HasFile || !ok {
					t.Fatalf("%s: path %s link %d has no file", who, path.Spec, l.ID)
				}
			}
			if g := path.Group; g != nil {
				if _, ok := db.lookupFile(g.FileID); !g.HasFile || !ok {
					t.Fatalf("%s: path %s S′ group %d has no file", who, path.Spec, g.ID)
				}
			}
		}
	}
	assertPathFiles(p, "primary")

	txn, err := p.BeginSets(context.Background(), "Org", "Dept", "Emp1", "Emp2")
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback() // releases the locks before Close if an assertion fails
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	org, err := txn.Insert("Org", map[string]schema.Value{"name": str("exo"), "budget": num(9)})
	must(err)
	dept, err := txn.Insert("Dept", map[string]schema.Value{"name": str("toys"), "budget": num(100), "org": ref(org)})
	must(err)
	for _, set := range []string{"Emp1", "Emp1", "Emp2", "Emp2"} {
		_, err := txn.Insert(set, map[string]schema.Value{
			"name": str("e"), "age": num(30), "salary": num(1), "dept": ref(dept),
		})
		must(err)
	}
	must(txn.Update("Dept", dept, map[string]schema.Value{"name": str("games"), "budget": num(111)}))
	must(txn.Update("Org", org, map[string]schema.Value{"name": str("megacorp")}))
	must(txn.Commit())
	verifyDB(t, p)

	res, _, err := p.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name", "dept.budget"}})
	must(err)
	if len(res.Rows) != 2 || res.Rows[0].Values[0].S != "games" || res.Rows[0].Values[1].I != 111 {
		t.Fatalf("Emp1 through replicated paths: %v", res.Rows)
	}
	res, _, err = p.Query(nil, Query{Set: "Emp2", Project: []string{"dept.org.name"}})
	must(err)
	if len(res.Rows) != 2 || res.Rows[1].Values[0].S != "megacorp" {
		t.Fatalf("Emp2 through the collapsed path: %v", res.Rows)
	}

	waitCaughtUp(t, p, f)
	assertPathFiles(f, "follower")
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1", "Emp2")
}

// TestReadersSeePreTxnStateWithoutWaiting opens a Begin transaction, writes
// through it, and reads the same objects from other goroutines: they return
// the pre-transaction state immediately, with zero lock wait, and the
// committed state afterwards — in memory and on disk alike.
func TestReadersSeePreTxnStateWithoutWaiting(t *testing.T) {
	onBothStores(t, testReadersSeePreTxnState)
}

func testReadersSeePreTxnState(t *testing.T, dir string) {
	db := openEmployeeDB(t, Config{Dir: dir, PoolPages: 64})
	st := populate(t, db, 1, 2, 6)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}

	txn, err := db.Begin(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Rollback() // releases the locks before Close if an assertion fails
	if err := txn.Update("Dept", st.depts[0], map[string]schema.Value{"name": str("in-flight")}); err != nil {
		t.Fatal(err)
	}

	// readDeptNames reads dept 0 directly and through Emp1's replicated copy.
	readDeptNames := func() (direct string, replicated map[string]bool, lockWait int64, err error) {
		obj, err := db.Get("Dept", st.depts[0])
		if err != nil {
			return "", nil, 0, err
		}
		v, _ := obj.Get("name")
		res, rec, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name"}})
		if err != nil {
			return "", nil, 0, err
		}
		replicated = map[string]bool{}
		for _, r := range res.Rows {
			replicated[r.Values[0].S] = true
		}
		return v.S, replicated, rec.LockWaitNs, nil
	}

	type reading struct {
		direct     string
		replicated map[string]bool
		lockWait   int64
		err        error
	}
	const readers = 4
	got := make(chan reading, readers)
	for i := 0; i < readers; i++ {
		go func() {
			var r reading
			r.direct, r.replicated, r.lockWait, r.err = readDeptNames()
			got <- r
		}()
	}
	for i := 0; i < readers; i++ {
		select {
		case r := <-got:
			if r.err != nil {
				t.Fatal(r.err)
			}
			if r.direct != "dept-00" || r.replicated["in-flight"] || !r.replicated["dept-00"] {
				t.Fatalf("reader saw uncommitted state: Get %q, replicated %v", r.direct, r.replicated)
			}
			if r.lockWait != 0 {
				t.Fatalf("reader charged %dns lock wait behind an open transaction", r.lockWait)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("readers blocked behind an open Begin transaction")
		}
	}

	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	direct, replicated, _, err := readDeptNames()
	if err != nil {
		t.Fatal(err)
	}
	if direct != "in-flight" || !replicated["in-flight"] || replicated["dept-00"] {
		t.Fatalf("after commit: Get %q, replicated %v", direct, replicated)
	}
	verifyDB(t, db)
}

// TestPropagationOutsideFootprintRefused drives a write session whose
// footprint was computed too narrow: the propagation write must fail loudly
// with ErrWriteConflict — never land outside the locks and the scope — and
// the statement must leave nothing behind.
func TestPropagationOutsideFootprintRefused(t *testing.T) {
	onBothStores(t, func(t *testing.T, dir string) {
		db := openEmployeeDB(t, Config{PoolPages: 256, Dir: dir})
		st := populate(t, db, 1, 1, 3)
		if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
			t.Fatal(err)
		}
		// A statement on Dept whose session covers Dept's own file only.
		db.mu.RLock()
		dept, _ := db.cat.SetByName("Dept")
		s := db.newSess(nil, &footprint{sets: []string{"Dept"}, files: map[pagefile.FileID]bool{dept.FileID: true}})
		db.pool.BeginScope()
		err := s.update("Dept", st.depts[0], map[string]schema.Value{"name": str("escaped")})
		rerr := s.rollback()
		db.mu.RUnlock()
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !errors.Is(err, ErrWriteConflict) {
			t.Fatalf("propagation outside the footprint: %v, want ErrWriteConflict", err)
		}
		obj, err := db.Get("Dept", st.depts[0])
		if err != nil {
			t.Fatal(err)
		}
		if v, _ := obj.Get("name"); v.S != "dept-00" {
			t.Fatalf("refused statement left name %q behind", v.S)
		}
		verifyDB(t, db)
	})
}
