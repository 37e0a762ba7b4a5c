package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
)

// powerLossRows renders Emp1 with its replicated department name: what a
// reopened database must still answer.
func powerLossRows(t *testing.T, db *DB) string {
	t.Helper()
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"name", "salary", "dept.name"}})
	if err != nil {
		t.Fatalf("query Emp1: %v", err)
	}
	var b strings.Builder
	for _, r := range res.Rows {
		fmt.Fprintf(&b, "%v %v\n", r.OID, r.Values)
	}
	return b.String()
}

// cutFile leaves dir/name as a power loss may leave a file whose writes or
// directory entry were never fsynced: gone (size < 0) or cut to size bytes.
// A file that is not there is left alone.
func cutFile(t *testing.T, dir, name string, size int64) {
	t.Helper()
	path := filepath.Join(dir, name)
	if _, err := os.Stat(path); errors.Is(err, os.ErrNotExist) {
		return
	}
	var err error
	if size < 0 {
		err = os.Remove(path)
	} else {
		err = os.Truncate(path, size)
	}
	if err != nil {
		t.Fatal(err)
	}
}

// TestPowerLossStates builds on disk the states a power loss can leave after
// a Close, or after a follower installs a snapshot and is killed, and
// reopens each. A catalog file that was never fsynced may be missing or
// empty; the answers must not change. A log cut to nothing is not a fresh
// log: opening it would restart LSNs below the pages' own and lose the next
// acknowledged update at the following crash, so Open must refuse it.
func TestPowerLossStates(t *testing.T) {
	for _, tc := range []struct {
		name     string
		follower bool
		file     string
		size     int64
		wantErr  string // Open must fail naming this; "" means the rows must survive
	}{
		{name: "close/catalog-missing", file: "catalog.json", size: -1},
		{name: "close/catalog-empty", file: "catalog.json", size: 0},
		{name: "snapshot/catalog-missing", follower: true, file: "catalog.json", size: -1},
		{name: "snapshot/catalog-empty", follower: true, file: "catalog.json", size: 0},
		{name: "close/log-empty", file: "wal.log", size: 0, wantErr: "wal.log"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var want string
			if tc.follower {
				p, addr := startPrimary(t, repl.Config{})
				powerLossSetup(t, p)
				if err := p.Sync(); err != nil { // the log no longer covers the setup: a follower needs a snapshot
					t.Fatal(err)
				}
				f, err := OpenFollower(Config{Dir: dir, PoolPages: 64}, addr, fastFollower())
				if err != nil {
					t.Fatal(err)
				}
				waitCaughtUp(t, p, f)
				if n := f.ReplicationStatus().Follower.Snapshots; n != 1 {
					t.Fatalf("follower installed %d snapshots, want 1", n)
				}
				want = powerLossRows(t, f)
				f.CrashStop()
			} else {
				db, err := Open(Config{Dir: dir, PoolPages: 64})
				if err != nil {
					t.Fatal(err)
				}
				powerLossSetup(t, db)
				want = powerLossRows(t, db)
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}
			cutFile(t, dir, tc.file, tc.size)

			db, err := Open(Config{Dir: dir, PoolPages: 64})
			if tc.wantErr != "" {
				if err == nil {
					t.Fatalf("opened a %s cut to %d bytes; then %s", tc.file, tc.size, updateAcrossCrash(t, db, dir))
				}
				if !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("Open: %v, want an error naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			if got := powerLossRows(t, db); got != want {
				t.Fatalf("reopened database answers\n%s\nwant\n%s", got, want)
			}
			verifyDB(t, db)
			if _, err := os.Stat(filepath.Join(dir, "catalog.json")); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("catalog.json after reopen: %v", err)
			}
		})
	}
}

// powerLossSetup gives db the employee schema, a few rows and an in-place
// path.
func powerLossSetup(t *testing.T, db *DB) {
	t.Helper()
	defineEmployeeSchema(t, db)
	populate(t, db, 1, 2, 6)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
}

// updateAcrossCrash commits one update on db, kills it, reopens dir and
// reports whether the update survived.
func updateAcrossCrash(t *testing.T, db *DB, dir string) string {
	t.Helper()
	emp := Pred{Expr: "name", Op: OpEQ, Value: str("emp-000")}
	if _, _, err := db.UpdateWhere(context.Background(), "Emp1", emp, map[string]schema.Value{"salary": num(777)}); err != nil {
		t.Fatal(err)
	}
	db.CrashStop()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		return fmt.Sprintf("reopen after the crash failed: %v", err)
	}
	defer db.Close()
	res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"salary"}, Where: &emp})
	if err != nil || len(res.Rows) != 1 {
		return fmt.Sprintf("reading the update back: %v", err)
	}
	return fmt.Sprintf("an acknowledged salary update to 777 reads back as %v after a crash (recovery skipped %d page records)", res.Rows[0].Values[0], db.recovered.PagesSkipped)
}
