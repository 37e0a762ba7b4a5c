package engine

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
	"github.com/exodb/fieldrepl/internal/wal"
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

	// Three states a power loss can leave when the log has a runway ahead of
	// its append offset: the records and a synced zero runway; the last
	// append torn inside the runway, its second half never written (so never
	// acknowledged); and a fill whose size change never became durable, the
	// file cut mid-runway.
	for _, tc := range []struct {
		name string
		torn bool
	}{{name: "runway/synced"}, {name: "runway/torn-append", torn: true}, {name: "runway/size-lost"}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Config{Dir: dir, PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			powerLossSetup(t, db)
			if err := db.Sync(); err != nil { // a new generation: the next commit outruns it and starts a fill
				t.Fatal(err)
			}
			setSalary(t, db, 501)
			setSalary(t, db, 502)
			acked := powerLossRows(t, db)
			start := db.wal.Size()
			setSalary(t, db, 503)
			end := db.wal.Size()
			want := powerLossRows(t, db)
			db.CrashStop() // joins the fill: records, then zeros
			path := filepath.Join(dir, "wal.log")
			st, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() <= end {
				t.Fatalf("wal.log is %d bytes, no runway after its records' %d", st.Size(), end)
			}
			switch tc.name {
			case "runway/torn-append":
				f, err := os.OpenFile(path, os.O_RDWR, 0)
				if err != nil {
					t.Fatal(err)
				}
				mid := start + (end-start)/2
				if _, err := f.WriteAt(make([]byte, end-mid), mid); err != nil {
					t.Fatal(err)
				}
				f.Close()
				want = acked
			case "runway/size-lost":
				cutFile(t, dir, "wal.log", end+(st.Size()-end)/2)
			}

			db, err = Open(Config{Dir: dir, PoolPages: 64})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			if got := powerLossRows(t, db); got != want {
				t.Fatalf("reopened database answers\n%s\nwant\n%s", got, want)
			}
			verifyDB(t, db)
			if torn := db.RecoveryReport().TornTail; torn != tc.torn {
				t.Fatalf("TornTail = %v, want %v", torn, tc.torn)
			}
		})
	}
}

// setSalary sets emp-000's salary to v in one acknowledged statement.
func setSalary(t *testing.T, db *DB, v int64) {
	t.Helper()
	if err := trySetSalary(db, v); err != nil {
		t.Fatal(err)
	}
}

func trySetSalary(db *DB, v int64) error {
	emp := Pred{Expr: "name", Op: OpEQ, Value: str("emp-000")}
	_, _, err := db.UpdateWhere(context.Background(), "Emp1", emp, map[string]schema.Value{"salary": num(v)})
	return err
}

// TestLogSyncFailureIsSticky injects EIO into a commit's fsync and into a
// runway fill's. Either poisons the log: the next update fails even though
// the device would sync again, Close releases the database, and Open
// replays a log that VerifyReplication finds clean. The update acknowledged
// before a failed fill survives; the update that failed in its own fsync
// may or may not (its outcome is unknown); the one refused after it never
// appears.
func TestLogSyncFailureIsSticky(t *testing.T) {
	for _, failFill := range []bool{false, true} {
		t.Run(map[bool]string{false: "commit", true: "fill"}[failFill], func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(Config{Dir: dir, PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			powerLossSetup(t, db)
			if err := db.Sync(); err != nil {
				t.Fatal(err)
			}
			wal.SetSyncHook(func(fill bool) error {
				if fill == failFill {
					return syscall.EIO
				}
				return nil
			})
			t.Cleanup(func() { wal.SetSyncHook(nil) })
			err = trySetSalary(db, 777)
			if failFill != (err == nil) {
				t.Fatalf("update whose %s fsync fails: %v", map[bool]string{false: "commit", true: "fill"}[failFill], err)
			}
			if failFill { // the fill runs after the update returns
				within(t, "the fill to fail", func() bool { return db.wal.Err() != nil })
			}
			wal.SetSyncHook(nil)
			if err := trySetSalary(db, 888); !errors.Is(err, syscall.EIO) {
				t.Fatalf("the next update = %v, want the sticky EIO", err)
			}
			if err := db.Close(); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Close of a poisoned database = %v, want the sticky EIO", err)
			}
			if err := db.Close(); !errors.Is(err, pagefile.ErrClosed) {
				t.Fatalf("a poisoned database was not released by Close: second Close = %v", err)
			}

			db, err = Open(Config{Dir: dir, PoolPages: 64})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			defer db.Close()
			verifyDB(t, db)
			emp := Pred{Expr: "name", Op: OpEQ, Value: str("emp-000")}
			res, _, err := db.Query(nil, Query{Set: "Emp1", Project: []string{"salary"}, Where: &emp})
			if err != nil || len(res.Rows) != 1 {
				t.Fatalf("reading emp-000 back: %d rows, %v", len(res.Rows), err)
			}
			got := res.Rows[0].Values[0]
			if got.Equal(num(888)) || (failFill && !got.Equal(num(777))) {
				t.Fatalf("salary after reopen = %v", got)
			}
		})
	}
}

// TestSyncLeavesHeaderOnlyLog: the runway never outlives a checkpoint. After
// DB.Sync with no write following, wal.log is exactly its header and the
// catalog the header carries, whether the fill the last commit started was
// still in flight or had finished.
func TestSyncLeavesHeaderOnlyLog(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	powerLossSetup(t, db)
	path := filepath.Join(dir, "wal.log")
	for i, waitFill := range []bool{false, true, false} {
		// Each round starts a generation: its first commit outruns the
		// empty runway and starts a fill.
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		before, _ := db.WALStats()
		setSalary(t, db, 900+int64(i))
		if waitFill {
			within(t, "the fill", func() bool { st, _ := db.WALStats(); return st.RunwayFsyncs > before.RunwayFsyncs })
		}
		if err := db.Sync(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := 24 + int(binary.LittleEndian.Uint32(data[16:])); len(data) != want {
			t.Fatalf("round %d: wal.log is %d bytes after Sync, want header + catalog = %d", i, len(data), want)
		}
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

// within fails the test unless cond holds before a few seconds pass.
func within(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}
