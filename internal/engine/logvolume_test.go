package engine

import (
	"fmt"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// loadReferrers fills Emp1 with nEmps employees assigned round-robin to
// nDepts departments of one organisation, in one transaction, so every
// department's nEmps/nDepts referrers are spread over the whole Emp1 file.
func loadReferrers(tb testing.TB, db *DB, nDepts, nEmps int) staff {
	tb.Helper()
	st := populate(tb, db, 1, nDepts, 0)
	txn, err := db.BeginSets(nil, "Emp1")
	if err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < nEmps; i++ {
		oid, err := txn.Insert("Emp1", map[string]schema.Value{
			"name": str(fmt.Sprintf("emp-%05d", i)), "age": num(30), "salary": num(int64(i)), "dept": ref(st.depts[i%nDepts]),
		})
		if err != nil {
			tb.Fatal(err)
		}
		st.emps = append(st.emps, oid)
	}
	if err := txn.Commit(); err != nil {
		tb.Fatal(err)
	}
	return st
}

// setBudget is the benchmark's write: one int field of the objects of set
// named name.
func setBudget(tb testing.TB, db *DB, set, name string, v int64) {
	tb.Helper()
	n, _, err := db.UpdateWhere(nil, set, Pred{Expr: "name", Op: OpEQ, Value: str(name)}, map[string]schema.Value{"budget": num(v)})
	if err != nil || n != 1 {
		tb.Fatalf("update %s %s: %d objects, %v", set, name, n, err)
	}
}

// TestLogBytesPerCommit gates what a commit appends to the log, in bytes —
// counts, not timings, so it cannot flake. After a checkpoint a page's first
// commit logs the page; every later one logs what changed. The third case is
// the repository benchmark's mix.inplace write at the paper's sharing level:
// one int propagated in place to 100 referrers scattered over the file, which
// logged a page image per page touched — 270 KiB per commit here, 440 KiB in
// the benchmark — before deltas.
func TestLogBytesPerCommit(t *testing.T) {
	db, err := Open(Config{Dir: t.TempDir(), PoolPages: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defineEmployeeSchema(t, db)
	loadReferrers(t, db, 50, 5000)
	if err := db.Replicate("Emp1.dept.budget", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	appended := func(run func()) (bytes, full, delta int64) {
		t.Helper()
		before, _ := db.WALStats()
		run()
		after, _ := db.WALStats()
		if after.Commits != before.Commits+1 {
			t.Fatalf("%d commits, want 1", after.Commits-before.Commits)
		}
		return after.Bytes - before.Bytes, after.FullImages - before.FullImages, after.DeltaRecords - before.DeltaRecords
	}

	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if n, full, delta := appended(func() { setBudget(t, db, "Org", "org-00", 1) }); n < pagefile.PageSize || full != 1 || delta != 0 {
		t.Fatalf("first update of a page after a checkpoint appended %d bytes (%d full, %d delta), want a page image", n, full, delta)
	}
	if n, full, delta := appended(func() { setBudget(t, db, "Org", "org-00", 2) }); n > 256 || full != 0 || delta != 1 {
		t.Fatalf("second update of the page appended %d bytes (%d full, %d delta), want one delta of at most 256", n, full, delta)
	}

	_, pages, _ := appended(func() { setBudget(t, db, "Dept", "dept-00", 1) })
	if pages < 50 {
		t.Fatalf("the in-place update touched %d pages; the referrers are not spread out and the case tests nothing", pages)
	}
	n, full, delta := appended(func() { setBudget(t, db, "Dept", "dept-00", 2) })
	if full != 0 || delta != pages {
		t.Fatalf("second in-place update logged %d full images + %d deltas, want 0 + %d", full, delta, pages)
	}
	if n > 16<<10 {
		t.Fatalf("in-place update to 100 referrers on %d logged pages appended %d bytes, want at most 16 KiB", pages, n)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	if _, full, delta := appended(func() { setBudget(t, db, "Dept", "dept-00", 3) }); full != pages || delta != 0 {
		t.Fatalf("after a checkpoint the update logged %d full images + %d deltas, want %d + 0", full, delta, pages)
	}
	verifyDB(t, db)
}

// BenchmarkRecovery times restart recovery over the log deltas make small:
// a 200-page set, a checkpoint, then 1 000 one-field update commits, a crash,
// and Open. ns/op is the whole Open (scan, redo, store sync, catalog rewrite,
// checkpoint — mostly fsyncs); replay_ms is the scan and redo alone and
// log_KiB what they had to read. The page cache in wal.Redo is what keeps
// 1 000 deltas from costing 1 000 page reads and writes.
func BenchmarkRecovery(b *testing.B) {
	const commits = 1000
	var logBytes int64
	var replay time.Duration
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		db, err := Open(Config{Dir: dir, PoolPages: 2048})
		if err != nil {
			b.Fatal(err)
		}
		defineEmployeeSchema(b, db)
		st := loadReferrers(b, db, 10, 18000)
		if n, _ := db.NumPages("Emp1"); n < 200 {
			b.Fatalf("Emp1 has %d pages, want at least 200", n)
		}
		if err := db.Sync(); err != nil {
			b.Fatal(err)
		}
		before, _ := db.WALStats()
		for c := 0; c < commits; c++ {
			oid := st.emps[(c*37)%len(st.emps)]
			if err := db.Update("Emp1", oid, map[string]schema.Value{"salary": num(int64(c))}); err != nil {
				b.Fatal(err)
			}
		}
		after, _ := db.WALStats()
		logBytes = after.Bytes - before.Bytes
		db.CrashStop()
		b.StartTimer()
		db2, err := Open(Config{Dir: dir, PoolPages: 2048})
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		rep := db2.RecoveryReport()
		if rep.Commits != commits || rep.PagesApplied+rep.DeltasApplied != commits {
			b.Fatalf("replayed %d commits, %d full images, %d deltas; want %d commits, one record each", rep.Commits, rep.PagesApplied, rep.DeltasApplied, commits)
		}
		replay += rep.Duration
		verifyDB(b, db2)
		if err := db2.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(logBytes)/1024, "log_KiB")
	b.ReportMetric(float64(replay.Microseconds())/1000/float64(b.N), "replay_ms")
}
