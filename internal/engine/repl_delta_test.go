package engine

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/repl"
	"github.com/exodb/fieldrepl/internal/schema"
	"github.com/exodb/fieldrepl/internal/wal"
)

// assertPagesEqual compares the stores of two databases page for page —
// content, LSN and checksum — over every file the log ships (scratch query
// outputs and the placeholders that stand in for them on a replica are
// skipped). Both pools must be flushed.
func assertPagesEqual(t *testing.T, a, b *DB) {
	t.Helper()
	compared := 0
	for fid := pagefile.FileID(1); ; fid++ {
		name, err := a.store.FileName(fid)
		if errors.Is(err, pagefile.ErrNoSuchFile) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if strings.HasPrefix(name, "__") {
			continue
		}
		compared += assertFilePagesEqual(t, a, b, fid)
	}
	if compared == 0 {
		t.Fatal("no pages compared")
	}
}

// assertFilePagesEqual compares one file of two databases' stores page for
// page and returns how many pages it compared.
func assertFilePagesEqual(t *testing.T, a, b *DB, fid pagefile.FileID) int {
	t.Helper()
	na, err := a.store.NumPages(fid)
	if err != nil {
		t.Fatal(err)
	}
	nb, err := b.store.NumPages(fid)
	if err != nil || na != nb {
		t.Fatalf("file %d: %d pages vs %d (%v)", fid, na, nb, err)
	}
	for pg := uint32(0); pg < na; pg++ {
		pid := pagefile.PageID{File: fid, Page: pg}
		var pa, pb pagefile.Page
		if err := a.store.ReadPage(pid, &pa); err != nil {
			t.Fatal(err)
		}
		if err := b.store.ReadPage(pid, &pb); err != nil {
			t.Fatal(err)
		}
		if pa != pb {
			t.Fatalf("page %v differs (LSN %d vs %d)", pid, pagefile.PageLSN(&pa), pagefile.PageLSN(&pb))
		}
	}
	return int(na)
}

// deltasSince reports the page records the database's log encoded since
// before, by kind.
func deltasSince(db *DB, before wal.Stats) (full, delta int64) {
	st, _ := db.WALStats()
	return st.FullImages - before.FullImages, st.DeltaRecords - before.DeltaRecords
}

// TestReplicationDeltaStream: a follower built from a snapshot is brought
// forward by a stream that is almost all deltas — each one applying to the
// exact image the snapshot or the previous record left. Its store must end
// byte-equal to the primary's, and after failover it must verify clean.
func TestReplicationDeltaStream(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 2, 4, 60)
	if err := p.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f)
	if fs := f.ReplicationStatus().Follower; fs.Snapshots != 1 {
		t.Fatalf("follower took %d snapshots, want 1", fs.Snapshots)
	}

	before, _ := p.WALStats()
	for round := 0; round < 6; round++ {
		for i, d := range st.depts { // propagates in place to every referrer
			if err := p.Update("Dept", d, map[string]schema.Value{"name": str(fmt.Sprintf("dept-%d-r%d", i, round))}); err != nil {
				t.Fatal(err)
			}
		}
		for i := round; i < len(st.emps); i += 7 {
			if err := p.Update("Emp1", st.emps[i], map[string]schema.Value{"salary": num(int64(round))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if full, delta := deltasSince(p, before); delta < 10*full || full == 0 {
		t.Fatalf("the stream held %d full images and %d deltas; it was meant to be mostly deltas after one full image per page", full, delta)
	}
	// Flush the primary so its store is the committed state (the catalog
	// commit this appends reaches the follower too).
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	waitCaughtUp(t, p, f)
	assertReplicaMatches(t, p, f, "Org", "Dept", "Emp1")
	assertPagesEqual(t, p, f)

	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	waitCond(t, 15*time.Second, "follower to notice the closed primary", func() bool {
		fs := f.ReplicationStatus().Follower
		return fs != nil && !fs.Connected
	})
	if err := f.Promote(); err != nil {
		t.Fatal(err)
	}
	verifyDB(t, f)
	if err := f.Update("Dept", st.depts[0], map[string]schema.Value{"name": str("new-era")}); err != nil {
		t.Fatalf("promoted follower refused a write: %v", err)
	}
	verifyDB(t, f)
}

// TestReplicationCrashBetweenLogAndApplyWithDeltas pins the window ApplyTxns
// leaves open on purpose: the shipped frames are durable in the follower's
// log, the store has not absorbed them, and the process dies. The frames are
// deltas, so recovery has only the follower's own pages to apply them to.
func TestReplicationCrashBetweenLogAndApplyWithDeltas(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 10)
	fdir := t.TempDir()
	f := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f)
	f.follower.Load().Stop() // from here on nothing applies itself

	from := p.wal.LastLSN()
	before, _ := p.WALStats()
	for i := 0; i < 5; i++ {
		if err := p.Update("Emp1", st.emps[i], map[string]schema.Value{"salary": num(int64(7000 + i))}); err != nil {
			t.Fatal(err)
		}
	}
	if full, delta := deltasSince(p, before); full != 0 || delta == 0 {
		t.Fatalf("the updates logged %d full images and %d deltas, want deltas only", full, delta)
	}
	cur := p.wal.CursorAt(from)
	frames, err := p.wal.ReadTail(&cur, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	txns, err := wal.NewAssembler(true).Feed(frames)
	if err != nil || len(txns) != 5 {
		t.Fatalf("%d transactions, %v", len(txns), err)
	}
	for i := range txns {
		if err := f.wal.AppendRaw(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.wal.WaitDurable(txns[4].LastLSN); err != nil {
		t.Fatal(err)
	}
	f.CrashStop()

	// Recover away from the primary: only the local log can supply the five
	// updates.
	r, err := Open(Config{Dir: fdir, PoolPages: 512})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	want, got := dumpSet(t, p, "Emp1"), dumpSet(t, r, "Emp1")
	for oid, vals := range want {
		if got[oid] != vals {
			t.Fatalf("oid %s: primary %q, recovered follower %q", oid, vals, got[oid])
		}
	}
	verifyDB(t, r)
}

// TestReplicationTornPageWithoutFullImage is the one state deltas make
// possible that full images did not: a follower truncated its own log (a
// clean restart), received a delta for a page, and tore that page in a crash.
// Nothing local can rebuild the page. Recovery must refuse, naming the page —
// never open over it — and the remedy is the resync every fresh follower
// gets: an empty directory takes a snapshot and matches.
func TestReplicationTornPageWithoutFullImage(t *testing.T) {
	p, addr := startPrimary(t, repl.Config{})
	defineEmployeeSchema(t, p)
	st := populate(t, p, 1, 2, 10)
	fdir := t.TempDir()
	f := startFollower(t, fdir, addr)
	waitCaughtUp(t, p, f)
	if err := f.Close(); err != nil { // checkpoints: the follower's log is empty
		t.Fatal(err)
	}

	f2 := startFollower(t, fdir, addr)
	before, _ := p.WALStats()
	if err := p.Update("Emp1", st.emps[0], map[string]schema.Value{"salary": num(1)}); err != nil {
		t.Fatal(err)
	}
	if full, delta := deltasSince(p, before); full != 0 || delta != 1 {
		t.Fatalf("the update logged %d full images and %d deltas, want one delta", full, delta)
	}
	waitCaughtUp(t, p, f2)
	f2.CrashStop()

	pid := pagefile.PageID{File: st.emps[0].File, Page: st.emps[0].Page}
	fs, err := pagefile.OpenFileStore(fdir)
	if err != nil {
		t.Fatal(err)
	}
	var junk pagefile.Page
	for i := range junk {
		junk[i] = byte(i*7 + 1)
	}
	if err := fs.WritePageRaw(pid, &junk); err != nil {
		t.Fatal(err)
	}
	if err := fs.Close(); err != nil {
		t.Fatal(err)
	}

	_, err = OpenFollower(Config{Dir: fdir, PoolPages: 512}, addr, fastFollower())
	if !errors.Is(err, pagefile.ErrCorruptPage) || !strings.Contains(err.Error(), pid.String()) {
		t.Fatalf("reopening over a torn page with only a delta in the log: err = %v, want ErrCorruptPage naming %v", err, pid)
	}

	// A checkpoint first, once the primary has dropped the crashed follower's
	// session (a connected follower defers truncation): the log then no
	// longer reaches back to its first record, so a fresh follower cannot
	// stream from the start.
	waitCond(t, 15*time.Second, "the primary to drop the crashed follower", func() bool {
		return len(p.ReplicationStatus().Primary.Followers) == 0
	})
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	f3 := startFollower(t, t.TempDir(), addr)
	waitCaughtUp(t, p, f3)
	if fs := f3.ReplicationStatus().Follower; fs.Snapshots != 1 {
		t.Fatalf("the replacement follower took %d snapshots, want 1", fs.Snapshots)
	}
	assertReplicaMatches(t, p, f3, "Org", "Dept", "Emp1")
}

// TestFollowerMidRepairAnswersFromPrimaryObjects stops a follower after it
// has applied the first commit of a primary's Repair but not the last. The
// catalog that commit carries marks the repair unfinished, so the follower's
// path queries walk the primary objects and use no path index: they return
// the primary's pre-repair answers, never the half-stripped state. After the
// last commit both sides verify clean.
func TestFollowerMidRepairAnswersFromPrimaryObjects(t *testing.T) {
	// A small pool, so the repair commits in many chunks.
	p, err := Open(Config{Dir: t.TempDir(), PoolPages: 16})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = p.Close() })
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ServeReplication(ln, repl.Config{}); err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, p)
	st := populate(t, p, 2, 6, 300)
	if err := p.Replicate("Emp1.dept.org.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := p.BuildIndex("orgname", "Emp1", "dept.org.name", false); err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{Set: "Emp1", Project: []string{"name", "dept.org.name"}},
		{Set: "Emp1", Project: []string{"name"}, Where: &Pred{Expr: "dept.org.name", Op: OpEQ, Value: str("org-01")}},
	}
	want := make([][]Row, len(queries))
	for i, q := range queries {
		res, _, err := p.Query(nil, q)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Rows
	}
	wantEmps, via, err := p.Inverse("Emp1", "dept", st.depts[0])
	if err != nil || via != "inverted-path" {
		t.Fatalf("Inverse on the primary: via %q, %v", via, err)
	}
	answersAsBefore := func(db *DB, wantVia string) {
		t.Helper()
		emps, via, err := db.Inverse("Emp1", "dept", st.depts[0])
		if err != nil || via != wantVia || !slices.Equal(emps, wantEmps) {
			t.Fatalf("Inverse via %q (%v): %d employees, want %d via %q", via, err, len(emps), len(wantEmps), wantVia)
		}
		for i, q := range queries {
			res, _, err := db.Query(nil, q)
			if err != nil {
				t.Fatal(err)
			}
			if err := sameRows(res.Rows, want[i]); err != nil {
				t.Fatalf("query %d: %v", i, err)
			}
		}
	}

	f := startFollower(t, t.TempDir(), ln.Addr().String())
	waitCaughtUp(t, p, f)
	f.follower.Load().Stop() // from here on the test applies the stream itself

	from := p.wal.LastLSN()
	rep, err := p.Repair()
	if err != nil || !rep.Clean() {
		t.Fatalf("Repair: %v, left %v", err, rep.Remaining)
	}
	cur := p.wal.CursorAt(from)
	var frames []byte
	for {
		buf, err := p.wal.ReadTail(&cur, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if len(buf) == 0 {
			break
		}
		frames = append(frames, buf...)
	}
	all, err := wal.NewAssembler(true).Feed(frames)
	if err != nil {
		t.Fatal(err)
	}
	var txns []wal.Txn
	for _, txn := range all {
		if txn.LastLSN > from {
			txns = append(txns, txn)
		}
	}
	if len(txns) < 2 {
		t.Fatalf("the repair committed %d times, want several chunks", len(txns))
	}

	target := &replTarget{db: f}
	if err := target.ApplyTxns(txns[:1]); err != nil {
		t.Fatal(err)
	}
	if !f.cat.NeedsRederive() {
		t.Fatal("the repair's first commit does not mark it unfinished")
	}
	answersAsBefore(f, "scan")
	if err := target.ApplyTxns(txns[1:]); err != nil {
		t.Fatal(err)
	}
	if f.cat.NeedsRederive() {
		t.Fatal("the repair's last commit leaves it unfinished")
	}
	verifyDB(t, p)
	verifyDB(t, f)
	answersAsBefore(f, "inverted-path")
}
