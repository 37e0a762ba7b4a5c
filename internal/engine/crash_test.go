package engine

import (
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/catalog"
	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/schema"
)

// crashSetup builds a durable file-backed database with in-place and
// separate replication, syncs it, and returns the staff.
func crashSetup(t *testing.T, db *DB) staff {
	t.Helper()
	defineEmployeeSchema(t, db)
	st := populate(t, db, 2, 3, 9)
	if err := db.Replicate("Emp1.dept.name", catalog.InPlace); err != nil {
		t.Fatal(err)
	}
	if err := db.Replicate("Emp1.dept.budget", catalog.Separate); err != nil {
		t.Fatal(err)
	}
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCrashDuringFlushNeverHalfApplied updates a replicated terminal and
// "crashes" (every store operation fails from the first flush write onward,
// and the engine is dropped without Close). The reopened database must
// never silently expose a half-applied update: either the update is wholly
// absent, or the inconsistency is visible to VerifyReplication and Repair
// restores exactness.
func TestCrashDuringFlushNeverHalfApplied(t *testing.T) {
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
	st := crashSetup(t, db)

	// Work from a cold cache so the crash interrupts real disk writes, then
	// let the second flush write of Sync fail and take the store down.
	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	if err := db.Update("Dept", st.depts[0], map[string]schema.Value{"budget": num(7777)}); err != nil {
		t.Fatal(err)
	}
	fs.AddFault(pagefile.Fault{Index: fs.Ops() + 1, Op: pagefile.OpWrite, Crash: true})
	if err := db.Sync(); err == nil {
		t.Fatal("Sync succeeded though the store crashed mid-flush")
	} else if !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("Sync failed with %v, want the injected crash", err)
	}
	// Crash: the engine is dropped without Close; the pool's unflushed pages
	// are lost. Only release the OS files so the test can reopen them.
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()

	errs := db2.VerifyReplication()
	if len(errs) > 0 {
		// The interrupted flush landed a prefix of the update's pages: the
		// inconsistency is loud, and Repair must restore exactness.
		rep, err := db2.Repair()
		if err != nil {
			t.Fatalf("Repair after crash: %v", err)
		}
		if len(rep.Found) == 0 || !rep.Clean() {
			t.Fatalf("Repair after crash found %v, left %v", rep.Found, rep.Remaining)
		}
	}
	if errs := db2.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("replication inconsistent after reopen(+repair): %v", errs)
	}
	// Whatever prefix of the flush survived, each source's replicated budget
	// must now agree with the budget its department actually has.
	deptBudget := map[string]string{}
	res, _, err := db2.Query(nil, Query{Set: "Dept", Project: []string{"name", "budget"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		deptBudget[r.Values[0].S] = r.Values[1].String()
	}
	res, _, err = db2.Query(nil, Query{Set: "Emp1", Project: []string{"dept.name", "dept.budget"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if got, want := r.Values[1].String(), deptBudget[r.Values[0].S]; got != want {
			t.Fatalf("replicated budget %s for dept %s, primary has %s", got, r.Values[0].S, want)
		}
	}
}

// tornCrash dirties pages, tears the first flush write, and crashes; it
// returns with the store closed, ready for reopening. The six inserts land on
// one page: its first record since the checkpoint is a full image and the
// other five are deltas, so the page the crash tears can only be rebuilt by
// replaying the whole chain.
func tornCrash(t *testing.T, dir string) {
	t.Helper()
	inner, err := pagefile.NewFileStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	fs := pagefile.NewFaultStore(inner)
	db, err := Open(Config{Dir: dir, Store: fs, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	crashSetup(t, db)

	if err := db.ColdCache(); err != nil {
		t.Fatal(err)
	}
	// Dirty a bunch of pages, then tear the very first flush write.
	for i := 0; i < 6; i++ {
		if _, err := db.Insert("Emp2", map[string]schema.Value{
			"name": str("torn"), "age": num(1), "salary": num(1), "dept": ref(pagefile.OID{}),
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st, _ := db.WALStats(); st.DeltaRecords < 5 {
		t.Fatalf("the inserts logged %d deltas, want the torn page's newest record to be one", st.DeltaRecords)
	}
	fs.AddFault(pagefile.Fault{Index: fs.Ops(), Op: pagefile.OpWrite, Torn: true, Crash: true})
	if err := db.Sync(); err == nil {
		t.Fatal("Sync succeeded though the store crashed with a torn write")
	}
	if err := inner.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestCrashTornWriteRepaired crashes mid-flush with a torn page write — the
// half-new half-old image a kernel leaves when power fails mid-sector-train.
// Every insert committed to the WAL before the crash, so recovery replay
// must detect the torn image via its checksum, rewrite the logged one, and
// reopen with all data intact — no taint, no Repair.
func TestCrashTornWriteRepaired(t *testing.T) {
	dir := t.TempDir()
	tornCrash(t, dir)

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatalf("reopen after torn write: %v (WAL replay should repair it)", err)
	}
	defer db2.Close()
	if errs := db2.VerifyReplication(); len(errs) > 0 {
		t.Fatalf("replication inconsistent after WAL recovery: %v", errs)
	}
	torn := 0
	res, _, err := db2.Query(nil, Query{Set: "Emp2", Project: []string{"name"}})
	if err != nil {
		t.Fatalf("scan after WAL recovery: %v", err)
	}
	for _, r := range res.Rows {
		if r.Values[0].S == "torn" {
			torn++
		}
	}
	if torn != 6 {
		t.Fatalf("recovered %d of 6 committed inserts", torn)
	}
	for _, set := range []string{"Org", "Dept", "Emp1"} {
		if _, _, err := db2.Query(nil, Query{Set: set, Project: []string{"name"}}); err != nil {
			t.Fatalf("scan of %s after WAL recovery: %v", set, err)
		}
	}
}

// TestCrashUnloggedWriteForcesFullImage writes a logged page behind the
// log's back — what a DDL build that fails before its checkpoint leaves in
// the pool — between two commits to it. A delta for the second commit would
// be cut from an image recovery cannot reconstruct; the log must notice the
// before-image is not the one it recorded and log the page in full, so the
// crash that follows recovers the second commit exactly.
func TestCrashUnloggedWriteForcesFullImage(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	st := populate(t, db, 1, 1, 1)
	if err := db.Sync(); err != nil {
		t.Fatal(err)
	}
	setBudget(t, db, "Org", "org-00", 1) // full image: first record since the checkpoint
	setBudget(t, db, "Org", "org-00", 2) // delta

	pid := pagefile.PageID{File: st.orgs[0].File, Page: st.orgs[0].Page}
	h, err := db.pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	const reserved = 30 // a header byte no page layout reads
	h.Page()[reserved] ^= 0x5A
	h.MarkDirty()
	if err := h.Unpin(); err != nil {
		t.Fatal(err)
	}

	before, _ := db.WALStats()
	setBudget(t, db, "Org", "org-00", 3)
	if full, delta := deltasSince(db, before); full != 1 || delta != 0 {
		t.Fatalf("commit over an unlogged write logged %d full images and %d deltas, want 1 + 0", full, delta)
	}
	db.CrashStop()

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	res, _, err := db2.Query(nil, Query{Set: "Org", Project: []string{"budget"}})
	if err != nil || len(res.Rows) != 1 || res.Rows[0].Values[0].I != 3 {
		t.Fatalf("recovered budget %v (%v), want 3", res.Rows, err)
	}
	h2, err := db2.pool.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Unpin()
	if h2.Page()[reserved] != 0x5A {
		t.Fatal("the recovered page is not the image the last commit logged")
	}
}

// TestCrashTornWriteDetectedNoWAL is the same crash with the log's records
// lost too: there is nothing to replay from, so the torn page must surface as
// ErrCorruptPage when next read — never silently decode as valid data. The
// log's header stays, because it carries the catalog.
func TestCrashTornWriteDetectedNoWAL(t *testing.T) {
	dir := t.TempDir()
	tornCrash(t, dir)
	logPath := filepath.Join(dir, "wal.log")
	log, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	const fixed = 24 // magic | version | base | catLen | catCRC
	if err := os.Truncate(logPath, fixed+int64(binary.LittleEndian.Uint32(log[16:]))); err != nil {
		t.Fatal(err)
	}

	sawCorrupt := func(err error) bool { return errors.Is(err, pagefile.ErrCorruptPage) }
	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		if !sawCorrupt(err) {
			t.Fatalf("reopen failed with %v, want ErrCorruptPage", err)
		}
		return
	}
	defer db2.Close()
	var firstErr error
	for _, set := range []string{"Org", "Dept", "Emp1", "Emp2"} {
		if _, _, err := db2.Query(nil, Query{Set: set, Project: []string{"name"}}); err != nil {
			firstErr = err
			break
		}
	}
	if firstErr == nil {
		t.Fatal("torn page was not detected by any full-set scan")
	}
	if !sawCorrupt(firstErr) {
		t.Fatalf("scan failed with %v, want ErrCorruptPage", firstErr)
	}
}

// TestFlippedBitDetectedOnDisk flips one bit of a set's heap file on disk
// between Close and reopen; the next read of that page must fail with
// ErrCorruptPage instead of decoding garbage.
func TestFlippedBitDetectedOnDisk(t *testing.T) {
	dir := t.TempDir()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer db.Close()
		tdb := db
		// openEmployeeDB builds its own engine; inline the schema here so the
		// file layout on disk is the standard one.
		st := func(err error) {
			if err != nil {
				t.Fatal(err)
			}
		}
		st(tdb.DefineType("EMP", []schema.Field{
			{Name: "name", Kind: schema.KindString},
			{Name: "salary", Kind: schema.KindInt},
		}))
		st(tdb.CreateSet("Emp1", "EMP"))
		for i := 0; i < 5; i++ {
			_, err := tdb.Insert("Emp1", map[string]schema.Value{"name": str("x"), "salary": num(int64(i))})
			st(err)
		}
	}()

	// Flip one bit inside the Emp1 heap file's first page.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var target string
	for _, e := range entries {
		if strings.Contains(e.Name(), "Emp1") && strings.HasSuffix(e.Name(), ".pf") {
			target = filepath.Join(dir, e.Name())
		}
	}
	if target == "" {
		t.Fatalf("no heap file for Emp1 in %s", dir)
	}
	data, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	data[100] ^= 0x04
	if err := os.WriteFile(target, data, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		if !errors.Is(err, pagefile.ErrCorruptPage) {
			t.Fatalf("reopen failed with %v, want ErrCorruptPage", err)
		}
		return
	}
	defer db2.Close()
	_, _, err = db2.Query(nil, Query{Set: "Emp1", Project: []string{"name", "salary"}})
	if err == nil {
		t.Fatal("query over a flipped-bit page succeeded")
	}
	if !errors.Is(err, pagefile.ErrCorruptPage) {
		t.Fatalf("query failed with %v, want ErrCorruptPage", err)
	}
}

// damageDerivedFile replicates path over 2 orgs, 4 departments and 20
// employees — 5 per department, so link objects exist — in dir, records the
// answer of a query through it, closes the database and flips one byte of
// every page file whose name contains marker: media damage no log record
// covers, which is what Repair is for.
func damageDerivedFile(t *testing.T, dir, path string, strategy catalog.Strategy, marker string, opts ...catalog.PathOption) (Query, []Row) {
	t.Helper()
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defineEmployeeSchema(t, db)
	populate(t, db, 2, 4, 20)
	if err := db.Replicate(path, strategy, opts...); err != nil {
		t.Fatal(err)
	}
	spec, _ := catalog.ParsePathSpec(path)
	q := Query{Set: "Emp1", Project: []string{"name", strings.Join(append(spec.Refs, spec.Field), ".")}}
	want, _, err := db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	flipped := 0
	for _, e := range entries {
		if !strings.Contains(e.Name(), marker) {
			continue
		}
		target := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		data[100] ^= 0x04
		if err := os.WriteFile(target, data, 0o644); err != nil {
			t.Fatal(err)
		}
		flipped++
	}
	if flipped == 0 {
		t.Fatalf("no %s file in %s", marker, dir)
	}
	return q, want.Rows
}

// repairDamaged holds db, reopened over damageDerivedFile's dir, to the
// repair lifecycle: VerifyReplication reports the damage, Repair finds it and
// leaves nothing behind, durably, and after a crash the path answers q as
// before the damage.
func repairDamaged(t *testing.T, db *DB, dir string, q Query, want []Row) {
	t.Helper()
	if errs := db.VerifyReplication(); len(errs) == 0 {
		t.Fatal("VerifyReplication did not see the damaged file")
	}
	rep, err := db.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Found) == 0 || !rep.Clean() {
		t.Fatalf("Repair found %v, left %v", rep.Found, rep.Remaining)
	}
	db.CrashStop()

	db, err = Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	verifyDB(t, db)
	got, _, err := db.Query(nil, q)
	if err != nil {
		t.Fatal(err)
	}
	if err := sameRows(got.Rows, want); err != nil {
		t.Fatalf("after Repair and a crash: %v", err)
	}
}

// TestFlippedBitInDerivedFileRepaired damages a separate path's S′ file:
// reads through the path fail with ErrCorruptPage until Repair re-derives the
// group into a fresh file.
func TestFlippedBitInDerivedFileRepaired(t *testing.T) {
	dir := t.TempDir()
	q, want := damageDerivedFile(t, dir, "Emp1.dept.budget", catalog.Separate, "__sprime_")
	db, err := Open(Config{Dir: dir, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.Query(nil, q); !errors.Is(err, pagefile.ErrCorruptPage) {
		t.Fatalf("query through the damaged S′ file: %v, want ErrCorruptPage", err)
	}
	repairDamaged(t, db, dir, q, want)
}

// TestFlippedBitInLinkFileRepaired damages the link files of a two-level
// path, in-place, separate and collapsed. Repair strips the links without
// reading them and builds them into fresh files.
func TestFlippedBitInLinkFileRepaired(t *testing.T) {
	for _, c := range []struct {
		name     string
		strategy catalog.Strategy
		opts     []catalog.PathOption
	}{
		{"in-place", catalog.InPlace, nil},
		{"separate", catalog.Separate, nil},
		{"collapsed", catalog.InPlace, []catalog.PathOption{catalog.WithCollapsed()}},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			q, want := damageDerivedFile(t, dir, "Emp1.dept.org.name", c.strategy, "__link_", c.opts...)
			db, err := Open(Config{Dir: dir, PoolPages: 64})
			if err != nil {
				t.Fatal(err)
			}
			repairDamaged(t, db, dir, q, want)
		})
	}
}
