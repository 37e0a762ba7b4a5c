package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

func openT(t *testing.T, path string, store pagefile.Store) (*Manager, *RecoveryReport) {
	t.Helper()
	m, rep, err := Open(path, store)
	if err != nil {
		t.Fatal(err)
	}
	return m, rep
}

// fill returns a page image with a recognizable pattern.
func fill(b byte) pagefile.Page {
	var p pagefile.Page
	for i := range p {
		p[i] = b
	}
	return p
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, err := store.CreateFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Allocate(fid); err != nil {
		t.Fatal(err)
	}
	pid := pagefile.PageID{File: fid, Page: 0}

	m, rep := openT(t, path, store)
	if rep.Commits != 0 {
		t.Fatalf("fresh log replayed %d commits", rep.Commits)
	}
	img := fill(0xAB)
	lsn, n, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: img}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n <= 0 {
		t.Fatalf("AppendCommit reported %d bytes", n)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// Crash: the page never reached the store; the manager is simply dropped.
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rep2 := openT(t, path, store)
	defer m2.Close()
	if rep2.Commits != 1 || rep2.PagesApplied != 1 {
		t.Fatalf("replay: commits=%d applied=%d, want 1/1", rep2.Commits, rep2.PagesApplied)
	}
	var got pagefile.Page
	if err := store.ReadPage(pid, &got); err != nil {
		t.Fatal(err)
	}
	// The logged image carries the record's LSN; everything else must match.
	want := img
	pagefile.SetPageLSN(&want, pagefile.PageLSN(&got))
	if got != want {
		t.Fatal("replayed page does not match the logged image")
	}
	if pagefile.PageLSN(&got) == 0 {
		t.Fatal("replayed page carries no LSN")
	}
}

func TestReplaySkipsNewerDiskPage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	store.Allocate(fid)
	pid := pagefile.PageID{File: fid, Page: 0}

	m, _ := openT(t, path, store)
	if _, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(1)}}, nil); err != nil {
		t.Fatal(err)
	}
	m.Close()

	// The disk page carries an LSN ahead of the log record (a later flush of
	// newer, checkpointed state). Replay must not regress it.
	newer := fill(9)
	pagefile.SetPageLSN(&newer, 1<<40)
	if err := store.WritePage(pid, &newer); err != nil {
		t.Fatal(err)
	}
	m2, rep := openT(t, path, store)
	defer m2.Close()
	if rep.PagesApplied != 0 || rep.PagesSkipped != 1 {
		t.Fatalf("applied=%d skipped=%d, want 0/1", rep.PagesApplied, rep.PagesSkipped)
	}
	var got pagefile.Page
	store.ReadPage(pid, &got)
	if got != newer {
		t.Fatal("replay overwrote a newer disk page")
	}
}

func TestReplayRecreatesFileAndPages(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")

	m, _ := openT(t, path, store)
	img := fill(0x5C)
	// Pages 0..2 of a file created inside the transaction; the store never
	// saw the create (crash before any write-back).
	files := []FileCreate{{FID: fid + 1, Name: "created-in-txn"}}
	pages := []PageImage{
		{PID: pagefile.PageID{File: fid + 1, Page: 0}, Data: img},
		{PID: pagefile.PageID{File: fid + 1, Page: 2}, Data: img},
	}
	if _, _, err := m.AppendCommit(files, pages, nil); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, rep := openT(t, path, store)
	defer m2.Close()
	if rep.FilesCreated != 1 || rep.PagesApplied != 2 {
		t.Fatalf("filesCreated=%d applied=%d, want 1/2", rep.FilesCreated, rep.PagesApplied)
	}
	n, err := store.NumPages(fid + 1)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("recreated file has %d pages, want 3 (grown to cover page 2)", n)
	}
}

// TestReplayFillsFileIDGaps reproduces a replica's restart recovery over a
// log whose FileCreate references an ID beyond the store's next one: the
// primary consumed the intermediate IDs with unlogged scratch files this
// store never materialized. Replay must burn the gap with placeholders so
// the logged create lands on the logged ID — the same sequence live
// follower apply produces — instead of failing deterministically and
// leaving the directory unopenable.
func TestReplayFillsFileIDGaps(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	if _, err := store.CreateFile("base"); err != nil { // FID 1
		t.Fatal(err)
	}

	m, _ := openT(t, path, store)
	// FIDs 2 and 3 belonged to scratch query outputs on the primary: never
	// logged, never shipped. FID 4 is a real logged create whose pages the
	// crash caught before any store apply.
	files := []FileCreate{{FID: 4, Name: "late"}}
	pages := []PageImage{{PID: pagefile.PageID{File: 4, Page: 0}, Data: fill(0x7D)}}
	lsn, _, err := m.AppendCommit(files, pages, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rep := openT(t, path, store)
	defer m2.Close()
	if rep.FilesCreated != 3 {
		t.Fatalf("replay created %d files, want 3 (2 gap placeholders + 1 logged)", rep.FilesCreated)
	}
	for fid := pagefile.FileID(2); fid <= 3; fid++ {
		name, err := store.FileName(fid)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("__repl_gap_%d", fid); name != want {
			t.Fatalf("FID %d is %q, want %q", fid, name, want)
		}
	}
	if name, err := store.FileName(4); err != nil || name != "late" {
		t.Fatalf("FID 4 is %q (%v), want %q", name, err, "late")
	}
	if rep.PagesApplied != 1 {
		t.Fatalf("replay applied %d pages, want 1", rep.PagesApplied)
	}
}

func TestReplayIgnoresTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	store.Allocate(fid)
	store.Allocate(fid)
	p0 := pagefile.PageID{File: fid, Page: 0}
	p1 := pagefile.PageID{File: fid, Page: 1}

	m, _ := openT(t, path, store)
	if _, _, err := m.AppendCommit(nil, []PageImage{{PID: p0, Data: fill(1)}}, nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendCommit(nil, []PageImage{{PID: p1, Data: fill(2)}}, nil); err != nil {
		t.Fatal(err)
	}
	end := m.Size()
	m.Close()

	// Tear the second transaction: cut the file inside its records, as a
	// crash mid-append would. The records end at the append offset, which a
	// runway may put short of the end of the file.
	if err := os.Truncate(path, end-100); err != nil {
		t.Fatal(err)
	}

	m2, rep := openT(t, path, store)
	if rep.Commits != 1 || rep.PagesApplied != 1 {
		t.Fatalf("commits=%d applied=%d, want 1/1 (second txn torn)", rep.Commits, rep.PagesApplied)
	}
	if !rep.TornTail {
		t.Fatal("torn tail not reported")
	}
	var got pagefile.Page
	store.ReadPage(p1, &got)
	if got == fill(2) {
		t.Fatal("torn (uncommitted) transaction was applied")
	}
	// The torn tail is dead bytes: new appends overwrite it and must be
	// recoverable in turn.
	if _, _, err := m2.AppendCommit(nil, []PageImage{{PID: p1, Data: fill(3)}}, nil); err != nil {
		t.Fatal(err)
	}
	m2.Close()
	m3, rep3 := openT(t, path, store)
	defer m3.Close()
	if rep3.TornTail {
		t.Fatal("tail still torn after overwrite")
	}
	store.ReadPage(p1, &got)
	want := fill(3)
	pagefile.SetPageLSN(&want, pagefile.PageLSN(&got))
	if got != want {
		t.Fatal("append after torn tail did not replay")
	}
}

func TestCatalogRecordRecovered(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()

	m, _ := openT(t, path, store)
	if _, _, err := m.AppendCommit(nil, nil, []byte(`{"v":1}`)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendCommit(nil, nil, []byte(`{"v":2}`)); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, rep := openT(t, path, store)
	defer m2.Close()
	if string(rep.Catalog) != `{"v":2}` {
		t.Fatalf("recovered catalog %q, want the last committed one", rep.Catalog)
	}
}

func TestCheckpointTruncatesAndKeepsLSNsMonotone(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	store.Allocate(fid)
	pid := pagefile.PageID{File: fid, Page: 0}

	m, _ := openT(t, path, store)
	lsn1, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	st, _ := os.Stat(path)
	if st.Size() != headerSize {
		t.Fatalf("log is %d bytes after checkpoint, want bare header (%d)", st.Size(), headerSize)
	}
	lsn2, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(2)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn2 <= lsn1 {
		t.Fatalf("LSN regressed across checkpoint: %d then %d", lsn1, lsn2)
	}
	m.Close()

	// Only the post-checkpoint transaction replays.
	m2, rep := openT(t, path, store)
	defer m2.Close()
	if rep.Commits != 1 {
		t.Fatalf("replayed %d commits, want 1 (checkpoint truncated the first)", rep.Commits)
	}
}

func TestReplayAfterCheckpointedReopen(t *testing.T) {
	// After a checkpoint's rename the log is its header alone: nothing to
	// replay, and the catalog the checkpoint handed it.
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()

	m, _ := openT(t, path, store)
	if _, _, err := m.AppendCommit(nil, nil, []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint([]byte("cat")); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m2, rep := openT(t, path, store)
	defer m2.Close()
	if rep.Commits != 0 || string(rep.Catalog) != "cat" {
		t.Fatalf("clean reopen replayed commits=%d catalog=%q, want 0 and the header's", rep.Commits, rep.Catalog)
	}
}

// TestGenerationSwitchStates opens each state a crash can leave around a
// generation switch, and each damaged header. A temp file beside the log,
// torn or whole, is a switch cut short before its rename: the old log
// replays with its catalog and the temp file goes. A header that is short or
// whose catalog fails its checksum is refused, never taken for a fresh log.
func TestGenerationSwitchStates(t *testing.T) {
	// oldLog leaves a log holding one commit with catalog "old" after a
	// checkpoint whose header carries "base".
	oldLog := func(t *testing.T) string {
		path := filepath.Join(t.TempDir(), "wal.log")
		m, _ := openT(t, path, pagefile.NewMemStore())
		if err := m.Checkpoint([]byte("base")); err != nil {
			t.Fatal(err)
		}
		lsn, _, err := m.AppendCommit(nil, nil, []byte("old"))
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WaitDurable(lsn); err != nil {
			t.Fatal(err)
		}
		m.Close()
		return path
	}
	for _, tc := range []struct {
		name string
		tmp  func(t *testing.T, path string) // writes path's temp file
	}{
		{"torn temp", func(t *testing.T, path string) {
			if err := os.WriteFile(path+".tmp", []byte{0x7E, 0xF1}, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"whole temp never renamed", func(t *testing.T, path string) {
			writeLog(t, path+".tmp", walVersion, 99)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := oldLog(t)
			tc.tmp(t, path)
			m, rep := openT(t, path, pagefile.NewMemStore())
			defer m.Close()
			if rep.Commits != 1 || string(rep.Catalog) != "old" || m.BaseLSN() != 1 {
				t.Fatalf("commits=%d catalog=%q base=%d, want the old log: 1, \"old\", 1", rep.Commits, rep.Catalog, m.BaseLSN())
			}
			if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
				t.Fatalf("temp file after Open: %v", err)
			}
		})
	}
	t.Run("header catalog fails its checksum", func(t *testing.T) {
		path := oldLog(t)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[headerSize] ^= 1 // "base" -> "case"
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := Open(path, pagefile.NewMemStore()); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("Open = %v, want a checksum error", err)
		}
	})
	for _, size := range []int64{0, legacyHeader - 1, headerSize - 1, headerSize + 2} {
		t.Run(fmt.Sprintf("cut to %d bytes", size), func(t *testing.T) {
			path := oldLog(t)
			if err := os.Truncate(path, size); err != nil {
				t.Fatal(err)
			}
			if _, _, err := Open(path, pagefile.NewMemStore()); err == nil || !strings.Contains(err.Error(), path) {
				t.Fatalf("Open = %v, want an error naming %s", err, path)
			}
		})
	}
}

// TestReadTailAcrossGenerations runs a tail reader beside a writer that
// commits and checkpoints in turn. Each generation's pages carry its number;
// the reader must see one generation per read and every LSN exactly once,
// in order, except where a checkpoint took records it had not read yet.
func TestReadTailAcrossGenerations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()
	const gens, perGen = 40, 8
	var last uint64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for g := 1; g <= gens; g++ {
			for c := 0; c < perGen; c++ {
				lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid, Page: uint32(c)}, Data: fill(byte(g))}}, nil)
				if err == nil {
					err = m.WaitDurable(lsn)
				}
				if err != nil {
					t.Error(err)
					return
				}
				atomic.StoreUint64(&last, lsn)
			}
			if err := m.Checkpoint([]byte{byte(g)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	cur := m.CursorAt(0)
	var seen uint64
	for finished := false; !finished; {
		select {
		case <-done:
			finished = true // one more pass reads what is left
		default:
		}
		buf, err := m.ReadTail(&cur, 1<<16)
		if errors.Is(err, ErrTruncated) {
			cur = m.CursorAt(m.BaseLSN() - 1)
			seen = cur.LSN
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		gen := -1
		for len(buf) > 0 {
			rec, n, err := ParseFrame(buf)
			if err != nil {
				t.Fatalf("a read returned a bad frame: %v", err)
			}
			buf = buf[n:]
			if rec.LSN != seen+1 {
				t.Fatalf("read LSN %d after %d", rec.LSN, seen)
			}
			seen = rec.LSN
			if rec.Type != RecPage {
				continue
			}
			if g := int(rec.Payload[8+100]); gen < 0 {
				gen = g
			} else if g != gen {
				t.Fatalf("one read returned pages of generations %d and %d", gen, g)
			}
		}
	}
	if want := atomic.LoadUint64(&last); seen != want {
		t.Fatalf("reader ended at LSN %d, the writer at %d", seen, want)
	}
}

func TestGroupCommitBatchesFsyncs(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	pid := func(i int) pagefile.PageID {
		store.Allocate(fid)
		return pagefile.PageID{File: fid, Page: uint32(i)}
	}

	m, _ := openT(t, path, store)
	defer m.Close()
	base := m.Stats().Fsyncs

	const K = 32
	var wg sync.WaitGroup
	for i := 0; i < K; i++ {
		p := pid(i)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: p, Data: fill(byte(i))}}, nil)
			if err != nil {
				t.Error(err)
				return
			}
			if err := m.WaitDurable(lsn); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()

	st := m.Stats()
	fsyncs := st.Fsyncs - base
	if fsyncs < 1 {
		t.Fatal("no fsync at all")
	}
	if fsyncs >= K {
		t.Fatalf("%d fsyncs for %d concurrent commits: group commit is not batching", fsyncs, K)
	}
	if st.Commits < K {
		t.Fatalf("stats report %d commits, want >= %d", st.Commits, K)
	}
}

// TestGroupCommitLeaderCoversFollowers pins leader/follower batching: N
// commits are appended, then N committers wait for durability at once. The
// leader lock is held until all N are queued, so exactly one of them fsyncs
// and the other N-1 find their LSN covered by that fsync.
func TestGroupCommitLeaderCoversFollowers(t *testing.T) {
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), store)
	defer m.Close()

	const N = 8
	lsns := make([]uint64, N)
	for i := range lsns {
		store.Allocate(fid)
		lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid, Page: uint32(i)}, Data: fill(byte(i))}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lsns[i] = lsn
	}
	base := m.Stats()

	release := m.HoldSync()
	var wg sync.WaitGroup
	for _, lsn := range lsns {
		wg.Add(1)
		go func(lsn uint64) {
			defer wg.Done()
			if err := m.WaitDurable(lsn); err != nil {
				t.Error(err)
			}
		}(lsn)
	}
	for m.Stats().SyncQueue < N {
		time.Sleep(100 * time.Microsecond)
	}
	release()
	wg.Wait()

	st := m.Stats()
	if fsyncs := st.Fsyncs - base.Fsyncs; fsyncs != 1 {
		t.Errorf("%d fsyncs for %d queued committers, want 1", fsyncs, N)
	}
	if shared := st.SharedSyncs - base.SharedSyncs; shared != N-1 {
		t.Errorf("%d shared syncs, want %d", shared, N-1)
	}
	if waits := st.SyncWaits - base.SyncWaits; waits != N {
		t.Errorf("%d sync waits, want %d", waits, N)
	}
}

func TestEnsureDurablePage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	store.Allocate(fid)
	pid := pagefile.PageID{File: fid, Page: 0}

	m, _ := openT(t, path, store)
	defer m.Close()
	// Unlogged pages need no durability wait.
	if err := m.EnsureDurablePage(pagefile.PageID{File: fid, Page: 7}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(1)}}, nil); err != nil {
		t.Fatal(err)
	}
	before := m.Stats().Fsyncs
	if err := m.EnsureDurablePage(pid); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Fsyncs == before {
		t.Fatal("EnsureDurablePage of a logged, unsynced page did not force the log")
	}
	// Second call: already durable, no extra fsync.
	before = m.Stats().Fsyncs
	if err := m.EnsureDurablePage(pid); err != nil {
		t.Fatal(err)
	}
	if m.Stats().Fsyncs != before {
		t.Fatal("EnsureDurablePage fsynced an already-durable page")
	}
}
