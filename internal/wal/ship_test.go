package wal

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// parseAll decodes every frame in buf, failing the test on damage.
func parseAll(t *testing.T, buf []byte) []Record {
	t.Helper()
	var recs []Record
	for len(buf) > 0 {
		rec, n, err := ParseFrame(buf)
		if err != nil {
			t.Fatalf("parse frame: %v", err)
		}
		recs = append(recs, rec)
		buf = buf[n:]
	}
	return recs
}

func TestReadTailStreamsDurablePrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()

	var lastLSN uint64
	for c := 0; c < 3; c++ {
		lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid, Page: uint32(c)}, Data: fill(byte(c + 1))}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		lastLSN = lsn
	}
	if err := m.WaitDurable(lastLSN); err != nil {
		t.Fatal(err)
	}

	c := m.CursorAt(0)
	buf, err := m.ReadTail(&c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs := parseAll(t, buf)
	commits, prev := 0, uint64(0)
	for _, r := range recs {
		if r.LSN <= prev {
			t.Fatalf("LSNs not increasing: %d after %d", r.LSN, prev)
		}
		prev = r.LSN
		if r.Type == RecCommit {
			commits++
		}
	}
	if commits != 3 || prev != lastLSN {
		t.Fatalf("shipped %d commits ending at %d, want 3 ending at %d", commits, prev, lastLSN)
	}
	if c.LSN != lastLSN {
		t.Fatalf("cursor at %d, want %d", c.LSN, lastLSN)
	}
	// Caught up: the next read is empty, not an error.
	buf, err = m.ReadTail(&c, 1<<20)
	if err != nil || len(buf) != 0 {
		t.Fatalf("caught-up read: %d bytes, err=%v", len(buf), err)
	}
}

// ReadTail must never ship bytes that are not yet fsync'd: a follower could
// otherwise hold records the primary loses in a crash.
func TestReadTailExcludesUnsyncedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()

	pid := pagefile.PageID{File: fid, Page: 0}
	d1, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(d1); err != nil {
		t.Fatal(err)
	}
	// Appended but never forced: below the shipping boundary.
	d2, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(2)}}, nil)
	if err != nil {
		t.Fatal(err)
	}

	c := m.CursorAt(0)
	buf, err := m.ReadTail(&c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range parseAll(t, buf) {
		if r.LSN > d1 {
			t.Fatalf("shipped unsynced LSN %d (durable is %d)", r.LSN, d1)
		}
	}
	if err := m.WaitDurable(d2); err != nil {
		t.Fatal(err)
	}
	buf, err = m.ReadTail(&c, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs := parseAll(t, buf)
	if len(recs) == 0 || recs[len(recs)-1].LSN != d2 {
		t.Fatalf("after sync the tail should ship through %d, got %d records", d2, len(recs))
	}
}

func TestReadTailTruncationForcesResync(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()

	lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}

	// A consumer that never saw the truncated records cannot catch up.
	stale := m.CursorAt(0)
	if _, err := m.ReadTail(&stale, 1<<20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("stale cursor: err=%v, want ErrTruncated", err)
	}
	// A caught-up consumer survives the truncation (epoch revalidation) and
	// keeps streaming records appended after it.
	cur := m.CursorAt(lsn)
	if buf, err := m.ReadTail(&cur, 1<<20); err != nil || len(buf) != 0 {
		t.Fatalf("caught-up cursor across truncation: %d bytes, err=%v", len(buf), err)
	}
	lsn2, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(2)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn2); err != nil {
		t.Fatal(err)
	}
	buf, err := m.ReadTail(&cur, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs := parseAll(t, buf)
	if len(recs) == 0 || recs[len(recs)-1].LSN != lsn2 {
		t.Fatalf("post-truncation stream should reach %d", lsn2)
	}
}

func TestRetainDefersCheckpointUntilUnregistered(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()

	lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// A consumer still needs LSN 1: truncation must be deferred.
	m.SetRetain(func() (uint64, bool) { return 1, true }, 0)
	size := m.Size()
	if err := m.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.CheckpointsDeferred != 1 || st.Checkpoints != 0 {
		t.Fatalf("deferred=%d truncated=%d, want 1/0", st.CheckpointsDeferred, st.Checkpoints)
	}
	if m.BaseLSN() != 1 || m.Size() != size {
		t.Fatalf("deferred checkpoint moved the log: base=%d size=%d", m.BaseLSN(), m.Size())
	}
	c := m.CursorAt(0)
	if buf, err := m.ReadTail(&c, 1<<20); err != nil || len(buf) == 0 {
		t.Fatalf("retained records must stay shippable: %d bytes, err=%v", len(buf), err)
	}

	// Consumer gone: the next checkpoint truncates.
	m.SetRetain(nil, 0)
	if err := m.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if m.Size() >= size || m.BaseLSN() != lsn+1 {
		t.Fatalf("checkpoint did not truncate: base=%d size=%d", m.BaseLSN(), m.Size())
	}
}

func TestRetainBoundForcesTruncation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()

	lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(1)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	// The lagging consumer's allowance is 1 byte: the log is over it, so the
	// checkpoint truncates anyway and the consumer must resync.
	m.SetRetain(func() (uint64, bool) { return 1, true }, 1)
	if err := m.Checkpoint(nil); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.Checkpoints != 1 {
		t.Fatalf("bounded retain should truncate, checkpoints=%d", st.Checkpoints)
	}
	c := m.CursorAt(0)
	if _, err := m.ReadTail(&c, 1<<20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err=%v, want ErrTruncated", err)
	}
}

// A follower persists shipped frames verbatim with AppendRaw; reopening its
// log must replay them into its store exactly as the primary logged them.
func TestAppendRawRoundTripsThroughReplay(t *testing.T) {
	dir := t.TempDir()
	primary := pagefile.NewMemStore()
	fid, _ := primary.CreateFile("data")
	pm, _ := openT(t, filepath.Join(dir, "primary.log"), primary)
	defer pm.Close()

	var last uint64
	for c := 0; c < 2; c++ {
		files := []FileCreate(nil)
		if c == 0 {
			files = []FileCreate{{FID: fid, Name: "data"}}
		}
		lsn, _, err := pm.AppendCommit(files, []PageImage{{PID: pagefile.PageID{File: fid, Page: uint32(c)}, Data: fill(byte(0xA0 + c))}}, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
	}
	if err := pm.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	cur := pm.CursorAt(0)
	frames, err := pm.ReadTail(&cur, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	recs := parseAll(t, frames)
	txns, err := NewAssembler(true).Feed(frames)
	if err != nil || len(txns) != 2 {
		t.Fatalf("%d transactions, %v", len(txns), err)
	}

	fstore := pagefile.NewMemStore()
	fpath := filepath.Join(dir, "follower.log")
	fm, _ := openT(t, fpath, fstore)
	for i := range txns {
		if err := fm.AppendRaw(&txns[i]); err != nil {
			t.Fatal(err)
		}
	}
	if st, pst := fm.Stats(), pm.Stats(); st.Records != int64(len(recs)) || st.Commits != 2 ||
		st.FullImages != pst.FullImages || st.DeltaRecords != pst.DeltaRecords {
		t.Fatalf("follower counted %+v for the primary's %+v (%d records)", st, pst, len(recs))
	}
	// A re-sent transaction at or below the appended frontier is a duplicate
	// (the primary resumes from the follower's applied LSN, which can trail
	// the log): it must be dropped without growing the log.
	sizeBefore := fm.Size()
	for i := range txns {
		if err := fm.AppendRaw(&txns[i]); err != nil {
			t.Fatalf("duplicate AppendRaw of transaction %d: %v", i, err)
		}
	}
	if fm.Size() != sizeBefore {
		t.Fatalf("duplicate AppendRaw grew the log: %d -> %d", sizeBefore, fm.Size())
	}
	if err := fm.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	if fm.LastLSN() != last {
		t.Fatalf("follower log at %d, want %d", fm.LastLSN(), last)
	}
	if err := fm.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash-restart the follower: replay must rebuild its store byte-for-byte
	// (modulo the page LSN stamp, which both sides derive from the record).
	fm2, rep := openT(t, fpath, fstore)
	defer fm2.Close()
	if rep.Commits != 2 {
		t.Fatalf("replayed %d commits, want 2", rep.Commits)
	}
	for p := uint32(0); p < 2; p++ {
		pid := pagefile.PageID{File: fid, Page: p}
		want := fill(byte(0xA0 + p))
		var got pagefile.Page
		if err := fstore.ReadPage(pid, &got); err != nil {
			t.Fatal(err)
		}
		pagefile.SetPageLSN(&want, pagefile.PageLSN(&got))
		if got != want {
			t.Fatalf("page %v differs after replay", pid)
		}
	}
}

func TestResetToRestartsSequence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)

	if _, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(1)}}, nil); err != nil {
		t.Fatal(err)
	}
	if err := m.ResetTo(50, nil); err != nil {
		t.Fatal(err)
	}
	if m.BaseLSN() != 50 || m.LastLSN() != 49 || m.DurableLSN() != 49 {
		t.Fatalf("after ResetTo(50): base=%d last=%d durable=%d", m.BaseLSN(), m.LastLSN(), m.DurableLSN())
	}
	c := m.CursorAt(0)
	if _, err := m.ReadTail(&c, 1<<20); !errors.Is(err, ErrTruncated) {
		t.Fatalf("pre-reset cursor: err=%v, want ErrTruncated", err)
	}
	lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(2)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The page record takes LSN 50, the commit record 51.
	if lsn != 51 {
		t.Fatalf("first post-reset commit LSN is %d, want 51", lsn)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	m2, _ := openT(t, path, store)
	defer m2.Close()
	if m2.BaseLSN() != 50 || m2.LastLSN() != 51 {
		t.Fatalf("reopen after reset: base=%d last=%d, want 50/51", m2.BaseLSN(), m2.LastLSN())
	}
}

func TestWaitDurableAbove(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, _ := store.CreateFile("data")
	m, _ := openT(t, path, store)
	defer m.Close()

	// Timeout path: nothing becomes durable, the call returns promptly with
	// the unchanged boundary.
	start := time.Now()
	if d := m.WaitDurableAbove(0, 50*time.Millisecond); d != 0 {
		t.Fatalf("idle wait returned %d", d)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("timeout wait hung")
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: fid}, Data: fill(1)}}, nil)
		if err == nil {
			err = m.WaitDurable(lsn)
		}
		if err != nil {
			t.Error(err)
		}
	}()
	if d := m.WaitDurableAbove(0, 10*time.Second); d == 0 {
		t.Fatal("wait did not observe the new durable LSN")
	}
	<-done
}

// buildReplayLog writes a multi-commit log (file creation, page images, page
// growth, then deltas revisiting those pages — some once, some twice) and
// returns its path plus the page IDs it covers.
func buildReplayLog(t *testing.T) (string, []pagefile.PageID) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	fid, err := store.CreateFile("data")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := openT(t, path, store)
	s := newScopeLog(t, m)
	var pids []pagefile.PageID
	var last uint64
	for c := 0; c < 3; c++ {
		var imgs []PageImage
		for p := 0; p < 2; p++ {
			pid := pagefile.PageID{File: fid, Page: uint32(c*2 + p)}
			pids = append(pids, pid)
			imgs = append(imgs, PageImage{PID: pid, Data: fill(byte(c*16 + p + 1))})
		}
		var files []FileCreate
		if c == 0 {
			files = []FileCreate{{FID: fid, Name: "data"}}
		}
		lsn, _, err := m.AppendCommit(files, imgs, nil)
		if err != nil {
			t.Fatal(err)
		}
		last = lsn
		for i := range imgs {
			s.cur[imgs[i].PID] = &imgs[i].Data
		}
	}
	if err := m.WaitDurable(last); err != nil {
		t.Fatal(err)
	}
	s.commit(poke(7), pids...)
	s.commit(poke(8), pids[1], pids[4])
	if full, delta := kinds(m); full != 6 || delta != 8 {
		t.Fatalf("replay log holds %d full + %d delta records, want 6 + 8", full, delta)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return path, pids
}

// fileStore opens a fresh file-backed store. The fault sweeps run over
// FileStore, not MemStore: it checksums pages on the way in and verifies on
// the way out, which is what lets replay detect a torn page (ErrCorruptPage)
// instead of trusting the LSN stamp inside the damaged half.
func fileStore(t *testing.T) *pagefile.FileStore {
	t.Helper()
	st, err := pagefile.NewFileStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// replayBaseline replays the log into a fresh store and returns the final
// page images — the oracle every faulted recovery must converge to.
func replayBaseline(t *testing.T, path string, pids []pagefile.PageID) []pagefile.Page {
	t.Helper()
	store := fileStore(t)
	defer store.Close()
	m, _ := openT(t, path, store)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	out := make([]pagefile.Page, len(pids))
	for i, pid := range pids {
		if err := store.ReadPage(pid, &out[i]); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// verifyConverged re-replays fault-free over the half-recovered store and
// checks every page matches the fault-free baseline.
func verifyConverged(t *testing.T, path string, fs *pagefile.FaultStore, pids []pagefile.PageID, want []pagefile.Page, label string) {
	t.Helper()
	fs.ClearFaults()
	m, _, err := Open(path, fs)
	if err != nil {
		t.Fatalf("%s: fault-free re-replay failed: %v", label, err)
	}
	defer m.Close()
	for i, pid := range pids {
		var got pagefile.Page
		if err := fs.ReadPage(pid, &got); err != nil {
			t.Fatalf("%s: page %v unreadable after recovery: %v", label, pid, err)
		}
		if got != want[i] {
			t.Fatalf("%s: page %v diverged after faulted recovery", label, pid)
		}
	}
}

// replayOps counts the store operations one fault-free replay performs, so
// the sweeps know the index range to drive faults through.
func replayOps(t *testing.T, path string) int64 {
	t.Helper()
	fs := pagefile.NewFaultStore(fileStore(t))
	defer fs.Close()
	m, _, err := Open(path, fs)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if fs.Ops() == 0 {
		t.Fatal("replay performed no store operations; the sweep would test nothing")
	}
	return fs.Ops()
}

// TestReplayFaultSweep drives recovery into an injected store failure at
// every I/O the replay performs. Each trial must fail loudly with the
// injected error wrapped (never a silent half-replay), and a subsequent
// fault-free open must converge the store to the fault-free baseline.
func TestReplayFaultSweep(t *testing.T) {
	path, pids := buildReplayLog(t)
	want := replayBaseline(t, path, pids)

	for n := int64(0); n < replayOps(t, path); n++ {
		fs := pagefile.NewFaultStore(fileStore(t))
		fs.AddFault(pagefile.Fault{Index: n})
		_, _, err := Open(path, fs)
		if err == nil {
			t.Fatalf("op %d: fault injected but Open reported success", n)
		}
		if !errors.Is(err, pagefile.ErrInjected) {
			t.Fatalf("op %d: injected fault surfaced without wrapping: %v", n, err)
		}
		verifyConverged(t, path, fs, pids, want, "clean fault")
		fs.Close()
	}
}

// TestReplayTornWriteSweep is the sweep with torn writes: the failing write
// persists half the new image (no checksum), the exact page a kernel crash
// mid-write leaves behind. Recovery must still converge.
func TestReplayTornWriteSweep(t *testing.T) {
	path, pids := buildReplayLog(t)
	want := replayBaseline(t, path, pids)

	trials := 0
	for n := int64(0); n < replayOps(t, path); n++ {
		fs := pagefile.NewFaultStore(fileStore(t))
		fs.AddFault(pagefile.Fault{Index: n, Op: pagefile.OpWrite, Torn: true})
		m, _, err := Open(path, fs)
		if fs.Injected() == 0 {
			// Operation n was not a write; nothing fired this round.
			if err != nil {
				t.Fatalf("op %d: no injection but Open failed: %v", n, err)
			}
			m.Close()
			fs.Close()
			continue
		}
		trials++
		if err == nil || !errors.Is(err, pagefile.ErrInjected) {
			t.Fatalf("write op %d: err=%v, want wrapped ErrInjected", n, err)
		}
		verifyConverged(t, path, fs, pids, want, "torn write")
		fs.Close()
	}
	if trials == 0 {
		t.Fatal("no write operations swept")
	}
}
