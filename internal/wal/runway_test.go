package wal

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// pageStore is a store holding file 1 with two pages, what every log in
// these tests writes and replays into.
func pageStore(t *testing.T) pagefile.Store {
	t.Helper()
	store := pagefile.NewMemStore()
	pid := onePage(t, store)
	if _, err := store.Allocate(pid.File); err != nil {
		t.Fatal(err)
	}
	return store
}

// commitPage appends a one-page transaction and waits for it to be durable.
func commitPage(t *testing.T, m *Manager, page uint32, b byte) uint64 {
	t.Helper()
	lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: 1, Page: page}, Data: fill(b)}}, nil)
	if err == nil {
		err = m.WaitDurable(lsn)
	}
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// runwayLog opens a fresh log and makes one durable commit, which outruns
// the empty runway and so starts a fill; it returns once the fill is
// installed. The log then holds one transaction followed by runwayChunk
// zeros.
func runwayLog(t *testing.T) (*Manager, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, pageStore(t))
	commitPage(t, m, 0, 1)
	m.fillers.Wait()
	if got, want := fileSize(t, path), m.Size()+runwayChunk; got != want {
		t.Fatalf("log of %d bytes after the first fill, want the records' %d + a %d-byte runway", got, m.Size(), runwayChunk)
	}
	return m, path
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}

// setSyncHook installs h for the rest of the test.
func setSyncHook(t *testing.T, h func(fill bool) error) {
	SetSyncHook(h)
	t.Cleanup(func() { SetSyncHook(nil) })
}

// holdFills makes every fill's fsync wait for release; held receives once
// per fill that reached it.
func holdFills(t *testing.T) (held <-chan struct{}, release func()) {
	// held is buffered beyond the one fill a test waits for, so a later
	// fill's report never blocks it.
	ch, gate := make(chan struct{}, 4), make(chan struct{})
	setSyncHook(t, func(fill bool) error {
		if fill {
			ch <- struct{}{}
			<-gate
		}
		return nil
	})
	var released bool
	release = func() {
		if !released {
			released = true
			close(gate)
		}
	}
	t.Cleanup(release)
	return ch, release
}

// fillGoroutines counts the goroutines running a fill.
func fillGoroutines() int {
	buf := make([]byte, 1<<20)
	return strings.Count(string(buf[:runtime.Stack(buf, true)]), "(*Manager).startFill.func")
}

// waiting reports whether a goroutine is blocked in a WaitGroup's Wait
// called from fn.
func waiting(fn string) bool {
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "sync.(*WaitGroup).Wait") && strings.Contains(g, fn) {
			return true
		}
	}
	return false
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

// TestAppendInsideRunwayKeepsFileSize is the mechanism: a commit that lands
// in the runway leaves wal.log's size alone, so its fsync commits no size
// change. Stats.Bytes counts its record bytes and no runway byte.
func TestAppendInsideRunwayKeepsFileSize(t *testing.T) {
	m, path := runwayLog(t)
	st := m.Stats()
	if st.RunwayBytes != runwayChunk || st.RunwayFsyncs != 1 || st.RunwayOutruns != 1 || st.FillWaits != 0 {
		t.Fatalf("after one fill: %+v, want 1 MiB of runway in 1 fsync, 1 outrun, 0 fill waits", st)
	}
	// A writeback error the fill's fsync meets must reach the commit's
	// fsync too, which Linux does only across separate descriptions.
	if m.ff == nil || m.ff.Fd() == m.f.Fd() {
		t.Fatal("the fill wrote through the commit's file description")
	}
	size := fileSize(t, path)
	lsn, n, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: 1, Page: 1}, Data: fill(2)}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != size {
		t.Fatalf("an append inside the runway moved the file from %d to %d bytes", size, got)
	}
	after := m.Stats()
	if after.Bytes != st.Bytes+int64(n) || after.RunwayOutruns != 1 || after.RunwayBytes != runwayChunk {
		t.Fatalf("after an append inside the runway: %+v, want %d more bytes and no outrun or fill", after, n)
	}
	m.Close()

	m2, rep := openT(t, path, pageStore(t))
	defer m2.Close()
	if rep.Commits != 2 || rep.TornTail {
		t.Fatalf("reopen: commits=%d tornTail=%v, want 2/false: the runway is not a torn tail", rep.Commits, rep.TornTail)
	}
}

// TestAppendOutrunsRunway: an append larger than the runway grows the file,
// counts an outrun, and replays.
func TestAppendOutrunsRunway(t *testing.T) {
	m, path := runwayLog(t)
	big := bytes.Repeat([]byte("catalog!"), (runwayChunk+4096)/8)
	lsn, _, err := m.AppendCommit(nil, nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if got := fileSize(t, path); got != m.Size() {
		t.Fatalf("the file is %d bytes after an append past the runway, want its end %d", got, m.Size())
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	m.fillers.Wait()
	if st := m.Stats(); st.RunwayOutruns != 2 || st.RunwayFsyncs != 2 {
		t.Fatalf("%+v, want 2 outruns and a second fill after the durable outrun", st)
	}
	m.Close()

	m2, rep := openT(t, path, pageStore(t))
	defer m2.Close()
	if rep.Commits != 2 || rep.TornTail || !bytes.Equal(rep.Catalog, big) {
		t.Fatalf("reopen: commits=%d tornTail=%v catalog=%d bytes, want 2/false/%d", rep.Commits, rep.TornTail, len(rep.Catalog), len(big))
	}
}

// TestAppendWaitsForFill: an append never writes into a range being zeroed.
// With a fill held in its fsync, the next commit — which starts where the
// fill does — waits for it, and replay finds both commits.
func TestAppendWaitsForFill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, pageStore(t))
	held, release := holdFills(t)
	commitPage(t, m, 0, 1)
	<-held

	done := make(chan error, 1)
	go func() {
		_, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: 1, Page: 1}, Data: fill(2)}}, nil)
		done <- err
	}()
	within(t, "the append to wait for the fill", func() bool {
		select {
		case err := <-done:
			t.Fatalf("an append into the fill's range returned (%v) while the fill was in flight", err)
		default:
		}
		return m.Stats().FillWaits == 1
	})
	release()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(m.LastLSN()); err != nil {
		t.Fatal(err)
	}
	m.Close()

	m2, rep := openT(t, path, pageStore(t))
	defer m2.Close()
	if rep.Commits != 2 || rep.TornTail {
		t.Fatalf("reopen: commits=%d tornTail=%v, want 2/false", rep.Commits, rep.TornTail)
	}
}

// TestGenerationSwitchAbandonsFill: a checkpoint while a fill is in flight
// abandons it. The fill finishes against the replaced file, the log is not
// poisoned, and the new generation holds no runway of the old one's.
func TestGenerationSwitchAbandonsFill(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, pageStore(t))
	defer m.Close()
	held, release := holdFills(t)
	commitPage(t, m, 0, 1)
	<-held
	if err := m.Checkpoint([]byte("cat")); err != nil {
		t.Fatal(err)
	}
	release()
	within(t, "the abandoned fill to end", func() bool { return fillGoroutines() == 0 })
	if got, want := fileSize(t, path), int64(headerSize+len("cat")); got != want {
		t.Fatalf("new generation is %d bytes, want its %d-byte header", got, want)
	}
	SetSyncHook(nil)
	commitPage(t, m, 1, 2)
	m.fillers.Wait()
	if got, want := fileSize(t, path), m.Size()+runwayChunk; got != want {
		t.Fatalf("new generation is %d bytes after its first fill, want %d", got, want)
	}
}

// TestCloseJoinsFiller: Close waits for the fill in flight and leaves no
// goroutine behind.
func TestCloseJoinsFiller(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, pageStore(t))
	held, release := holdFills(t)
	commitPage(t, m, 0, 1)
	<-held
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	within(t, "Close to wait for the fill", func() bool {
		select {
		case err := <-closed:
			t.Fatalf("Close returned (%v) with a fill in flight", err)
		default:
		}
		return waiting("(*Manager).Close")
	})
	release()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.RunwayFsyncs != 1 {
		t.Fatalf("Close returned before the fill's fsync: %+v", st)
	}
	// The joined goroutine may still be unwinding its deferred Done.
	within(t, "no fill goroutine", func() bool { return fillGoroutines() == 0 })
	m2, rep := openT(t, path, pageStore(t))
	defer m2.Close()
	if rep.Commits != 1 || rep.TornTail {
		t.Fatalf("reopen: commits=%d tornTail=%v, want 1/false", rep.Commits, rep.TornTail)
	}
}

// TestSyncFailureIsSticky: a failed fsync, of a commit or of a fill, poisons
// the log. The durable LSN stops where it was, and every later append,
// durability wait and checkpoint fails with the first error, also once the
// device would sync again.
func TestSyncFailureIsSticky(t *testing.T) {
	for _, failFill := range []bool{false, true} {
		name := map[bool]string{false: "commit", true: "fill"}[failFill]
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.log")
			m, _ := openT(t, path, pageStore(t))
			defer m.Close()
			setSyncHook(t, func(fill bool) error {
				if fill == failFill {
					return syscall.EIO
				}
				return nil
			})
			lsn, _, err := m.AppendCommit(nil, []PageImage{{PID: pagefile.PageID{File: 1, Page: 0}, Data: fill(1)}}, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = m.WaitDurable(lsn)
			if failFill {
				// The commit is durable; the fill it starts fails after.
				if err != nil {
					t.Fatal(err)
				}
				m.fillers.Wait()
			} else if !errors.Is(err, syscall.EIO) {
				t.Fatalf("WaitDurable = %v, want EIO", err)
			}
			durable := m.DurableLSN()
			SetSyncHook(nil)
			pid := pagefile.PageID{File: 1, Page: 1}
			if _, _, err := m.AppendCommit(nil, []PageImage{{PID: pid, Data: fill(2)}}, nil); !errors.Is(err, syscall.EIO) {
				t.Fatalf("append after the failure = %v, want the sticky EIO", err)
			}
			if err := m.WaitDurable(durable + 1); !errors.Is(err, syscall.EIO) {
				t.Fatalf("WaitDurable after the failure = %v, want the sticky EIO", err)
			}
			if err := m.Checkpoint(nil); !errors.Is(err, syscall.EIO) {
				t.Fatalf("Checkpoint after the failure = %v, want the sticky EIO", err)
			}
			if m.DurableLSN() != durable {
				t.Fatalf("durable LSN moved from %d to %d after the failure", durable, m.DurableLSN())
			}
		})
	}
}

// TestTornTailIsANonZeroByte: TornTail means a non-zero byte follows the
// last commit record, wherever it lies in the runway.
func TestTornTailIsANonZeroByte(t *testing.T) {
	m, path := runwayLog(t)
	end := m.Size()
	m.Close()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{1}, end+runwayChunk-1); err != nil {
		t.Fatal(err)
	}
	f.Close()
	m2, rep := openT(t, path, pageStore(t))
	defer m2.Close()
	if rep.Commits != 1 || !rep.TornTail {
		t.Fatalf("commits=%d tornTail=%v, want 1/true", rep.Commits, rep.TornTail)
	}
}

// TestFillWriteFailureKeepsLogWritable: a fill whose write fails (a full
// disk, say) clears no writeback error, so it is dropped and counted and
// the log is not poisoned. Later appends grow the file as with no runway.
func TestFillWriteFailureKeepsLogWritable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, pageStore(t))
	// A read-only description makes every fill's write fail.
	ro, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	m.mu.Lock()
	m.ff = ro
	m.mu.Unlock()
	commitPage(t, m, 0, 1)
	m.fillers.Wait()
	if st := m.Stats(); st.FillFailures != 1 || st.RunwayBytes != 0 || st.RunwayFsyncs != 0 || m.Err() != nil {
		t.Fatalf("after a failed fill write: %+v, err %v; want 1 fill failure, no runway, no poison", st, m.Err())
	}
	if got := fileSize(t, path); got != m.Size() {
		t.Fatalf("the failed fill left the file at %d bytes, want the records' end %d", got, m.Size())
	}
	commitPage(t, m, 1, 2)
	m.fillers.Wait()
	if st := m.Stats(); st.RunwayOutruns != 2 || st.FillFailures != 2 {
		t.Fatalf("%+v, want the second commit to outrun the missing runway and its fill to fail too", st)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m2, rep := openT(t, path, pageStore(t))
	defer m2.Close()
	if rep.Commits != 2 || rep.TornTail {
		t.Fatalf("reopen: commits=%d tornTail=%v, want 2/false", rep.Commits, rep.TornTail)
	}
}
