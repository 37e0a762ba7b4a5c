package buffer

import (
	"errors"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

func newPool(t *testing.T, frames int) (*Pool, pagefile.FileID) {
	t.Helper()
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	fid, err := store.CreateFile("test")
	if err != nil {
		t.Fatal(err)
	}
	return New(store, frames), fid
}

func TestPoolNewPageAndGet(t *testing.T) {
	p, fid := newPool(t, 4)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	h.Page()[0] = 0xEE
	h.MarkDirty()
	h.Unpin()

	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll: %v", err)
	}
	var raw pagefile.Page
	if err := p.Store().ReadPage(pid, &raw); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if raw[0] != 0xEE {
		t.Fatal("dirty page not flushed")
	}

	h2, err := p.Get(pid)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if h2.Page()[0] != 0xEE {
		t.Fatal("Get returned stale contents")
	}
	h2.Unpin()
}

func TestPoolHitMissAccounting(t *testing.T) {
	p, fid := newPool(t, 4)
	_, pid, _ := mustNew(t, p, fid)
	p.Reset()
	p.ResetStats()
	p.Store().Stats().Reset()

	for i := 0; i < 3; i++ {
		h, err := p.Get(pid)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		h.Unpin()
	}
	st := p.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss 2 hits", st)
	}
	if r := p.Store().Stats().Reads(); r != 1 {
		t.Fatalf("store reads = %d, want 1 (misses only)", r)
	}
}

func mustNew(t *testing.T, p *Pool, fid pagefile.FileID) (*Handle, pagefile.PageID, error) {
	t.Helper()
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatalf("NewPage: %v", err)
	}
	h.Unpin()
	return h, pid, err
}

func TestPoolEvictionWritesBack(t *testing.T) {
	p, fid := newPool(t, 2)
	var pids []pagefile.PageID
	// Create 5 pages through a 2-frame pool, dirtying each.
	for i := 0; i < 5; i++ {
		h, pid, err := p.NewPage(fid)
		if err != nil {
			t.Fatalf("NewPage %d: %v", i, err)
		}
		h.Page()[0] = byte(i + 1)
		h.MarkDirty()
		h.Unpin()
		pids = append(pids, pid)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	// Every page's contents must have survived evictions.
	for i, pid := range pids {
		var raw pagefile.Page
		if err := p.Store().ReadPage(pid, &raw); err != nil {
			t.Fatalf("ReadPage %v: %v", pid, err)
		}
		if raw[0] != byte(i+1) {
			t.Fatalf("page %d content = %d, want %d", i, raw[0], i+1)
		}
	}
	if st := p.Stats(); st.Evictions < 3 {
		t.Fatalf("evictions = %d, want >= 3", st.Evictions)
	}
}

func TestPoolExhaustion(t *testing.T) {
	p, fid := newPool(t, 2)
	h1, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.NewPage(fid); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("third pin with 2 frames: err = %v, want ErrPoolExhausted", err)
	}
	h1.Unpin()
	h3, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatalf("NewPage after unpin: %v", err)
	}
	h3.Unpin()
	h2.Unpin()
}

func TestPoolResetColdCache(t *testing.T) {
	p, fid := newPool(t, 4)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.Page()[7] = 0x42
	h.MarkDirty()

	if err := p.Reset(); !errors.Is(err, ErrStillPinned) {
		t.Fatalf("Reset with pinned page: err = %v, want ErrStillPinned", err)
	}
	h.Unpin()
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset: %v", err)
	}
	p.ResetStats()
	h2, err := p.Get(pid)
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Unpin()
	if h2.Page()[7] != 0x42 {
		t.Fatal("Reset lost dirty data")
	}
	if st := p.Stats(); st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("after Reset, stats = %+v, want a cold miss", st)
	}
}

func TestPoolRepin(t *testing.T) {
	p, fid := newPool(t, 2)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h2, err := p.Get(pid)
	if err != nil {
		t.Fatalf("second pin: %v", err)
	}
	if h2.Page() != h.Page() {
		t.Fatal("two pins of same page returned different frames")
	}
	h.Unpin()
	h2.Unpin()
}

func TestPoolWorkingSetSinglePass(t *testing.T) {
	// With a pool at least as large as the working set, re-touching pages in
	// any order performs exactly one store read per distinct page — the
	// "optimal join" assumption of the cost model.
	p, fid := newPool(t, 16)
	var pids []pagefile.PageID
	for i := 0; i < 10; i++ {
		_, pid, _ := mustNew(t, p, fid)
		pids = append(pids, pid)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	p.Store().Stats().Reset()
	order := []int{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9}
	for _, i := range order {
		h, err := p.Get(pids[i])
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
	}
	distinct := map[int]bool{}
	for _, i := range order {
		distinct[i] = true
	}
	if got := p.Store().Stats().Reads(); got != int64(len(distinct)) {
		t.Fatalf("store reads = %d, want %d (one per distinct page)", got, len(distinct))
	}
}

func TestUnpinOverReleaseReturnsError(t *testing.T) {
	p, fid := newPool(t, 2)
	h, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Unpin(); err != nil {
		t.Fatalf("first Unpin: %v", err)
	}
	if err := h.Unpin(); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("double Unpin: err = %v, want ErrNotPinned", err)
	}
	// The pool is still usable after the caller bug.
	h2, err := p.Get(h.PageID())
	if err != nil {
		t.Fatalf("Get after double unpin: %v", err)
	}
	h2.Unpin()
}

// TestPoolConcurrentAccess hammers the pool from several goroutines; run
// with -race to verify the locking discipline.
func TestPoolConcurrentAccess(t *testing.T) {
	p, fid := newPool(t, 16)
	var pids []pagefile.PageID
	for i := 0; i < 64; i++ {
		h, pid, err := p.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		h.Page()[0] = byte(i)
		h.MarkDirty()
		h.Unpin()
		pids = append(pids, pid)
	}
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(g int) {
			for i := 0; i < 500; i++ {
				pid := pids[(g*131+i*17)%len(pids)]
				h, err := p.Get(pid)
				if err != nil {
					done <- err
					return
				}
				if h.Page()[0] != byte(pid.Page) {
					done <- errors.New("page content corrupted")
					h.Unpin()
					return
				}
				h.Unpin()
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestEvictionFailureLeavesFrameRetryable drives eviction into a failing
// store and verifies the dirty page is neither lost nor dropped: once the
// store recovers, the same frame flushes cleanly and the data survives.
func TestEvictionFailureLeavesFrameRetryable(t *testing.T) {
	store := pagefile.NewFaultStore(pagefile.NewMemStore())
	t.Cleanup(func() { store.Close() })
	fid, err := store.CreateFile("test")
	if err != nil {
		t.Fatal(err)
	}
	p := New(store, 1)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.Page()[100] = 0xAB
	h.MarkDirty()
	h.Unpin()

	// Every write now fails; getting another page must fail to evict and
	// must NOT drop the dirty frame. NewPage allocates first (one counted
	// op), then evicts — the eviction write is at Ops()+1.
	store.AddFault(pagefile.Fault{Index: store.Ops() + 1, Op: pagefile.OpWrite, Crash: true})
	if _, _, err := p.NewPage(fid); !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("NewPage during store failure: err = %v, want ErrInjected", err)
	}
	if err := p.FlushAll(); !errors.Is(err, pagefile.ErrInjected) {
		t.Fatalf("FlushAll during store failure: err = %v, want ErrInjected", err)
	}

	// Store recovers: the dirty page must still be resident and flushable.
	store.ClearFaults()
	if err := p.FlushAll(); err != nil {
		t.Fatalf("FlushAll after recovery: %v", err)
	}
	if err := p.Reset(); err != nil {
		t.Fatalf("Reset after recovery: %v", err)
	}
	h2, err := p.Get(pid)
	if err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	defer h2.Unpin()
	if h2.Page()[100] != 0xAB {
		t.Fatalf("page byte = %#x, want 0xAB (dirty data lost during failed eviction)", h2.Page()[100])
	}
}

// TestMissReadFailureFreesFrame fails the store read behind a snapshot miss
// in a one-frame pool and checks the frame is not left holding a half-read
// page: the next read of the same page misses again, finds the frame free,
// and returns the stored contents.
func TestMissReadFailureFreesFrame(t *testing.T) {
	store := pagefile.NewFaultStore(pagefile.NewMemStore())
	t.Cleanup(func() { store.Close() })
	fid, err := store.CreateFile("test")
	if err != nil {
		t.Fatal(err)
	}
	p := New(store, 1)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.Page()[0] = 0x77
	h.MarkDirty()
	h.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()

	store.AddFault(pagefile.Fault{Index: store.Ops(), Op: pagefile.OpRead})
	called := false
	err = p.Read(pid, nil, func(*pagefile.Page) error { called = true; return nil })
	if !errors.Is(err, pagefile.ErrInjected) || called {
		t.Fatalf("snapshot read during a read fault: err = %v, callback ran %v; want ErrInjected and no callback", err, called)
	}
	h2, err := p.Get(pid)
	if err != nil {
		t.Fatalf("Get after the fault: %v", err)
	}
	defer h2.Unpin()
	if h2.Page()[0] != 0x77 {
		t.Fatalf("page byte = %#x, want 0x77", h2.Page()[0])
	}
	if st := p.Stats(); st.Hits != 0 || st.Misses != 2 {
		t.Fatalf("counters = %+v, want Hits=0 Misses=2 (the failed read is a miss that left nothing resident)", st)
	}
}
