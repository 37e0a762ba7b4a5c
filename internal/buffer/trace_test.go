package buffer

import (
	"sync"
	"testing"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// TestGetTChargesTrace pins the pool-level charging rules: an allocation
// charges StoreAlloc, a miss charges Miss + StoreRead, and a hit charges Hit
// with no store traffic.
func TestGetTChargesTrace(t *testing.T) {
	p, fid := newPool(t, 4)
	reg := obs.NewRegistry(4096)

	setup := reg.Start(obs.KindDML, "setup", "")
	h1, pid1, err := p.NewPageT(fid, setup)
	if err != nil {
		t.Fatal(err)
	}
	h1.MarkDirty()
	h1.Unpin()
	rec := reg.Finish(setup)
	if rec.StoreAllocs != 1 {
		t.Fatalf("setup StoreAllocs = %d, want 1", rec.StoreAllocs)
	}

	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}

	// Cold read: one miss, one store read.
	tr := reg.Start(obs.KindQuery, "q", "")
	h, err := p.GetT(pid1, tr)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	c := tr.Counters()
	if c.Misses != 1 || c.StoreReads != 1 || c.Hits != 0 {
		t.Fatalf("cold read counters = %+v, want Misses=1 StoreReads=1 Hits=0", c)
	}
	// Warm read: one hit, no store traffic.
	h, err = p.GetT(pid1, tr)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	c = tr.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.StoreReads != 1 {
		t.Fatalf("warm read counters = %+v, want Hits=1 Misses=1 StoreReads=1", c)
	}
	reg.Finish(tr)

	// An untraced Get after a traced one must not disturb anything (nil
	// trace), and the global counters still see both.
	h, err = p.Get(pid1)
	if err != nil {
		t.Fatal(err)
	}
	h.Unpin()
	st := p.Stats()
	if st.Hits != 2 || st.Misses != 1 {
		t.Fatalf("global counters = %+v, want Hits=2 Misses=1", st)
	}
}

// TestGetSnapshotTChargesLikeGetT pins the snapshot read to GetT's charging
// rules — a miss charges Miss + StoreRead, a hit charges Hit — and checks a
// snapshot miss leaves its frame resident but unpinned: a one-frame pool can
// still evict it.
func TestGetSnapshotTChargesLikeGetT(t *testing.T) {
	p, fid := newPool(t, 1)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.Page()[0] = 0x5A
	h.MarkDirty()
	h.Unpin()
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	p.ResetStats()
	p.Store().Stats().Reset()

	tr := obs.NewRegistry(4096).Start(obs.KindQuery, "q", "")
	read := func(want obs.Counters) {
		t.Helper()
		h, err := p.GetSnapshotT(pid, tr)
		if err != nil {
			t.Fatal(err)
		}
		if h.Page()[0] != 0x5A {
			t.Fatalf("snapshot byte = %#x, want 0x5A", h.Page()[0])
		}
		h.Unpin()
		if c := tr.Counters(); c.Hits != want.Hits || c.Misses != want.Misses || c.StoreReads != want.StoreReads {
			t.Fatalf("counters = %+v, want Hits=%d Misses=%d StoreReads=%d", c, want.Hits, want.Misses, want.StoreReads)
		}
	}
	read(obs.Counters{Misses: 1, StoreReads: 1})
	read(obs.Counters{Hits: 1, Misses: 1, StoreReads: 1})

	// The only frame holds pid unpinned, so a new page evicts it and the next
	// snapshot read misses again.
	h2, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatalf("NewPage after snapshot reads: %v (snapshot left its frame pinned)", err)
	}
	h2.Unpin()
	read(obs.Counters{Hits: 1, Misses: 2, StoreReads: 2})

	st := p.Stats()
	if st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("global counters = %+v, want Hits=1 Misses=2", st)
	}
	if reads := p.Store().Stats().Reads(); reads != st.Misses {
		t.Fatalf("store reads %d != pool misses %d", reads, st.Misses)
	}
}

// TestTraceEvictionWriteBack forces a dirty eviction and checks the evicting
// trace is charged the flush and the store write (performed-by attribution).
func TestTraceEvictionWriteBack(t *testing.T) {
	p, fid := newPool(t, 1)
	h, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Unpin()

	tr := obs.NewRegistry(4096).Start(obs.KindQuery, "q", "")
	h2, _, err := p.NewPageT(fid, tr)
	if err != nil {
		t.Fatal(err)
	}
	h2.Unpin()
	c := tr.Counters()
	if c.Flushes != 1 || c.StoreWrites != 1 {
		t.Fatalf("evicting trace counters = %+v, want Flushes=1 StoreWrites=1", c)
	}
	if c.StoreAllocs != 1 {
		t.Fatalf("StoreAllocs = %d, want 1", c.StoreAllocs)
	}
}

// TestFlushAllTChargesTrace checks an explicit flush charges its write-backs
// to the flushing trace.
func TestFlushAllTChargesTrace(t *testing.T) {
	p, fid := newPool(t, 8)
	for i := 0; i < 3; i++ {
		h, _, err := p.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		h.MarkDirty()
		h.Unpin()
	}
	tr := obs.NewRegistry(4096).Start(obs.KindFlush, "", "")
	if err := p.FlushAllT(tr); err != nil {
		t.Fatal(err)
	}
	c := tr.Counters()
	if c.Flushes != 3 || c.StoreWrites != 3 {
		t.Fatalf("flush trace counters = %+v, want Flushes=3 StoreWrites=3", c)
	}
}

// TestStatsCoherentUnderConcurrency samples Stats while concurrent readers
// hammer a sharded pool. Counters are only updated under shard mutexes, so
// every snapshot is a linearization point: hits+misses never decreases
// between samples and the final snapshot accounts for exactly the accesses
// performed — the coherence the old atomic-outside-the-lock snapshot lacked.
func TestStatsCoherentUnderConcurrency(t *testing.T) {
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	fid, err := store.CreateFile("test")
	if err != nil {
		t.Fatal(err)
	}
	p := NewSharded(store, 64, 4)

	const npages = 32
	var pageIDs []pagefile.PageID
	for i := 0; i < npages; i++ {
		h, pid, err := p.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
		pageIDs = append(pageIDs, pid)
	}
	p.ResetStats()

	const workers, per = 8, 500
	var wg sync.WaitGroup
	stop := make(chan struct{})
	var samplerWG sync.WaitGroup
	samplerWG.Add(1)
	go func() {
		defer samplerWG.Done()
		var last int64
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := p.Stats()
			total := st.Hits + st.Misses
			if total < last {
				t.Errorf("accesses went backwards: %d -> %d", last, total)
				return
			}
			last = total
		}
	}()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h, err := p.Get(pageIDs[(w*per+i)%npages])
				if err != nil {
					t.Error(err)
					return
				}
				h.Unpin()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	samplerWG.Wait()

	st := p.Stats()
	if got := st.Hits + st.Misses; got != workers*per {
		t.Fatalf("final hits+misses = %d, want %d", got, workers*per)
	}
}
