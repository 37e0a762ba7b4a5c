package buffer

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

func newShardedPool(t *testing.T, frames, shards int) (*Pool, pagefile.FileID) {
	t.Helper()
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	fid, err := store.CreateFile("test")
	if err != nil {
		t.Fatal(err)
	}
	return NewSharded(store, frames, shards), fid
}

func TestNewShardedClamping(t *testing.T) {
	store := pagefile.NewMemStore()
	defer store.Close()
	for _, tc := range []struct{ frames, shards, wantShards int }{
		{8, 0, 1},
		{8, -3, 1},
		{8, 3, 3},
		{4, 9, 4}, // shards clamped to frame count
		{1, 1, 1},
	} {
		p := NewSharded(store, tc.frames, tc.shards)
		if p.Shards() != tc.wantShards {
			t.Errorf("NewSharded(%d frames, %d shards): got %d shards, want %d",
				tc.frames, tc.shards, p.Shards(), tc.wantShards)
		}
		if p.Size() != tc.frames {
			t.Errorf("NewSharded(%d frames): Size() = %d", tc.frames, p.Size())
		}
		// Frames must be distributed exactly across shards.
		total := 0
		for i := range p.shards {
			total += len(p.shards[i].frames)
		}
		if total != tc.frames {
			t.Errorf("shard frames sum to %d, want %d", total, tc.frames)
		}
	}
}

// TestShardedConcurrentGets hammers a sharded pool with overlapping page
// sets from many goroutines, under eviction pressure (more pages than
// frames), then verifies content integrity and counter consistency.
func TestShardedConcurrentGets(t *testing.T) {
	for _, shards := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			p, fid := newShardedPool(t, 16, shards)
			var pids []pagefile.PageID
			for i := 0; i < 64; i++ {
				h, pid, err := p.NewPage(fid)
				if err != nil {
					t.Fatal(err)
				}
				h.Page()[0] = byte(pid.Page)
				h.MarkDirty()
				h.Unpin()
				pids = append(pids, pid)
			}
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			p.ResetStats()
			p.Store().Stats().Reset()

			const goroutines, iters = 8, 400
			var wg sync.WaitGroup
			var fail atomic.Value
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						pid := pids[(g*131+i*17)%len(pids)]
						h, err := p.Get(pid)
						for errors.Is(err, ErrPoolExhausted) {
							// Two frames per shard at 8 shards: the other
							// seven goroutines can hold both. Transient; a
							// refused Get counts as neither hit nor miss.
							runtime.Gosched()
							h, err = p.Get(pid)
						}
						if err != nil {
							fail.Store(err)
							return
						}
						if h.Page()[0] != byte(pid.Page) {
							fail.Store(fmt.Errorf("page %v content corrupted", pid))
							h.Unpin()
							return
						}
						h.Unpin()
					}
				}(g)
			}
			wg.Wait()
			if err := fail.Load(); err != nil {
				t.Fatal(err)
			}

			st := p.Stats()
			if st.Hits+st.Misses != goroutines*iters {
				t.Errorf("hits %d + misses %d != %d gets", st.Hits, st.Misses, goroutines*iters)
			}
			// Every store read was charged as a pool miss.
			if reads := p.Store().Stats().Reads(); reads != st.Misses {
				t.Errorf("store reads %d != pool misses %d", reads, st.Misses)
			}
			// No pins may remain.
			for s := range p.shards {
				sh := &p.shards[s]
				sh.mu.Lock()
				for i := range sh.frames {
					if sh.frames[i].pins != 0 {
						t.Errorf("shard %d frame %d: %d pins leaked", s, i, sh.frames[i].pins)
					}
				}
				sh.mu.Unlock()
			}
		})
	}
}

// TestExhaustedRetryRecovers verifies the bounded retry: a Get that finds
// every frame pinned succeeds if another goroutine unpins in the interim,
// and the terminal error names the page and file and still matches
// ErrPoolExhausted.
func TestExhaustedRetryRecovers(t *testing.T) {
	p, fid := newShardedPool(t, 2, 1)
	h1, _, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h2, pid2, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	_ = pid2
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}

	// Terminal failure: both frames pinned, nobody will unpin.
	_, _, err = p.NewPage(fid)
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}

	// Get's wrapped error must name the page being pinned.
	h1.Unpin()
	h2.Unpin()
	var pids []pagefile.PageID
	for i := 0; i < 3; i++ {
		h, pid, err := p.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
		pids = append(pids, pid)
	}
	ha, err := p.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	hb, err := p.Get(pids[1])
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Get(pids[2])
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("Get with all frames pinned: err = %v, want ErrPoolExhausted", err)
	}
	if want := pids[2].String(); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name page %s", err, want)
	}
	ha.Unpin()
	hb.Unpin()

	// Retry success: a concurrent unpin lets the blocked Get through.
	hc, err := p.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	hd, err := p.Get(pids[1])
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		h, err := p.Get(pids[2])
		if err == nil {
			h.Unpin()
		}
		done <- err
	}()
	// The racing Get either succeeds (unpin won the race) or reports
	// exhaustion; both are legal — what matters is that an unpin-then-retry
	// eventually succeeds.
	hc.Unpin()
	hd.Unpin()
	if err := <-done; err != nil {
		h, err2 := p.Get(pids[2])
		if err2 != nil {
			t.Fatalf("Get after unpin: %v (racing Get: %v)", err2, err)
		}
		h.Unpin()
	}
}

// TestSnapshotExhausted checks the snapshot read shares Get's exhaustion
// handling: with every frame pinned, a snapshot read of an absent page fails
// with ErrPoolExhausted naming the page and charges no miss, while one of a
// resident page is still served as a hit.
func TestSnapshotExhausted(t *testing.T) {
	p, fid := newShardedPool(t, 2, 1)
	var pids []pagefile.PageID
	for i := 0; i < 3; i++ {
		h, pid, err := p.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		h.Page()[0] = byte(0x10 + i)
		h.MarkDirty()
		h.Unpin()
		pids = append(pids, pid)
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	ha, err := p.Get(pids[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ha.Unpin()
	hb, err := p.Get(pids[1])
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Unpin()
	p.ResetStats()

	err = p.Read(pids[2], nil, func(*pagefile.Page) error {
		t.Fatal("callback ran on a page that could not be framed")
		return nil
	})
	if !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("snapshot read with all frames pinned: err = %v, want ErrPoolExhausted", err)
	}
	if want := pids[2].String(); !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name page %s", err, want)
	}
	if st := p.Stats(); st.Misses != 0 || st.Hits != 0 {
		t.Fatalf("failed snapshot read charged %+v, want nothing", st)
	}

	var got byte
	if err := p.Read(pids[0], nil, func(pg *pagefile.Page) error { got = pg[0]; return nil }); err != nil {
		t.Fatalf("snapshot read of a pinned resident page: %v", err)
	}
	if got != 0x10 {
		t.Fatalf("snapshot byte = %#x, want 0x10", got)
	}
	if st := p.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Fatalf("resident snapshot read charged %+v, want Hits=1 Misses=0", st)
	}
}

// TestStatsRace reads counters while other goroutines mutate the pool; the
// race detector verifies Stats/ResetStats are safe (they were a data race on
// the old plain-int implementation).
func TestStatsRace(t *testing.T) {
	p, fid := newShardedPool(t, 8, 4)
	var pids []pagefile.PageID
	for i := 0; i < 32; i++ {
		h, pid, err := p.NewPage(fid)
		if err != nil {
			t.Fatal(err)
		}
		h.Unpin()
		pids = append(pids, pid)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				h, err := p.Get(pids[(g*7+i)%len(pids)])
				if err == nil {
					h.Unpin()
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		_ = p.Stats()
		if i%50 == 49 {
			p.ResetStats()
		}
	}
	close(stop)
	wg.Wait()
	st := p.Stats()
	if st.Hits < 0 || st.Misses < 0 {
		t.Fatalf("negative counters: %+v", st)
	}
}

// TestShardedSingleShardMatchesHistorical verifies New() (one shard) and a
// multi-shard pool read the same data and that single-shard eviction order
// still follows one global clock (eviction count matches the historical
// pool's for a sequential overflow workload).
func TestShardedSingleShardMatchesHistorical(t *testing.T) {
	p1, fid1 := newShardedPool(t, 4, 1)
	var misses1 int64
	runSeq := func(p *Pool, fid pagefile.FileID) int64 {
		for i := 0; i < 12; i++ {
			h, _, err := p.NewPage(fid)
			if err != nil {
				t.Fatal(err)
			}
			h.Unpin()
		}
		if err := p.FlushAll(); err != nil {
			t.Fatal(err)
		}
		if err := p.Reset(); err != nil {
			t.Fatal(err)
		}
		p.ResetStats()
		for pass := 0; pass < 2; pass++ {
			for i := 0; i < 12; i++ {
				h, err := p.Get(pagefile.PageID{File: fid, Page: uint32(i)})
				if err != nil {
					t.Fatal(err)
				}
				h.Unpin()
			}
		}
		return p.Stats().Misses
	}
	misses1 = runSeq(p1, fid1)
	// 4-frame pool, 12-page file, two sequential passes: every access
	// misses under clock replacement — the historical pool's behavior.
	if misses1 != 24 {
		t.Errorf("single-shard sequential misses = %d, want 24", misses1)
	}
}

// TestReadSeesOneCommittedImage runs four Read loops beside a writer that
// rewrites a 512-byte stretch of one page in place, scope after scope: a
// committed scope writes the next generation number into every word of the
// stretch, a rolled-back one writes a marked value that no reader may see. A
// callback must see the stretch whole — every word the same, unmarked — and
// each reader's generations must never go backwards. Run under -race it also
// checks that the writer's in-place bytes and the readers are ordered.
func TestReadSeesOneCommittedImage(t *testing.T) {
	const (
		off, words = 1024, 128 // a 512-byte stretch of 4-byte words
		rollback   = 1 << 31   // marks a value written by a scope that rolls back
	)
	iters := 1000
	if testing.Short() {
		iters = 300
	}
	p, fid := newShardedPool(t, 4, 1)
	h, pid, err := p.NewPage(fid)
	if err != nil {
		t.Fatal(err)
	}
	h.MarkDirty()
	h.Unpin()
	files := map[pagefile.FileID]bool{fid: true}

	var stop atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last uint32
			for !stop.Load() {
				var gen uint32
				err := p.Read(pid, nil, func(pg *pagefile.Page) error {
					gen = binary.LittleEndian.Uint32(pg[off:])
					for i := 1; i < words; i++ {
						if w := binary.LittleEndian.Uint32(pg[off+4*i:]); w != gen {
							return fmt.Errorf("torn image: word 0 = %#x, word %d = %#x", gen, i, w)
						}
					}
					if gen&rollback != 0 {
						return fmt.Errorf("saw %#x, written by a scope that rolled back", gen)
					}
					return nil
				})
				if err == nil && gen < last {
					err = fmt.Errorf("generation went back from %d to %d", last, gen)
				}
				if err != nil {
					t.Error(err)
					return
				}
				last = gen
			}
		}()
	}

	var gen uint32
	for i := 0; i < iters; i++ {
		commit := i%3 != 2
		v := gen + 1
		if !commit {
			v |= rollback
		}
		p.BeginScope()
		h, err := p.Get(pid)
		if err != nil {
			t.Fatal(err)
		}
		h.Capture()
		pg := h.Page()
		for w := 0; w < words; w++ {
			binary.LittleEndian.PutUint32(pg[off+4*w:], v)
			if w == words/2 {
				runtime.Gosched() // let readers in while the stretch is half written
			}
		}
		h.MarkDirty()
		h.Unpin()
		if commit {
			p.EndScope(files)
			gen++
		} else if err := p.RollbackScope(files); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
}
