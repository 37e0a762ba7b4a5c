// Package buffer implements a fixed-size buffer pool over a pagefile.Store
// with clock (second-chance) replacement, pin counting, and dirty-page
// write-back.
//
// The pool is the boundary at which the experiments measure I/O: only buffer
// misses reach the store as reads and only evictions/flushes reach it as
// writes, exactly the page transfers a disk-resident DBMS would perform. The
// cost model's "optimal join" assumption — each page needed by a query is
// read once — is realized by giving a query a pool at least as large as its
// working set and calling Reset between queries (cold cache per query).
//
// The pool is lock-striped: frames are partitioned into shards, each with
// its own mutex, page table, and clock hand, and a page is owned by the
// shard its PageID hashes to. Concurrent readers on different shards never
// contend. Counters are updated only while holding the owning shard's mutex,
// so Stats/ResetStats under the all-shard barrier see a coherent snapshot,
// and the paper's "pages per query" accounting under concurrency comes from
// per-operation traces (the *T method variants, internal/obs), not from
// global-counter deltas. New builds a single-shard pool, which behaves
// exactly like the pre-sharding pool (one clock over all frames) — the
// configuration the figure reproductions use.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Errors returned by the pool.
var (
	ErrPoolExhausted = errors.New("buffer: all frames pinned")
	ErrStillPinned   = errors.New("buffer: page still pinned")
	// ErrNotPinned is returned by Unpin when the page is not pinned — a
	// double-unpin bug in the caller. The pool state is unchanged.
	ErrNotPinned = errors.New("buffer: unpin of unpinned page")
)

// Pool is a buffer pool. All methods are safe for concurrent use.
type Pool struct {
	store  pagefile.Store
	shards []shard
	size   int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	flushes   atomic.Int64

	// I/O stall telemetry: wall time spent blocked on the store. readStall
	// times the synchronous read a miss performs;
	// writeStall times dirty write-backs including the WAL write barrier that
	// precedes them — so "slow query" decomposes into cache behavior (miss
	// counts) and device behavior (stall distributions).
	readStall  *obs.Histogram
	writeStall *obs.Histogram

	// barrier, when set, is called with a page's id before any dirty frame
	// is written back to the store (eviction, FlushAll, Reset). The WAL
	// installs its durability barrier here: the log must be fsync'd through
	// the page's last logged record before the data file may change. A
	// barrier error aborts that write-back and leaves the frame dirty.
	barrier func(pagefile.PageID) error

	// Transaction capture. Scoped windows (BeginScope/EndScope) support
	// concurrent writers to disjoint file sets. Before a scope first modifies
	// a page it registers it (Handle.Capture, NewPageCaptureT), saving the
	// frame's image as the rollback image; from then on the scope modifies the
	// frame in place, and concurrent snapshot readers (Read) are served the
	// registered image — the state at transaction begin — until the scope
	// commits, so they never observe a half-modified frame. Pins that only
	// read copy nothing. Ownership of a capture entry is resolved by file id:
	// scopes operate on disjoint file sets, so EndScope/RollbackScope(files)
	// affect exactly their own entries.
	//
	// Registered frames are pinned in spirit: the clock refuses to evict them
	// and FlushAll skips them (no-steal), so rollback can restore every
	// registered page into the still-resident frame — and a scope's dirty
	// working set must fit the pool. capCount is the fast path: when zero (no
	// window open) the clock takes no map lookups.
	//
	// Lock order: a shard mutex is always taken before capMu, never after.
	capCount atomic.Int32
	capMu    sync.Mutex
	capture  map[pagefile.PageID]*capEntry
	// fileEpochs counts committed scope entries per file (bumped in EndScope
	// under capMu). Multi-page snapshot traversals validate against it; see
	// FileEpoch. Lazily allocated; nil reads as epoch 0 everywhere.
	fileEpochs map[pagefile.FileID]uint64
}

// capEntry is one registered page: its image and dirty bit as of transaction
// begin, and whether the scope has marked it dirty since (only those pages
// are the scope's to log and publish; a page registered but left untouched —
// an insert probe that found no room — is dropped silently).
type capEntry struct {
	pre       pagefile.Page
	prevDirty bool
	dirty     bool
}

// capEntries recycles entries (4 KiB each) between scopes: a statement
// registers every page it writes, so allocating them fresh would put a page
// of garbage per written page on the collector.
var capEntries = sync.Pool{New: func() any { return new(capEntry) }}

// register adds pid to the capture map with the given rollback image (nil: a
// zero page). Caller holds the page's shard mutex and capMu.
func (p *Pool) register(pid pagefile.PageID, pre *pagefile.Page, prevDirty, dirty bool) *capEntry {
	e := capEntries.Get().(*capEntry)
	if pre != nil {
		e.pre = *pre
	} else {
		e.pre = pagefile.Page{}
	}
	e.prevDirty, e.dirty = prevDirty, dirty
	p.capture[pid] = e
	return e
}

// unregister drops pid's entry at the end of its scope. Caller holds capMu.
func (p *Pool) unregister(pid pagefile.PageID, e *capEntry) {
	delete(p.capture, pid)
	capEntries.Put(e)
}

// shard is one lock stripe: a slice of frames, the page table mapping
// resident PageIDs to frame indexes, and a clock hand, all under one mutex.
type shard struct {
	mu     sync.Mutex
	frames []frame
	table  map[pagefile.PageID]int
	hand   int
}

type frame struct {
	page  pagefile.Page
	pid   pagefile.PageID
	valid bool
	dirty bool
	pins  int
	ref   bool // clock reference bit
}

// New returns a single-shard pool of nframes frames over store — the exact
// replacement behavior of the historical global pool, used wherever the
// paper's figures are reproduced.
func New(store pagefile.Store, nframes int) *Pool {
	return NewSharded(store, nframes, 1)
}

// NewSharded returns a pool of nframes frames striped over nshards lock
// shards. nframes must be >= 1; nshards is clamped to [1, nframes]. Frames
// are distributed as evenly as possible, so each shard's clock sweeps about
// nframes/nshards frames.
func NewSharded(store pagefile.Store, nframes, nshards int) *Pool {
	if nframes < 1 {
		panic("buffer: pool needs at least one frame")
	}
	if nshards < 1 {
		nshards = 1
	}
	if nshards > nframes {
		nshards = nframes
	}
	p := &Pool{
		store:      store,
		shards:     make([]shard, nshards),
		size:       nframes,
		readStall:  obs.NewHistogram(),
		writeStall: obs.NewHistogram(),
	}
	base, extra := nframes/nshards, nframes%nshards
	for i := range p.shards {
		n := base
		if i < extra {
			n++
		}
		p.shards[i] = shard{
			frames: make([]frame, n),
			table:  make(map[pagefile.PageID]int, n),
		}
	}
	return p
}

// Store returns the underlying page store.
func (p *Pool) Store() pagefile.Store { return p.store }

// Size returns the total number of frames across all shards.
func (p *Pool) Size() int { return p.size }

// Shards returns the number of lock shards.
func (p *Pool) Shards() int { return len(p.shards) }

// shardOf maps a page to its owning shard.
func (p *Pool) shardOf(pid pagefile.PageID) *shard {
	if len(p.shards) == 1 {
		return &p.shards[0]
	}
	h := uint64(pid.File)<<32 | uint64(pid.Page)
	h *= 0x9e3779b97f4a7c15 // Fibonacci hashing: spreads sequential pages
	h ^= h >> 32
	return &p.shards[h%uint64(len(p.shards))]
}

// Handle is a pinned page. The caller must call Unpin exactly once when done,
// and MarkDirty before Unpin if the page was modified.
type Handle struct {
	p   *Pool
	sh  *shard
	idx int
	pid pagefile.PageID
	// cap is the page's entry in the open scope once Capture registered it.
	cap *capEntry
}

// PageID returns the identity of the pinned page.
func (h *Handle) PageID() pagefile.PageID { return h.pid }

// Page returns the page bytes. Valid only while pinned.
func (h *Handle) Page() *pagefile.Page { return &h.sh.frames[h.idx].page }

// Capture registers the pinned page in the caller's open scope; call it
// before modifying the page. The first registration of a page saves the
// frame's image as the scope's rollback image, which is also what concurrent
// snapshot readers see until the scope ends, so the modifications that follow
// go straight to the frame. Registering again is free. The caller must hold
// the engine's per-set lock covering the page's file for the whole scope.
func (h *Handle) Capture() {
	if h.cap != nil {
		return
	}
	p := h.p
	h.sh.mu.Lock()
	f := &h.sh.frames[h.idx]
	p.capMu.Lock()
	e, ok := p.capture[h.pid]
	if !ok {
		e = p.register(h.pid, &f.page, f.dirty, false)
	}
	p.capMu.Unlock()
	h.sh.mu.Unlock()
	h.cap = e
}

// MarkDirty records that the page was modified and must be written back
// before eviction; on a captured page it also enters the page into the
// scope's dirty set.
func (h *Handle) MarkDirty() {
	h.sh.mu.Lock()
	h.sh.frames[h.idx].dirty = true
	if h.cap != nil {
		h.p.capMu.Lock()
		h.cap.dirty = true
		h.p.capMu.Unlock()
	}
	h.sh.mu.Unlock()
}

// Unpin releases the pin. Unpinning a page that is not pinned (a caller bug)
// returns ErrNotPinned and leaves the pool unchanged.
func (h *Handle) Unpin() error {
	h.sh.mu.Lock()
	defer h.sh.mu.Unlock()
	f := &h.sh.frames[h.idx]
	if f.pins <= 0 {
		return fmt.Errorf("%w: %s", ErrNotPinned, h.pid)
	}
	f.pins--
	return nil
}

// Get pins page pid, reading it from the store on a miss.
func (p *Pool) Get(pid pagefile.PageID) (*Handle, error) { return p.GetT(pid, nil) }

// GetT is Get with per-operation attribution: the hit or miss — and, on a
// miss, the store read and any dirty eviction the replacement forced — is
// charged to tr as well as the pool's global counters. A nil tr is the
// untraced Get.
func (p *Pool) GetT(pid pagefile.PageID, tr *obs.Trace) (*Handle, error) {
	sh, idx, err := p.frameOf(pid, tr)
	if err != nil {
		return nil, err
	}
	sh.frames[idx].pins++
	sh.mu.Unlock()
	return &Handle{p: p, sh: sh, idx: idx, pid: pid}, nil
}

// Read runs fn on the committed image of page pid without blocking on
// writers and without copying it: the registered capture pre-image when an
// open scope owns the frame (the reader sees the transaction-begin state),
// otherwise the frame itself. The access is found and charged to tr exactly
// as GetT's is; on a miss the page is read through the pool and left resident
// unpinned.
//
// fn runs under the page's shard mutex — and, for a registered page, capMu —
// which is what makes the image stable: a writer must Capture (taking that
// shard mutex) before it modifies a frame, and a pre-image is unregistered
// only under capMu. So fn must not call the pool, block, or keep the page or
// any slice of it after it returns; Read returns fn's error. Every writer to
// the shard waits while fn runs, so fn should copy what it needs and leave
// decoding and other allocating work until Read returns.
func (p *Pool) Read(pid pagefile.PageID, tr *obs.Trace, fn func(*pagefile.Page) error) error {
	sh, idx, err := p.frameOf(pid, tr)
	if err != nil {
		return err
	}
	defer sh.mu.Unlock()
	if p.capCount.Load() > 0 {
		p.capMu.Lock()
		if e, reg := p.capture[pid]; reg {
			defer p.capMu.Unlock()
			return fn(&e.pre)
		}
		p.capMu.Unlock()
	}
	return fn(&sh.frames[idx].page)
}

// frameOf returns the frame holding pid, unpinned by this call, with its
// shard's mutex held: a resident frame is a hit, otherwise the clock frees a
// frame and the page is read into it from the store — a miss. Either is
// charged to tr, and so are the read and any dirty eviction the miss forced.
// On error no mutex is held.
func (p *Pool) frameOf(pid pagefile.PageID, tr *obs.Trace) (*shard, int, error) {
	sh := p.shardOf(pid)
	sh.mu.Lock()
	idx, hit := sh.table[pid]
	if !hit {
		var err error
		idx, err = sh.victim(p, tr)
		if errors.Is(err, ErrPoolExhausted) {
			// Bounded retry: concurrent pins are transient. Yield once so other
			// goroutines can Unpin (or bring the page in themselves), then sweep
			// the clock one more time before giving up.
			sh.mu.Unlock()
			runtime.Gosched()
			sh.mu.Lock()
			err = nil
			if idx, hit = sh.table[pid]; !hit {
				idx, err = sh.victim(p, tr)
			}
		}
		if err != nil {
			sh.mu.Unlock()
			return nil, 0, fmt.Errorf("buffer: pinning %s: %w", pid, err)
		}
	}
	f := &sh.frames[idx]
	f.ref = true
	if hit {
		p.hits.Add(1)
		tr.Hit(1)
		return sh, idx, nil
	}
	p.misses.Add(1)
	tr.Miss(1)
	readStart := time.Now()
	if err := p.store.ReadPage(pid, &f.page); err != nil {
		f.valid = false
		sh.mu.Unlock()
		return nil, 0, err
	}
	stall := time.Since(readStart)
	p.readStall.Observe(stall)
	tr.ReadStall(stall)
	tr.StoreRead(1)
	f.pid = pid
	f.valid = true
	f.dirty = false
	f.pins = 0
	sh.table[pid] = idx
	return sh, idx, nil
}

// NewPage allocates a fresh page in file fid, pins it, and returns the
// handle along with the new page's id. The page contents are zeroed and the
// frame is marked dirty so it will be written back.
func (p *Pool) NewPage(fid pagefile.FileID) (*Handle, pagefile.PageID, error) {
	return p.NewPageT(fid, nil)
}

// NewPageT is NewPage with per-operation attribution: the allocation (and
// any dirty eviction the new frame forced) is charged to tr.
func (p *Pool) NewPageT(fid pagefile.FileID, tr *obs.Trace) (*Handle, pagefile.PageID, error) {
	pageNo, err := p.store.Allocate(fid)
	if err != nil {
		return nil, pagefile.PageID{}, err
	}
	tr.StoreAlloc(1)
	pid := pagefile.PageID{File: fid, Page: pageNo}
	sh := p.shardOf(pid)
	sh.mu.Lock()
	idx, err := sh.victim(p, tr)
	if errors.Is(err, ErrPoolExhausted) {
		sh.mu.Unlock()
		runtime.Gosched()
		sh.mu.Lock()
		idx, err = sh.victim(p, tr)
	}
	if err != nil {
		sh.mu.Unlock()
		return nil, pagefile.PageID{}, fmt.Errorf("buffer: framing new page %s: %w", pid, err)
	}
	f := &sh.frames[idx]
	f.page = pagefile.Page{}
	f.pid = pid
	f.valid = true
	f.dirty = true
	f.pins = 1
	f.ref = true
	sh.table[pid] = idx
	sh.mu.Unlock()
	return &Handle{p: p, sh: sh, idx: idx, pid: pid}, pid, nil
}

// NewPageCaptureT is NewPageT for a scoped capture: the fresh page is
// registered immediately, dirty, with an all-zero rollback image (what
// Allocate left in the store, so a rolled-back allocation is just an empty
// page). Concurrent snapshot readers of the page see the zero image — a valid
// empty page — until the scope commits.
func (p *Pool) NewPageCaptureT(fid pagefile.FileID, tr *obs.Trace) (*Handle, pagefile.PageID, error) {
	h, pid, err := p.NewPageT(fid, tr)
	if err != nil {
		return nil, pagefile.PageID{}, err
	}
	h.sh.mu.Lock()
	p.capMu.Lock()
	e, ok := p.capture[pid]
	if !ok {
		e = p.register(pid, nil, false, true)
	}
	e.dirty = true
	p.capMu.Unlock()
	h.sh.mu.Unlock()
	h.cap = e
	return h, pid, nil
}

// victim finds a free or evictable frame using the shard's clock, writing
// back the victim if dirty. A dirty eviction is charged to tr: the write was
// performed on behalf of the operation that needed the frame. Caller holds
// sh.mu.
func (sh *shard) victim(p *Pool, tr *obs.Trace) (int, error) {
	n := len(sh.frames)
	// Prefer an invalid (never used) frame, lowest index first. A frame is
	// valid exactly while the page table maps to it, so a full table means
	// there is none and the walk — a touch per frame at a page's stride — is
	// skipped on every miss of a warmed-up pool.
	if len(sh.table) < n {
		for i := range sh.frames {
			if !sh.frames[i].valid {
				return i, nil
			}
		}
	}
	// Clock sweep: up to 2n steps gives every unpinned frame a second chance.
	// Frames registered in an open transaction capture are treated like
	// pinned frames (no-steal): their on-disk page must not change until the
	// transaction's fate is decided, and rollback needs the frame resident.
	for step := 0; step < 2*n; step++ {
		idx := sh.hand
		sh.hand = (sh.hand + 1) % n
		f := &sh.frames[idx]
		if f.pins > 0 || p.capturedDirty(f.pid) {
			continue
		}
		if f.ref {
			f.ref = false
			continue
		}
		if err := sh.evict(p, idx, tr); err != nil {
			return 0, err
		}
		return idx, nil
	}
	// Last resort: any unpinned frame regardless of reference bit.
	for idx := range sh.frames {
		if sh.frames[idx].pins == 0 && !p.capturedDirty(sh.frames[idx].pid) {
			if err := sh.evict(p, idx, tr); err != nil {
				return 0, err
			}
			return idx, nil
		}
	}
	return 0, ErrPoolExhausted
}

// evict writes back frame idx if dirty and unmaps it. Caller holds sh.mu.
func (sh *shard) evict(p *Pool, idx int, tr *obs.Trace) error {
	f := &sh.frames[idx]
	if f.dirty {
		writeStart := time.Now()
		if err := p.writeBarrier(f.pid); err != nil {
			return fmt.Errorf("buffer: evicting %s: %w", f.pid, err)
		}
		if err := p.store.WritePage(f.pid, &f.page); err != nil {
			// The frame stays valid, dirty, and mapped: the page contents are
			// intact in memory and a later eviction or FlushAll can retry the
			// write once the store recovers.
			return fmt.Errorf("buffer: evicting %s: %w", f.pid, err)
		}
		stall := time.Since(writeStart)
		p.writeStall.Observe(stall)
		tr.WriteStall(stall)
		p.flushes.Add(1)
		tr.Flush(1)
		tr.StoreWrite(1)
		f.dirty = false
	}
	delete(sh.table, f.pid)
	f.valid = false
	p.evictions.Add(1)
	return nil
}

// lockAll acquires every shard mutex in index order (a cross-shard barrier)
// and returns the matching unlock.
func (p *Pool) lockAll() (unlock func()) {
	for i := range p.shards {
		p.shards[i].mu.Lock()
	}
	return func() {
		for i := range p.shards {
			p.shards[i].mu.Unlock()
		}
	}
}

// FlushAll writes back every dirty page, leaving them resident. A failed
// write leaves that frame dirty for retry; the remaining frames are still
// attempted and all failures are joined into the returned error.
func (p *Pool) FlushAll() error { return p.FlushAllT(nil) }

// FlushAllT is FlushAll with per-operation attribution: every write-back is
// charged to tr.
func (p *Pool) FlushAllT(tr *obs.Trace) error {
	defer p.lockAll()()
	var errs []error
	for s := range p.shards {
		sh := &p.shards[s]
		for i := range sh.frames {
			f := &sh.frames[i]
			if f.valid && f.dirty && !p.capturedDirty(f.pid) {
				writeStart := time.Now()
				if err := p.writeBarrier(f.pid); err != nil {
					errs = append(errs, fmt.Errorf("buffer: flushing %s: %w", f.pid, err))
					continue
				}
				if err := p.store.WritePage(f.pid, &f.page); err != nil {
					errs = append(errs, fmt.Errorf("buffer: flushing %s: %w", f.pid, err))
					continue
				}
				stall := time.Since(writeStart)
				p.writeStall.Observe(stall)
				tr.WriteStall(stall)
				p.flushes.Add(1)
				tr.Flush(1)
				tr.StoreWrite(1)
				f.dirty = false
			}
		}
	}
	return errors.Join(errs...)
}

// Invalidate drops the resident frame for pid without writing it back: the
// caller has just changed the page on the store directly (the replication
// applier installing a shipped after-image), so the cached copy is stale and
// its dirty bit, if any, must not overwrite the newer on-disk bytes. It fails
// with ErrStillPinned if the page is pinned; absent pages are a no-op.
func (p *Pool) Invalidate(pid pagefile.PageID) error {
	sh := p.shardOf(pid)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	i, ok := sh.table[pid]
	if !ok {
		return nil
	}
	f := &sh.frames[i]
	if f.pins > 0 {
		return fmt.Errorf("%w: %s", ErrStillPinned, pid)
	}
	delete(sh.table, pid)
	f.valid = false
	f.dirty = false
	return nil
}

// Reset flushes all dirty pages and then drops every resident page, leaving
// the pool cold. It fails with ErrStillPinned if any page is pinned or
// registered in an open capture scope. The experiment harness calls Reset
// between queries so each query starts with a cold cache, matching the cost
// model.
func (p *Pool) Reset() error {
	defer p.lockAll()()
	for s := range p.shards {
		sh := &p.shards[s]
		for i := range sh.frames {
			if sh.frames[i].valid && (sh.frames[i].pins > 0 || p.capturedDirty(sh.frames[i].pid)) {
				return fmt.Errorf("%w: %s", ErrStillPinned, sh.frames[i].pid)
			}
		}
	}
	for s := range p.shards {
		sh := &p.shards[s]
		for i := range sh.frames {
			f := &sh.frames[i]
			if !f.valid {
				continue
			}
			if f.dirty {
				writeStart := time.Now()
				if err := p.writeBarrier(f.pid); err != nil {
					return fmt.Errorf("buffer: resetting %s: %w", f.pid, err)
				}
				if err := p.store.WritePage(f.pid, &f.page); err != nil {
					// Leave this frame (and any not yet visited) resident and
					// dirty; the caller can retry Reset after the store recovers.
					return fmt.Errorf("buffer: resetting %s: %w", f.pid, err)
				}
				p.writeStall.Observe(time.Since(writeStart))
				p.flushes.Add(1)
			}
			delete(sh.table, f.pid)
			f.valid = false
			f.dirty = false
		}
		sh.hand = 0
	}
	return nil
}

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Flushes   int64 `json:"flushes"`
}

// Stats returns a coherent snapshot of the pool's counters. Every counter
// update happens while holding the owning shard's mutex, so taking the
// snapshot under the all-shard barrier makes it a linearization point: the
// returned values are exactly the pool's state at one instant, never a mix
// of before/after states of an in-flight Get (the incoherence that made
// hits+misses disagree with the accesses actually completed).
func (p *Pool) Stats() PoolStats {
	defer p.lockAll()()
	return PoolStats{
		Hits:      p.hits.Load(),
		Misses:    p.misses.Load(),
		Evictions: p.evictions.Load(),
		Flushes:   p.flushes.Load(),
	}
}

// StallHists snapshots the pool's I/O stall histograms: time blocked on
// store reads (misses) and on dirty write-backs
// (including the WAL write barrier). ResetStats does not clear them — they
// are lifetime distributions, like the registry's latency histograms.
func (p *Pool) StallHists() (read, write obs.HistSnapshot) {
	return p.readStall.Snapshot(), p.writeStall.Snapshot()
}

// ResetStats zeroes the pool counters (not the store's), under the same
// all-shard barrier as Stats so a reset never lands in the middle of an
// in-flight access's counter updates.
func (p *Pool) ResetStats() {
	defer p.lockAll()()
	p.hits.Store(0)
	p.misses.Store(0)
	p.evictions.Store(0)
	p.flushes.Store(0)
}

// SetWriteBarrier installs b as the pool's write barrier: it is called with
// the page id before every dirty write-back (eviction, FlushAll, Reset), and
// an error from it aborts that write-back, leaving the frame dirty for
// retry. The WAL uses it to enforce log-before-data ordering. Set once at
// startup, before the pool is shared.
func (p *Pool) SetWriteBarrier(b func(pagefile.PageID) error) { p.barrier = b }

func (p *Pool) writeBarrier(pid pagefile.PageID) error {
	if p.barrier == nil {
		return nil
	}
	return p.barrier(pid)
}

// --- transaction capture ---

// BeginScope opens a scoped capture window for one transaction. Scopes from
// concurrent transactions coexist in the shared capture map; the engine
// guarantees their file sets are disjoint (per-set locking), which is what
// makes EndScope/RollbackScope(files) resolve entry ownership correctly.
func (p *Pool) BeginScope() {
	p.capMu.Lock()
	if p.capture == nil {
		p.capture = make(map[pagefile.PageID]*capEntry)
	}
	p.capCount.Add(1)
	p.capMu.Unlock()
}

// capturedDirty reports whether pid is registered in an open capture — such
// frames must neither be evicted nor flushed until the capture closes.
func (p *Pool) capturedDirty(pid pagefile.PageID) bool {
	if p.capCount.Load() == 0 {
		return false
	}
	p.capMu.Lock()
	_, ok := p.capture[pid]
	p.capMu.Unlock()
	return ok
}

// Captured returns the number of pages registered in open scopes — frames
// the clock may not evict. A write session that bounds its own dirty
// working set (a chunked schema build) commits when this nears its share of
// the pool.
func (p *Pool) Captured() int {
	p.capMu.Lock()
	defer p.capMu.Unlock()
	return len(p.capture)
}

// ScopePage is one page of a scope's dirty set, by reference: Pre is the
// image registered when the scope first touched the page (all zeroes for a
// page it allocated), Post the frame as the scope left it. Both stay valid,
// and are the scope owner's alone to read and stamp, until the scope ends.
type ScopePage struct {
	PID  pagefile.PageID
	Pre  *pagefile.Page
	Post *pagefile.Page
}

// ScopeDirty returns every page of files the scope marked dirty — its dirty
// working set — sorted by (file, page) so commit records are deterministic.
// Nothing is copied: commit diffs and logs the two images where they lie.
func (p *Pool) ScopeDirty(files map[pagefile.FileID]bool) ([]ScopePage, error) {
	p.capMu.Lock()
	pages := make([]ScopePage, 0, len(p.capture))
	for pid, e := range p.capture {
		if e.dirty && files[pid.File] {
			pages = append(pages, ScopePage{PID: pid, Pre: &e.pre})
		}
	}
	p.capMu.Unlock()
	sort.Slice(pages, func(i, j int) bool { return pages[i].PID.Less(pages[j].PID) })
	for i := range pages {
		pid := pages[i].PID
		sh := p.shardOf(pid)
		sh.mu.Lock()
		idx, ok := sh.table[pid]
		sh.mu.Unlock()
		if !ok {
			// Should be impossible: registration makes the frame unevictable.
			return nil, fmt.Errorf("buffer: scope page %s not resident", pid)
		}
		pages[i].Post = &sh.frames[idx].page
	}
	return pages, nil
}

// EndScope closes one scoped window, keeping every modification to pages of
// files: the transaction committed. Dropping the entries is the visibility
// point — snapshot readers switch from the pre-images to the frames' new
// committed state, atomically per page — so each touched file's commit epoch
// is bumped here (and only here; rollback restores the images readers were
// already seeing).
func (p *Pool) EndScope(files map[pagefile.FileID]bool) {
	p.capMu.Lock()
	for pid, e := range p.capture {
		if !files[pid.File] {
			continue
		}
		if e.dirty {
			if p.fileEpochs == nil {
				p.fileEpochs = make(map[pagefile.FileID]uint64)
			}
			p.fileEpochs[pid.File]++
		}
		p.unregister(pid, e)
	}
	if p.capCount.Add(-1) == 0 {
		p.capture = nil
	}
	p.capMu.Unlock()
}

// FileEpoch returns fid's commit epoch: the number of page entries committed
// into the file by scoped windows. Snapshot readers whose consistency spans
// multiple page reads (a B-tree descent) read the epoch before and after the
// traversal; an unchanged epoch proves no commit republished the file's pages
// mid-walk.
func (p *Pool) FileEpoch(fid pagefile.FileID) uint64 {
	p.capMu.Lock()
	defer p.capMu.Unlock()
	return p.fileEpochs[fid]
}

// RollbackScope closes one scoped window by restoring every registered page
// of files to its transaction-begin image and dirty bit. Restoration and
// entry removal are atomic per page (shard mutex + capMu), so a concurrent
// snapshot reader sees either the pre-image via the entry or the restored
// frame — never the aborted modifications.
func (p *Pool) RollbackScope(files map[pagefile.FileID]bool) error {
	p.capMu.Lock()
	pids := make([]pagefile.PageID, 0, len(p.capture))
	for pid := range p.capture {
		if files[pid.File] {
			pids = append(pids, pid)
		}
	}
	p.capMu.Unlock()

	var errs []error
	for _, pid := range pids {
		sh := p.shardOf(pid)
		sh.mu.Lock()
		p.capMu.Lock()
		e, ok := p.capture[pid]
		if !ok {
			p.capMu.Unlock()
			sh.mu.Unlock()
			continue
		}
		idx, res := sh.table[pid]
		if !res || !sh.frames[idx].valid {
			// Should be impossible: registration makes the frame unevictable.
			p.unregister(pid, e)
			p.capMu.Unlock()
			sh.mu.Unlock()
			errs = append(errs, fmt.Errorf("buffer: rollback: %s not resident", pid))
			continue
		}
		f := &sh.frames[idx]
		f.page = e.pre
		f.dirty = e.prevDirty
		p.unregister(pid, e)
		p.capMu.Unlock()
		sh.mu.Unlock()
	}

	p.capMu.Lock()
	if p.capCount.Add(-1) == 0 {
		p.capture = nil
	}
	p.capMu.Unlock()
	return errors.Join(errs...)
}
