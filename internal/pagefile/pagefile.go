// Package pagefile provides the lowest layer of the storage system: fixed-size
// pages, page-addressed files, and a Store that reads and writes pages while
// counting every I/O. Two Store implementations are provided: an in-memory
// store (the default for experiments, where page I/O counts are the quantity
// of interest) and an OS-file-backed store.
//
// The page geometry mirrors the EXODUS storage manager constants used by the
// paper's cost model (Figure 10): 4096-byte pages with 4056 bytes available
// for user data, and 20 bytes of per-object overhead (slot + object header).
package pagefile

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

const (
	// PageSize is the size of every page in bytes.
	PageSize = 4096
	// PageHeaderSize is the number of bytes reserved at the front of every
	// slotted page, leaving UserBytes for records and slots.
	PageHeaderSize = 40
	// UserBytes is the number of bytes in a page available for user data,
	// the cost model's B parameter.
	UserBytes = PageSize - PageHeaderSize
)

// Page is a raw disk page.
type Page [PageSize]byte

// FileID identifies a page file within a Store.
type FileID uint32

// PageID addresses one page: a file and a page number within it.
type PageID struct {
	File FileID
	Page uint32
}

func (p PageID) String() string { return fmt.Sprintf("%d:%d", p.File, p.Page) }

// Less orders pages by (file, page) — physical order.
func (p PageID) Less(q PageID) bool {
	if p.File != q.File {
		return p.File < q.File
	}
	return p.Page < q.Page
}

// Errors returned by Store implementations.
var (
	ErrNoSuchFile = errors.New("pagefile: no such file")
	ErrNoSuchPage = errors.New("pagefile: page out of range")
	ErrClosed     = errors.New("pagefile: store is closed")
	// ErrCorruptPage marks a page whose on-disk image failed validation: a
	// checksum mismatch on read, or a slotted-page structure whose header or
	// slot directory is inconsistent. It is permanent (retrying the read
	// returns the same bytes), unlike transient I/O errors.
	ErrCorruptPage = errors.New("pagefile: corrupt page")
)

// Stats accumulates I/O counters. All methods are safe for concurrent use.
//
// The counters are independent atomics updated on store fast paths (MemStore
// counts reads under a shared read lock), so a strictly coherent multi-counter
// snapshot would require serializing every store read. Instead Snapshot
// documents and tests a bounded tolerance: each counter is individually exact
// and monotone, and a snapshot taken during traffic is bracketed by the true
// counter vectors at the call's start and return — it can only lag an
// in-flight operation by that operation's own not-yet-counted I/O, never
// regress or invent I/O. Quiescent snapshots (the delta pattern around a
// serial workload, or per-query obs traces under concurrency) are exact.
type Stats struct {
	reads  atomic.Int64
	writes atomic.Int64
	allocs atomic.Int64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Reads  int64 `json:"reads"`
	Writes int64 `json:"writes"`
	Allocs int64 `json:"allocs"`
}

// Total returns reads + writes.
func (s StatsSnapshot) Total() int64 { return s.Reads + s.Writes }

// Snapshot returns a copy of all counters, loaded in a fixed order
// (reads, writes, allocs). See the Stats doc for the coherence tolerance.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Reads:  s.reads.Load(),
		Writes: s.writes.Load(),
		Allocs: s.allocs.Load(),
	}
}

// Reads returns the number of page reads since the last Reset.
func (s *Stats) Reads() int64 { return s.reads.Load() }

// Writes returns the number of page writes since the last Reset.
func (s *Stats) Writes() int64 { return s.writes.Load() }

// Allocs returns the number of pages allocated since the last Reset.
func (s *Stats) Allocs() int64 { return s.allocs.Load() }

// Total returns reads + writes from one Snapshot, so the two loads are taken
// as close together as the atomics allow and in a deterministic order;
// successive Totals observed by one goroutine are monotone non-decreasing
// (each counter is monotone between Resets).
func (s *Stats) Total() int64 { return s.Snapshot().Total() }

// Reset zeroes all counters. Resetting while operations are in flight makes
// concurrent deltas meaningless (they can even go negative); the engine
// guards its reset behind the writer lock, and per-query measurement under
// concurrency uses obs traces instead of reset deltas.
func (s *Stats) Reset() {
	s.reads.Store(0)
	s.writes.Store(0)
	s.allocs.Store(0)
}

func (s *Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d", s.Reads(), s.Writes(), s.Allocs())
}

// Store is a collection of page files. Implementations count page-level I/O
// in Stats; the buffer pool sits above a Store so that only buffer misses and
// flushes reach it, making Stats the direct analogue of the cost model's I/O
// counts.
type Store interface {
	// CreateFile creates a new, empty page file and returns its id.
	CreateFile(name string) (FileID, error)
	// Allocate appends a zeroed page to the file and returns its page number.
	Allocate(f FileID) (uint32, error)
	// ReadPage reads page pid into buf.
	ReadPage(pid PageID, buf *Page) error
	// ReadPages reads the len(bufs) consecutive pages of file f starting at
	// page start into bufs, counting one read per page (so batched and
	// page-at-a-time scans charge identical I/O). FileStore and MemStore
	// copy the run under one lock acquisition; FaultStore loops over
	// ReadPage so that fault indexes do not shift.
	ReadPages(f FileID, start uint32, bufs []Page) error
	// WritePage writes buf to page pid.
	WritePage(pid PageID, buf *Page) error
	// NumPages reports the number of pages currently in the file.
	NumPages(f FileID) (uint32, error)
	// FileName returns the name the file was created with.
	FileName(f FileID) (string, error)
	// Sync durably flushes file f. For stores without stable media it is a
	// no-op; for FileStore it is an fsync barrier: every previously written
	// page of f is on disk when it returns.
	Sync(f FileID) error
	// SyncAll durably flushes every file in the store.
	SyncAll() error
	// Stats returns the store's I/O counters.
	Stats() *Stats
	// Close releases all resources. Closing an already closed store is a
	// no-op returning nil.
	Close() error
}

// MemStore is an in-memory Store. It is the default substrate for
// experiments: page contents live in RAM and Stats counts the page transfers
// that a disk-resident system would perform.
//
// File IDs start at 1: FileID 0 is reserved so that the zero OID is
// unambiguously the null reference.
type MemStore struct {
	mu     sync.RWMutex
	files  [][]*Page // files[i] backs FileID(i+1)
	names  []string
	stats  Stats
	closed bool
}

// NewMemStore returns an empty in-memory store.
func NewMemStore() *MemStore { return &MemStore{} }

// CreateFile implements Store.
func (m *MemStore) CreateFile(name string) (FileID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	m.files = append(m.files, nil)
	m.names = append(m.names, name)
	return FileID(len(m.files)), nil
}

// Allocate implements Store.
func (m *MemStore) Allocate(f FileID) (uint32, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrClosed
	}
	if f == 0 || int(f) > len(m.files) {
		return 0, ErrNoSuchFile
	}
	m.files[f-1] = append(m.files[f-1], new(Page))
	m.stats.allocs.Add(1)
	return uint32(len(m.files[f-1]) - 1), nil
}

// ReadPage implements Store.
func (m *MemStore) ReadPage(pid PageID, buf *Page) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if pid.File == 0 || int(pid.File) > len(m.files) {
		return ErrNoSuchFile
	}
	pages := m.files[pid.File-1]
	if int(pid.Page) >= len(pages) {
		return fmt.Errorf("%w: %s", ErrNoSuchPage, pid)
	}
	*buf = *pages[pid.Page]
	m.stats.reads.Add(1)
	return nil
}

// ReadPages implements Store (per-page copy loop; memory needs no batching).
func (m *MemStore) ReadPages(f FileID, start uint32, bufs []Page) error {
	if len(bufs) == 0 {
		return nil
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if f == 0 || int(f) > len(m.files) {
		return ErrNoSuchFile
	}
	pages := m.files[f-1]
	if int(start)+len(bufs) > len(pages) {
		return fmt.Errorf("%w: %v..%v", ErrNoSuchPage, PageID{File: f, Page: start}, PageID{File: f, Page: start + uint32(len(bufs)) - 1})
	}
	for i := range bufs {
		bufs[i] = *pages[int(start)+i]
		m.stats.reads.Add(1)
	}
	return nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(pid PageID, buf *Page) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if pid.File == 0 || int(pid.File) > len(m.files) {
		return ErrNoSuchFile
	}
	pages := m.files[pid.File-1]
	if int(pid.Page) >= len(pages) {
		return fmt.Errorf("%w: %s", ErrNoSuchPage, pid)
	}
	*pages[pid.Page] = *buf
	m.stats.writes.Add(1)
	return nil
}

// NumPages implements Store.
func (m *MemStore) NumPages(f FileID) (uint32, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return 0, ErrClosed
	}
	if f == 0 || int(f) > len(m.files) {
		return 0, ErrNoSuchFile
	}
	return uint32(len(m.files[f-1])), nil
}

// FileName implements Store.
func (m *MemStore) FileName(f FileID) (string, error) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return "", ErrClosed
	}
	if f == 0 || int(f) > len(m.names) {
		return "", ErrNoSuchFile
	}
	return m.names[f-1], nil
}

// Sync implements Store. Memory is the stable medium, so it only validates
// the arguments.
func (m *MemStore) Sync(f FileID) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if f == 0 || int(f) > len(m.files) {
		return ErrNoSuchFile
	}
	return nil
}

// SyncAll implements Store (no-op for memory).
func (m *MemStore) SyncAll() error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	return nil
}

// Stats implements Store.
func (m *MemStore) Stats() *Stats { return &m.stats }

// Close implements Store. Closing twice is a no-op.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	m.files = nil
	return nil
}
