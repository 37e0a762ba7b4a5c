// Package heap implements heap files: unordered collections of
// variable-length records addressed by stable physical OIDs, stored on
// slotted pages accessed through a buffer pool.
//
// Records keep their OID for life. When an update grows a record beyond its
// page's capacity the body moves to another page and a forwarding stub is
// left at the home slot, as in the EXODUS storage manager. Forwarding chains
// never exceed one hop: if a moved body must move again, the home stub is
// repointed. This matters for in-place field replication, which widens
// objects after they were first stored.
package heap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Record kinds. The first byte of every slot's contents identifies it.
const (
	kindHome  = 0 // record body living at its home (OID) slot
	kindStub  = 1 // forwarding stub; payload is the OID of the moved body
	kindMoved = 2 // moved record body; reached only through its stub
)

const (
	homeHeaderSize  = 3                    // kind byte + u16 payload length
	stubSize        = 1 + pagefile.OIDSize // kind byte + target OID
	movedHeaderSize = 3                    // kind byte + u16 payload length
	movedTrailer    = pagefile.OIDSize     // home OID, for integrity checks
	minRecordSize   = stubSize             // every live record is >= this, so a stub always fits in place
)

// MaxPayload is the largest record payload a heap file accepts.
const MaxPayload = pagefile.MaxRecordSize - movedHeaderSize - movedTrailer

// ErrNotFound is returned when an OID does not address a live record.
var ErrNotFound = errors.New("heap: record not found")

// slotReadErr classifies a failed slot read: page corruption surfaces as
// pagefile.ErrCorruptPage (permanent, distinguishable), anything else as a
// missing record.
func slotReadErr(oid pagefile.OID, err error) error {
	if errors.Is(err, pagefile.ErrCorruptPage) {
		return fmt.Errorf("heap: reading %v: %w", oid, err)
	}
	return fmt.Errorf("%w: %v (%v)", ErrNotFound, oid, err)
}

// pinMode selects how a view pins pages in the buffer pool.
type pinMode int

const (
	// modePlain pins frames directly (GetT/NewPageT) — correct when no write
	// session can overlap: readers of a database without a log, statistics
	// walks under the engine's exclusive lock, and query scratch files.
	modePlain pinMode = iota
	// modeCapture is a write session's view: the session holds the per-set
	// locks for this file and an open pool scope. Pages are registered in the
	// scope before they are modified (getW), so the scope can roll them back
	// and concurrent snapshot readers never see uncommitted bytes; reads pin
	// the frame directly and see the session's own writes.
	modeCapture
	// modeSnapshot reads through GetSnapshotT: detached copies of the
	// committed state, never blocking on (or racing with) writers.
	modeSnapshot
)

// File is a heap file. WithTrace returns lightweight views of the same file
// that charge their page I/O to an obs.Trace; all views share one append
// cursor, so inserts through any view stay coherent.
type File struct {
	pool *buffer.Pool
	id   pagefile.FileID
	name string
	app  *appendCursor
	tr   *obs.Trace
	mode pinMode
}

// appendCursor tracks the page inserts are currently appended to. It is
// shared (by pointer) across all WithTrace views of a file. It is advisory:
// the engine serializes writers, and a stale cursor only costs an extra
// page probe, never corrupts data.
type appendCursor struct {
	page uint32
	has  bool
}

// Create makes a new, empty heap file named name in the pool's store.
func Create(pool *buffer.Pool, name string) (*File, error) {
	id, err := pool.Store().CreateFile(name)
	if err != nil {
		return nil, err
	}
	return &File{pool: pool, id: id, name: name, app: &appendCursor{}}, nil
}

// Open wraps an existing file id as a heap file. The file must have been
// created by Create (possibly in a prior session with a persistent store).
func Open(pool *buffer.Pool, id pagefile.FileID) (*File, error) {
	n, err := pool.Store().NumPages(id)
	if err != nil {
		return nil, err
	}
	name, err := pool.Store().FileName(id)
	if err != nil {
		return nil, err
	}
	f := &File{pool: pool, id: id, name: name, app: &appendCursor{}}
	if n > 0 {
		f.app.has = true
		f.app.page = n - 1
	}
	return f, nil
}

// WithTrace returns a view of the file whose page I/O (buffer gets, new
// pages, prefetches) is charged to tr in addition to the global counters.
// The view shares the underlying file's pool and append cursor, and keeps
// the receiver's pin mode, so re-tracing a capture or snapshot view never
// strips its isolation; tr may be nil, which returns an untraced view (often
// f itself).
func (f *File) WithTrace(tr *obs.Trace) *File {
	if f == nil || f.tr == tr {
		return f
	}
	v := *f
	v.tr = tr
	return &v
}

// WithCapture returns a write session's view: pages are registered in the
// enclosing pool scope before they are modified, for its commit or rollback.
// The caller must hold the engine's per-set lock covering this file for the
// lifetime of the view.
func (f *File) WithCapture(tr *obs.Trace) *File {
	if f == nil {
		return nil
	}
	v := *f
	v.tr = tr
	v.mode = modeCapture
	return &v
}

// WithSnapshot returns a read-only view that never blocks on writers: every
// page access yields a detached copy of the committed state (an uncommitted
// concurrent scope's pages read as their transaction-begin image). The
// mutating entry points refuse loudly through a snapshot view — a write
// there would touch a detached copy and silently vanish.
func (f *File) WithSnapshot(tr *obs.Trace) *File {
	if f == nil {
		return nil
	}
	v := *f
	v.tr = tr
	v.mode = modeSnapshot
	return &v
}

// guardWrite refuses mutation through a snapshot view: the pinned copies are
// detached from the pool, so a write would be silently discarded.
func (f *File) guardWrite() error {
	if f.mode == modeSnapshot {
		return fmt.Errorf("heap: write to %s through a snapshot view", f.name)
	}
	return nil
}

// get pins a page for reading according to the view's mode.
func (f *File) get(pid pagefile.PageID) (*buffer.Handle, error) {
	if f.mode == modeSnapshot {
		return f.pool.GetSnapshotT(pid, f.tr)
	}
	return f.pool.GetT(pid, f.tr)
}

// getW pins a page the caller is about to modify; a capture view registers
// it in the scope first.
func (f *File) getW(pid pagefile.PageID) (*buffer.Handle, error) {
	h, err := f.get(pid)
	if err == nil && f.mode == modeCapture {
		h.Capture()
	}
	return h, err
}

// newPage allocates a fresh page according to the view's mode.
func (f *File) newPage() (*buffer.Handle, pagefile.PageID, error) {
	if f.mode == modeCapture {
		return f.pool.NewPageCaptureT(f.id, f.tr)
	}
	return f.pool.NewPageT(f.id, f.tr)
}

// ID returns the file's id in the store.
func (f *File) ID() pagefile.FileID { return f.id }

// Name returns the file's name.
func (f *File) Name() string { return f.name }

// NumPages returns the number of pages in the file.
func (f *File) NumPages() (uint32, error) { return f.pool.Store().NumPages(f.id) }

func encodeHome(payload []byte) []byte {
	n := homeHeaderSize + len(payload)
	if n < minRecordSize {
		n = minRecordSize
	}
	rec := make([]byte, n)
	rec[0] = kindHome
	binary.LittleEndian.PutUint16(rec[1:3], uint16(len(payload)))
	copy(rec[3:], payload)
	return rec
}

func encodeStub(target pagefile.OID) []byte {
	rec := make([]byte, 1, stubSize)
	rec[0] = kindStub
	return target.AppendTo(rec)
}

func encodeMoved(payload []byte, home pagefile.OID) []byte {
	rec := make([]byte, movedHeaderSize, movedHeaderSize+len(payload)+movedTrailer)
	rec[0] = kindMoved
	binary.LittleEndian.PutUint16(rec[1:3], uint16(len(payload)))
	rec = append(rec, payload...)
	return home.AppendTo(rec)
}

func decodePayload(rec []byte) ([]byte, error) {
	if len(rec) < homeHeaderSize {
		return nil, fmt.Errorf("%w: heap record of %d bytes", pagefile.ErrCorruptPage, len(rec))
	}
	n := int(binary.LittleEndian.Uint16(rec[1:3]))
	if homeHeaderSize+n > len(rec) {
		return nil, fmt.Errorf("%w: heap record payload length %d exceeds record", pagefile.ErrCorruptPage, n)
	}
	return rec[3 : 3+n], nil
}

// Insert appends a record and returns its OID.
func (f *File) Insert(payload []byte) (pagefile.OID, error) {
	if err := f.guardWrite(); err != nil {
		return pagefile.OID{}, err
	}
	if len(payload) > MaxPayload {
		return pagefile.OID{}, fmt.Errorf("heap: payload of %d bytes exceeds max %d", len(payload), MaxPayload)
	}
	return f.insertRecord(encodeHome(payload), true)
}

// InsertNear inserts a record, preferring page hint if it has room. It is
// used to keep derived files (link objects, separate-replication S′ sets) in
// the same physical order as the objects they shadow.
func (f *File) InsertNear(payload []byte, hint uint32) (pagefile.OID, error) {
	if err := f.guardWrite(); err != nil {
		return pagefile.OID{}, err
	}
	if len(payload) > MaxPayload {
		return pagefile.OID{}, fmt.Errorf("heap: payload of %d bytes exceeds max %d", len(payload), MaxPayload)
	}
	rec := encodeHome(payload)
	if f.app.has && hint <= f.app.page {
		if oid, ok, err := f.tryInsertOn(hint, rec); err != nil {
			return pagefile.OID{}, err
		} else if ok {
			return oid, nil
		}
	}
	return f.insertRecord(rec, true)
}

func (f *File) insertRecord(rec []byte, retryNewPage bool) (pagefile.OID, error) {
	if len(rec) > pagefile.MaxRecordSize {
		return pagefile.OID{}, fmt.Errorf("heap: record of %d bytes exceeds page capacity", len(rec))
	}
	if f.app.has {
		if oid, ok, err := f.tryInsertOn(f.app.page, rec); err != nil {
			return pagefile.OID{}, err
		} else if ok {
			return oid, nil
		}
	}
	if !retryNewPage {
		return pagefile.OID{}, pagefile.ErrPageFull
	}
	h, pid, err := f.newPage()
	if err != nil {
		return pagefile.OID{}, err
	}
	defer h.Unpin()
	sp := pagefile.InitSlotted(h.Page())
	slot, err := sp.Insert(rec)
	if err != nil {
		return pagefile.OID{}, err
	}
	h.MarkDirty()
	f.app.page = pid.Page
	f.app.has = true
	return pagefile.OID{File: f.id, Page: pid.Page, Slot: slot}, nil
}

func (f *File) tryInsertOn(page uint32, rec []byte) (pagefile.OID, bool, error) {
	h, err := f.getW(pagefile.PageID{File: f.id, Page: page})
	if err != nil {
		return pagefile.OID{}, false, err
	}
	defer h.Unpin()
	sp := pagefile.AsSlotted(h.Page())
	if !sp.IsFormatted() {
		// An unformatted page: either a rolled-back in-transaction allocation
		// or a crash-orphaned Allocate, both all-zero. Treat it as full —
		// inserting through the raw layout would corrupt it.
		return pagefile.OID{}, false, nil
	}
	if !sp.CanFit(len(rec)) {
		return pagefile.OID{}, false, nil
	}
	slot, err := sp.Insert(rec)
	if errors.Is(err, pagefile.ErrPageFull) {
		return pagefile.OID{}, false, nil
	}
	if err != nil {
		return pagefile.OID{}, false, err
	}
	h.MarkDirty()
	return pagefile.OID{File: f.id, Page: page, Slot: slot}, true, nil
}

// Read returns a copy of the record payload at oid, following a forwarding
// stub if present.
func (f *File) Read(oid pagefile.OID) ([]byte, error) {
	payload, _, err := f.readResolved(oid)
	return payload, err
}

// readResolved returns the payload and the OID of the slot where the body
// actually lives (== oid unless forwarded).
func (f *File) readResolved(oid pagefile.OID) ([]byte, pagefile.OID, error) {
	rec, err := f.rawRead(oid)
	if err != nil {
		return nil, pagefile.OID{}, err
	}
	switch rec[0] {
	case kindHome:
		p, err := decodePayload(rec)
		return p, oid, err
	case kindStub:
		target, err := pagefile.DecodeOID(rec[1:])
		if err != nil {
			return nil, pagefile.OID{}, err
		}
		body, err := f.rawRead(target)
		if err != nil {
			return nil, pagefile.OID{}, err
		}
		if body[0] != kindMoved {
			return nil, pagefile.OID{}, fmt.Errorf("%w: stub %v points at non-moved record", pagefile.ErrCorruptPage, oid)
		}
		p, err := decodePayload(body)
		return p, target, err
	case kindMoved:
		return nil, pagefile.OID{}, fmt.Errorf("%w: %v addresses a moved body, not a record", ErrNotFound, oid)
	default:
		return nil, pagefile.OID{}, fmt.Errorf("%w: unknown record kind %d at %v", pagefile.ErrCorruptPage, rec[0], oid)
	}
}

// rawRead returns a copy of the raw slot contents at oid.
func (f *File) rawRead(oid pagefile.OID) ([]byte, error) {
	if oid.File != f.id {
		return nil, fmt.Errorf("heap: OID %v is not in file %d", oid, f.id)
	}
	h, err := f.get(oid.PageID())
	if err != nil {
		return nil, err
	}
	defer h.Unpin()
	sp := pagefile.AsSlotted(h.Page())
	rec, err := sp.Read(oid.Slot)
	if err != nil {
		return nil, slotReadErr(oid, err)
	}
	if len(rec) == 0 {
		return nil, fmt.Errorf("%w: empty heap record at %v", pagefile.ErrCorruptPage, oid)
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Update replaces the payload at oid, keeping the OID stable. If the new
// payload no longer fits on the home page, the body is moved and a
// forwarding stub is installed.
func (f *File) Update(oid pagefile.OID, payload []byte) error {
	if err := f.guardWrite(); err != nil {
		return err
	}
	if len(payload) > MaxPayload {
		return fmt.Errorf("heap: payload of %d bytes exceeds max %d", len(payload), MaxPayload)
	}
	h, err := f.getW(oid.PageID())
	if err != nil {
		return err
	}
	sp := pagefile.AsSlotted(h.Page())
	rec, err := sp.Read(oid.Slot)
	if err != nil {
		h.Unpin()
		return slotReadErr(oid, err)
	}
	if len(rec) == 0 {
		h.Unpin()
		return fmt.Errorf("%w: empty heap record at %v", pagefile.ErrCorruptPage, oid)
	}
	switch rec[0] {
	case kindHome:
		if err := sp.Update(oid.Slot, encodeHome(payload)); err == nil {
			h.MarkDirty()
			h.Unpin()
			return nil
		} else if !errors.Is(err, pagefile.ErrPageFull) {
			h.Unpin()
			return err
		}
		// Move the body out and leave a stub. The stub (11 bytes) always fits
		// because every live record is at least minRecordSize bytes.
		h.Unpin()
		target, err := f.insertBody(encodeMoved(payload, oid), oid.PageID().Page)
		if err != nil {
			return err
		}
		h2, err := f.getW(oid.PageID())
		if err != nil {
			return err
		}
		defer h2.Unpin()
		sp2 := pagefile.AsSlotted(h2.Page())
		if err := sp2.Update(oid.Slot, encodeStub(target)); err != nil {
			return fmt.Errorf("heap: installing forwarding stub at %v: %v", oid, err)
		}
		h2.MarkDirty()
		return nil
	case kindStub:
		target, derr := pagefile.DecodeOID(rec[1:])
		h.Unpin()
		if derr != nil {
			return derr
		}
		return f.updateMoved(oid, target, payload)
	case kindMoved:
		h.Unpin()
		return fmt.Errorf("%w: %v addresses a moved body, not a record", ErrNotFound, oid)
	default:
		h.Unpin()
		return fmt.Errorf("%w: unknown record kind %d at %v", pagefile.ErrCorruptPage, rec[0], oid)
	}
}

// updateMoved updates a record whose body lives at target, repointing the
// stub at home if the body must move again.
func (f *File) updateMoved(home, target pagefile.OID, payload []byte) error {
	h, err := f.getW(target.PageID())
	if err != nil {
		return err
	}
	sp := pagefile.AsSlotted(h.Page())
	if err := sp.Update(target.Slot, encodeMoved(payload, home)); err == nil {
		h.MarkDirty()
		h.Unpin()
		return nil
	} else if !errors.Is(err, pagefile.ErrPageFull) {
		h.Unpin()
		return err
	}
	// Body moves again: delete the old body, insert a new one, repoint stub.
	if err := sp.Delete(target.Slot); err != nil {
		h.Unpin()
		return err
	}
	h.MarkDirty()
	h.Unpin()
	newTarget, err := f.insertBody(encodeMoved(payload, home), home.Page)
	if err != nil {
		return err
	}
	hh, err := f.getW(home.PageID())
	if err != nil {
		return err
	}
	defer hh.Unpin()
	hsp := pagefile.AsSlotted(hh.Page())
	if err := hsp.Update(home.Slot, encodeStub(newTarget)); err != nil {
		return fmt.Errorf("heap: repointing stub at %v: %v", home, err)
	}
	hh.MarkDirty()
	return nil
}

// insertBody stores an already encoded record (used for moved bodies),
// preferring pages near the home page.
func (f *File) insertBody(rec []byte, nearPage uint32) (pagefile.OID, error) {
	// Try the page after the home page first so forwarded bodies stay close,
	// then fall back to the append page / a fresh page.
	if f.app.has && nearPage+1 <= f.app.page {
		if oid, ok, err := f.tryInsertOn(nearPage+1, rec); err != nil {
			return pagefile.OID{}, err
		} else if ok {
			return oid, nil
		}
	}
	return f.insertRecord(rec, true)
}

// Delete removes the record at oid, including a moved body if forwarded.
func (f *File) Delete(oid pagefile.OID) error {
	if err := f.guardWrite(); err != nil {
		return err
	}
	h, err := f.getW(oid.PageID())
	if err != nil {
		return err
	}
	sp := pagefile.AsSlotted(h.Page())
	rec, err := sp.Read(oid.Slot)
	if err != nil {
		h.Unpin()
		return slotReadErr(oid, err)
	}
	if len(rec) == 0 {
		h.Unpin()
		return fmt.Errorf("%w: empty heap record at %v", pagefile.ErrCorruptPage, oid)
	}
	kind := rec[0]
	var target pagefile.OID
	if kind == kindStub {
		target, err = pagefile.DecodeOID(rec[1:])
		if err != nil {
			h.Unpin()
			return err
		}
	}
	if kind == kindMoved {
		h.Unpin()
		return fmt.Errorf("%w: %v addresses a moved body, not a record", ErrNotFound, oid)
	}
	if err := sp.Delete(oid.Slot); err != nil {
		h.Unpin()
		return err
	}
	h.MarkDirty()
	h.Unpin()
	if kind == kindStub {
		ht, err := f.getW(target.PageID())
		if err != nil {
			return err
		}
		defer ht.Unpin()
		spt := pagefile.AsSlotted(ht.Page())
		if err := spt.Delete(target.Slot); err != nil {
			return err
		}
		ht.MarkDirty()
	}
	return nil
}

// Scan calls fn for every live record in physical (page, slot) order of the
// records' home OIDs. Forwarded records are visited at their home position.
// If fn returns an error, the scan stops and returns it.
//
// payload aliases a scan-owned copy of the record's page and is valid only
// until fn returns: a callback that keeps any of it must copy those bytes
// (schema.Decode does). fn runs with no page pinned, so it may use the pool —
// including updating the file being scanned, which the copy keeps the
// iteration stable against.
//
// When the pool's readahead is enabled, the scan pulls the next batch of
// pages into frames with one batched store read before crossing into it, so
// a disk-backed scan issues one vectored read per batch instead of one
// syscall per page. Total pages read are unchanged.
func (f *File) Scan(fn func(oid pagefile.OID, payload []byte) error) error {
	n, err := f.NumPages()
	if err != nil {
		return err
	}
	// Readahead only for plain-mode views: the engine's exclusive lock excludes
	// concurrent write-backs there, which the batched prefetch read requires.
	// Snapshot and capture views run concurrently with other sessions'
	// evictions and read page-at-a-time through the pool instead.
	ra := uint32(f.pool.Readahead())
	if f.mode != modePlain {
		ra = 0
	}
	var buf pagefile.Page
	for page := uint32(0); page < n; page++ {
		if ra > 0 && page%ra == 0 {
			f.pool.PrefetchT(f.id, page, int(ra), f.tr)
		}
		if err := f.scanPage(page, &buf, fn); err != nil {
			return err
		}
	}
	return nil
}

// ScanParallel scans like Scan but fans page ranges out to workers
// goroutines. Each goroutine calls each once for the callback it then feeds
// its records to, so a callback can own per-worker state without locking;
// whatever the callbacks share must be safe for concurrent use. Records are
// delivered in no particular order (within one page, slot order is
// preserved). Forwarded records are still visited at their home position
// exactly once. The file must not be mutated during the scan. The first error
// stops all workers and is returned. With workers <= 1 it is Scan(each()).
func (f *File) ScanParallel(workers int, each func() func(oid pagefile.OID, payload []byte) error) error {
	if workers <= 1 {
		return f.Scan(each())
	}
	n, err := f.NumPages()
	if err != nil || n == 0 {
		return err
	}
	if uint32(workers) > n {
		workers = int(n)
	}
	// Workers claim fixed chunks of pages; with readahead on, a claimed
	// chunk is prefetched with one batched read before it is scanned.
	// As in Scan, prefetch is plain-mode only.
	ra := f.pool.Readahead()
	if f.mode != modePlain {
		ra = 0
	}
	chunk := uint32(ra)
	if chunk == 0 {
		chunk = 8
	}
	var (
		next atomic.Uint32
		stop atomic.Bool
		wg   sync.WaitGroup
		errs = make([]error, workers)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn := each()
			var buf pagefile.Page
			for !stop.Load() {
				start := next.Add(chunk) - chunk
				if start >= n {
					return
				}
				end := start + chunk
				if end > n {
					end = n
				}
				if ra > 0 {
					f.pool.PrefetchT(f.id, start, int(end-start), f.tr)
				}
				for page := start; page < end; page++ {
					if stop.Load() {
						return
					}
					if err := f.scanPage(page, &buf, fn); err != nil {
						errs[w] = err
						stop.Store(true)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return e
		}
	}
	return nil
}

// scanPage visits the live records of one page in place. A snapshot handle's
// page is already a private copy, held until the page is done; the pinned
// modes copy the page into buf, the scan's recycled page buffer, and drop the
// pin, so fn runs without a frame pinned either way (it may itself use the
// pool). Forwarded records are resolved
// through their stubs.
func (f *File) scanPage(page uint32, buf *pagefile.Page, fn func(oid pagefile.OID, payload []byte) error) error {
	h, err := f.get(pagefile.PageID{File: f.id, Page: page})
	if err != nil {
		return err
	}
	pg := h.Page()
	if f.mode != modeSnapshot {
		*buf = *pg
		pg = buf
		h.Unpin()
	} else {
		defer h.Unpin()
	}
	sp := pagefile.AsSlotted(pg)
	nslots := sp.NumSlots()
	for slot := uint16(0); slot < nslots; slot++ {
		if !sp.Live(slot) {
			continue
		}
		rec, err := sp.Read(slot)
		if err != nil {
			return err
		}
		oid := pagefile.OID{File: f.id, Page: page, Slot: slot}
		if len(rec) == 0 {
			return fmt.Errorf("%w: empty heap record at %v", pagefile.ErrCorruptPage, oid)
		}
		var payload []byte
		switch rec[0] {
		case kindHome:
			payload, err = decodePayload(rec)
		case kindStub:
			payload, _, err = f.readResolved(oid)
		default:
			continue // a moved body is visited through its stub
		}
		if err != nil {
			return err
		}
		if err := fn(oid, payload); err != nil {
			return err
		}
	}
	return nil
}

// Count returns the number of live records.
func (f *File) Count() (int, error) {
	n := 0
	err := f.Scan(func(pagefile.OID, []byte) error { n++; return nil })
	return n, err
}
