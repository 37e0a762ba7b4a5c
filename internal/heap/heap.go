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
	// session can overlap: query scratch files, which belong to one session,
	// and callers that own the whole pool.
	modePlain pinMode = iota
	// modeCapture is a write session's view: the session holds the per-set
	// locks for this file and an open pool scope. Pages are registered in the
	// scope before they are modified (getW), so the scope can roll them back
	// and concurrent snapshot readers never see uncommitted bytes; reads pin
	// the frame directly and see the session's own writes.
	modeCapture
	// modeSnapshot reads through Pool.Read: the committed state in place,
	// never blocking on (or racing with) writers.
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
// pages) is charged to tr in addition to the global counters.
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
// page access reads the committed state (an uncommitted concurrent scope's
// pages read as their transaction-begin image). The mutating entry points
// refuse loudly through a snapshot view — it has no pinned frame to write.
func (f *File) WithSnapshot(tr *obs.Trace) *File {
	if f == nil {
		return nil
	}
	v := *f
	v.tr = tr
	v.mode = modeSnapshot
	return &v
}

// guardWrite refuses mutation through a snapshot view: it reads committed
// images, never a frame pinned for writing.
func (f *File) guardWrite() error {
	if f.mode == modeSnapshot {
		return fmt.Errorf("heap: write to %s through a snapshot view", f.name)
	}
	return nil
}

// read runs fn on page pid according to the view's mode: a snapshot view's
// committed image under the pool's lock (buffer.Pool.Read, so fn must not use
// the pool), otherwise the frame, pinned for the call.
func (f *File) read(pid pagefile.PageID, fn func(*pagefile.Page) error) error {
	if f.mode == modeSnapshot {
		return f.pool.Read(pid, f.tr, fn)
	}
	h, err := f.pool.GetT(pid, f.tr)
	if err != nil {
		return err
	}
	defer h.Unpin()
	return fn(h.Page())
}

// getW pins a page the caller is about to modify; a capture view registers
// it in the scope first.
func (f *File) getW(pid pagefile.PageID) (*buffer.Handle, error) {
	h, err := f.pool.GetT(pid, f.tr)
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
func (f *File) Read(oid pagefile.OID) ([]byte, error) { return f.AppendRecord(nil, oid) }

// AppendRecord appends the record payload at oid to dst and returns the
// extended slice, as Read does. A caller that passes the same buffer back
// (dst[:0]) copies without allocating once the buffer has grown to fit.
func (f *File) AppendRecord(dst []byte, oid pagefile.OID) ([]byte, error) {
	err := f.View(oid, func(payload []byte) error {
		dst = append(dst, payload...)
		return nil
	})
	return dst, err
}

// View runs fn on the record payload at oid in place, following a forwarding
// stub if present, and returns fn's error. payload is valid only until fn
// returns. Through a snapshot view fn runs under the buffer pool's lock
// (buffer.Pool.Read): it must not use the pool or block.
func (f *File) View(oid pagefile.OID, fn func(payload []byte) error) error {
	if oid.File != f.id {
		return fmt.Errorf("heap: OID %v is not in file %d", oid, f.id)
	}
	var target pagefile.OID
	forwarded := false
	err := f.read(oid.PageID(), func(pg *pagefile.Page) error {
		rec, err := slotRecord(pg, oid)
		if err != nil {
			return err
		}
		switch rec[0] {
		case kindHome:
			p, err := decodePayload(rec)
			if err != nil {
				return err
			}
			return fn(p)
		case kindStub:
			forwarded = true
			target, err = pagefile.DecodeOID(rec[1:])
			return err
		case kindMoved:
			return fmt.Errorf("%w: %v addresses a moved body, not a record", ErrNotFound, oid)
		default:
			return fmt.Errorf("%w: unknown record kind %d at %v", pagefile.ErrCorruptPage, rec[0], oid)
		}
	})
	if err != nil || !forwarded {
		return err
	}
	if target.File != f.id {
		return fmt.Errorf("heap: OID %v is not in file %d", target, f.id)
	}
	return f.read(target.PageID(), func(pg *pagefile.Page) error {
		body, err := slotRecord(pg, target)
		if err != nil {
			return err
		}
		if body[0] != kindMoved {
			return fmt.Errorf("%w: stub %v points at non-moved record", pagefile.ErrCorruptPage, oid)
		}
		p, err := decodePayload(body)
		if err != nil {
			return err
		}
		return fn(p)
	})
}

// slotRecord returns the raw, non-empty slot contents at oid on pg, in place.
func slotRecord(pg *pagefile.Page, oid pagefile.OID) ([]byte, error) {
	rec, err := pagefile.AsSlotted(pg).Read(oid.Slot)
	if err != nil {
		return nil, slotReadErr(oid, err)
	}
	if len(rec) == 0 {
		return nil, fmt.Errorf("%w: empty heap record at %v", pagefile.ErrCorruptPage, oid)
	}
	return rec, nil
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

// Patch runs fn on the record payload at oid in place, on its page pinned
// for writing, following a forwarding stub to the moved body. Each page is
// pinned as Update pins it (getW), so a capture view registers it in the
// scope before fn sees it, and rollback and delta logging see the write as
// they see Update's. fn may overwrite payload bytes but must not write past
// them or keep the slice; it reports whether it wrote, and only then is the
// page marked dirty. A record that must grow or shrink is Update's.
func (f *File) Patch(oid pagefile.OID, fn func(payload []byte) (bool, error)) error {
	if err := f.guardWrite(); err != nil {
		return err
	}
	if oid.File != f.id {
		return fmt.Errorf("heap: OID %v is not in file %d", oid, f.id)
	}
	h, err := f.getW(oid.PageID())
	if err != nil {
		return err
	}
	rec, err := slotRecord(h.Page(), oid)
	if err != nil {
		h.Unpin()
		return err
	}
	switch rec[0] {
	case kindHome:
		return patchIn(h, rec, fn)
	case kindStub:
		target, err := pagefile.DecodeOID(rec[1:])
		h.Unpin()
		if err != nil {
			return err
		}
		if target.File != f.id {
			return fmt.Errorf("heap: OID %v is not in file %d", target, f.id)
		}
		h, err = f.getW(target.PageID())
		if err != nil {
			return err
		}
		body, err := slotRecord(h.Page(), target)
		if err == nil && body[0] != kindMoved {
			err = fmt.Errorf("%w: stub %v points at non-moved record", pagefile.ErrCorruptPage, oid)
		}
		if err != nil {
			h.Unpin()
			return err
		}
		return patchIn(h, body, fn)
	case kindMoved:
		h.Unpin()
		return fmt.Errorf("%w: %v addresses a moved body, not a record", ErrNotFound, oid)
	default:
		h.Unpin()
		return fmt.Errorf("%w: unknown record kind %d at %v", pagefile.ErrCorruptPage, rec[0], oid)
	}
}

// patchIn runs Patch's fn on the payload of rec, a record on h's page, and
// releases h.
func patchIn(h *buffer.Handle, rec []byte, fn func(payload []byte) (bool, error)) error {
	defer h.Unpin()
	p, err := decodePayload(rec)
	if err != nil {
		return err
	}
	wrote, err := fn(p)
	if wrote {
		h.MarkDirty()
	}
	return err
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
// (schema.Decode does). fn runs with no page pinned and no pool lock held, so
// it may use the pool — including updating the file being scanned, which the
// copy keeps the iteration stable against.
func (f *File) Scan(fn func(oid pagefile.OID, payload []byte) error) error {
	n, err := f.NumPages()
	if err != nil {
		return err
	}
	var buf pagefile.Page
	for page := uint32(0); page < n; page++ {
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
	// Workers claim fixed chunks of pages.
	const chunk = 8
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

// scanPage copies one page into buf, the scan's recycled page buffer, and
// visits its live records there, so fn runs with no frame pinned and no pool
// lock held (it may itself use the pool). Forwarded records are resolved
// through their stubs.
func (f *File) scanPage(page uint32, buf *pagefile.Page, fn func(oid pagefile.OID, payload []byte) error) error {
	err := f.read(pagefile.PageID{File: f.id, Page: page}, func(pg *pagefile.Page) error {
		*buf = *pg
		return nil
	})
	if err != nil {
		return err
	}
	sp := pagefile.AsSlotted(buf)
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
			payload, err = f.Read(oid)
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
