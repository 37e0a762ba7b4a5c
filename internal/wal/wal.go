// Package wal implements a page-oriented redo write-ahead log.
//
// The log is a single append-only file. A 16-byte header (magic, version,
// base LSN) is followed by a sequence of records framed as
//
//	u32 bodyLen | u32 crc32(body) | body
//	body = u8 type | u64 lsn | payload
//
// Record types:
//
//	page:       fid u32 | page u32 | full 4096-byte image (LSN pre-stamped)
//	pageDelta:  fid u32 | page u32 | prevLSN u64 | n u16 |
//	            n × (off u16 | len u16 | bytes): the byte ranges where the
//	            page differs from the image it had at prevLSN
//	commit:     no payload; makes every record since the previous commit real
//	catalog:    opaque catalog snapshot (JSON) to restore at recovery
//	fileCreate: fid u32 | name; replay recreates files a committed
//	            transaction created that are missing after a crash
//
// The log is redo-only: a transaction appends one record per page it dirtied
// plus a commit record, and fsyncs the log before the commit is acknowledged.
// Dirty pages may only reach the data files after the log records covering
// them are durable (the buffer pool asks EnsureDurablePage before any
// write-back).
//
// The full-image rule. A page's record is a full image when the log holds no
// record for the page since the last checkpoint, when the committer supplied
// no before-image, or when the before-image is not the image the log last
// recorded for the page (its LSN or content CRC differs: something wrote the
// page without logging it). Otherwise it is a delta against the before-image.
// Every page written back in place therefore has a full image behind it in
// the log, which is what repairs a torn write; and a delta's base is always
// an image recovery can itself reconstruct.
//
// The chain rule. Redo applies a full image to an older or unreadable page,
// and a delta only to a page whose LSN is exactly the delta's prevLSN; a
// record at or below the page's LSN is skipped. A delta that finds any other
// page — a missing record, or a corrupt page with no full image to restart
// from — is an error naming the page, never a guess.
//
// The delta is physical, a byte diff of two images the committer already
// holds, not a logical per-page-format operation: one encoder and one
// five-line redo loop cover slotted pages, B-tree nodes and whatever comes
// next, and nothing above the log knows deltas exist.
//
// Recovery scans the log, stops at the first torn or corrupt record (an
// unacknowledged tail), and redoes every committed transaction. Checkpoint
// truncates the log after the data files themselves are durable, carrying the
// LSN sequence forward in the header so LSNs stay monotone for the life of
// the database.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

const (
	walMagic = 0x57A1F17E
	// walVersion 2 added pageDelta records. A version-1 log (full images
	// only) still replays and is upgraded in place; a version-1 binary refuses
	// a version-2 log rather than mistaking its first delta for a torn tail.
	walVersion = 2
	headerSize = 16 // magic u32 | version u32 | baseLSN u64

	// keepBufBytes is the largest batch buffer kept between appends.
	keepBufBytes = 1 << 20
)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: closed")

// FileCreate records a page file created inside a transaction.
type FileCreate struct {
	FID  pagefile.FileID
	Name string
}

// PageImage is one dirty page's after-image headed for the log, held by
// value: the shape for callers that own a copy of the page and no
// before-image, so it is always logged in full. AppendCommit stamps the
// record's LSN into Data before computing the record CRC, so the logged image
// and the caller's copy agree.
type PageImage struct {
	PID  pagefile.PageID
	Data pagefile.Page
}

// PageRef is one dirty page headed for the log by reference: Post is the
// page as it now stands (a buffer-pool frame), Pre the image it had when the
// committing scope first touched it, nil when there is none. AppendPages
// stamps the record's LSN into Post and encodes straight from the two images
// without copying either.
type PageRef struct {
	PID  pagefile.PageID
	Pre  *pagefile.Page
	Post *pagefile.Page
}

// Stats is a point-in-time snapshot of log activity. Fsyncs much smaller
// than Commits is group commit working; SyncWaits/SharedSyncs decompose it:
// a shared sync is a durability wait satisfied by another committer's fsync
// (the follower half of leader/follower batching).
type Stats struct {
	Records     int64 `json:"records"`
	Commits     int64 `json:"commits"`
	Fsyncs      int64 `json:"fsyncs"`
	Bytes       int64 `json:"bytes"`
	Checkpoints int64 `json:"checkpoints"`
	// FullImages and DeltaRecords split the page records this log encoded by
	// kind. The full-image share is what checkpoint cadence controls: every
	// page's first record after a checkpoint is a full image.
	FullImages   int64 `json:"full_images"`
	DeltaRecords int64 `json:"delta_records"`
	// CheckpointsDeferred counts checkpoints that skipped truncation because
	// a replication consumer still needed the retained records.
	CheckpointsDeferred int64 `json:"checkpoints_deferred"`
	// SyncWaits counts WaitDurable calls that found their LSN not yet
	// durable and actually waited; SharedSyncs counts the subset resolved by
	// another caller's fsync. SyncQueue is the instantaneous number of
	// committers inside the durability wait (the group-commit queue depth).
	SyncWaits   int64 `json:"sync_waits"`
	SharedSyncs int64 `json:"shared_syncs"`
	SyncQueue   int64 `json:"sync_queue"`
}

// pageState is what the log remembers of the last record it wrote for a page
// since the last checkpoint: the record's LSN (the write barrier's target and
// the next delta's prevLSN) and the identity of the image it recorded (what a
// before-image must match to serve as a delta's base).
type pageState struct {
	lsn uint64
	crc uint32
}

// Manager is the append side of the log. All methods are safe for concurrent
// use. The fsync path is split from the append path so that concurrent
// committers batch: one leader fsyncs while followers wait, and a follower
// whose LSN the leader covered returns without its own fsync.
type Manager struct {
	path string

	mu       sync.Mutex // guards f (writes), off, nextLSN, appended, pageLSN, buf, states, closed, broken
	f        *os.File
	off      int64 // append position: end of the valid record prefix
	nextLSN  uint64
	appended uint64 // highest LSN handed to the OS
	pageLSN  map[pagefile.PageID]pageState
	buf      []byte      // the batch under construction, recycled between appends
	states   []pageState // its pages' new pageLSN entries, installed once it is written
	closed   bool
	broken   bool // a failed append left bytes we could not truncate away

	syncMu   sync.Mutex    // serializes fsyncs; the group-commit leader lock
	durable  atomic.Uint64 // highest LSN known fsync'd
	interval time.Duration // optional batching window before claiming leadership

	// Shipping state (guarded by mu). base is the header's base LSN; epoch
	// increments every time the log is truncated or reset, invalidating tail
	// cursors whose file offsets refer to the previous log generation;
	// durableOff is the file offset covered by the last fsync — the shipping
	// boundary, so a tail reader never ships bytes a crash could take back.
	base       uint64
	epoch      uint64
	durableOff int64
	// notify is closed and replaced whenever the durable LSN advances (or the
	// log closes), waking tail readers blocked in WaitDurableAbove.
	notify chan struct{}
	// retain, when set, reports the minimum LSN a log consumer (the
	// replication shipper) still needs; Checkpoint defers truncation while
	// records at or after it would be lost, unless the log has grown past
	// retainBytes (0 = no bound), at which point truncation is forced and the
	// lagging consumer must full-resync.
	retain      func() (uint64, bool)
	retainBytes int64

	records     atomic.Int64
	commits     atomic.Int64
	fsyncs      atomic.Int64
	bytes       atomic.Int64
	checkpoints atomic.Int64
	fullImages  atomic.Int64
	deltas      atomic.Int64

	// Group-commit contention telemetry: how long committers spend in the
	// durability rendezvous, how many actually wait, how many are satisfied
	// by a leader's fsync, and how many are queued right now.
	fsyncWait   *obs.Histogram
	syncWaits   atomic.Int64
	sharedSyncs atomic.Int64
	syncQueue   atomic.Int64

	ckptDeferred atomic.Int64
}

// Open opens (creating if absent) the log at path, replays any committed
// records into store, and returns the manager ready for appends. Replay does
// not truncate the log: the caller must make the replayed state durable
// (store sync + catalog rewrite) and then call Checkpoint, so a crash during
// recovery just replays again. interval is the optional group-commit
// batching window (see WaitDurable).
func Open(path string, store pagefile.Store, interval time.Duration) (*Manager, *RecoveryReport, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	m := &Manager{
		path:      path,
		f:         f,
		pageLSN:   make(map[pagefile.PageID]pageState),
		interval:  interval,
		fsyncWait: obs.NewHistogram(),
		notify:    make(chan struct{}),
	}
	rep := &RecoveryReport{}

	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, nil, fmt.Errorf("wal: stat: %w", err)
	}
	if st.Size() < headerSize {
		// Fresh (or torn-before-header) log: write a clean header.
		if err := m.writeHeader(1); err != nil {
			f.Close()
			return nil, nil, err
		}
		m.nextLSN = 1
		m.appended = 0
		m.off = headerSize
		m.durable.Store(0)
		return m, rep, nil
	}

	base, err := m.readHeader()
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	start := time.Now()
	last, end, err := m.replay(store, base, st.Size(), rep)
	rep.Duration = time.Since(start)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	m.nextLSN = last + 1
	m.appended = last
	m.durable.Store(last)
	// Appends resume after the last committed transaction; whatever follows
	// it is overwritten by the next append.
	m.off = end
	m.base = base
	// Everything replayed was applied to the store; treat the valid prefix as
	// the shipping boundary (the caller checkpoints right after recovery).
	m.durableOff = end
	return m, rep, nil
}

func (m *Manager) writeHeader(base uint64) error {
	var h [headerSize]byte
	binary.LittleEndian.PutUint32(h[0:], walMagic)
	binary.LittleEndian.PutUint32(h[4:], walVersion)
	binary.LittleEndian.PutUint64(h[8:], base)
	if err := m.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: truncate: %w", err)
	}
	if _, err := m.f.WriteAt(h[:], 0); err != nil {
		return fmt.Errorf("wal: write header: %w", err)
	}
	if err := m.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync header: %w", err)
	}
	m.fsyncs.Add(1)
	// The log restarted: offsets from the previous generation are invalid.
	m.base = base
	m.epoch++
	m.durableOff = headerSize
	return nil
}

// readHeader validates the header and returns the base LSN. A version-1 log
// holds nothing this version cannot read; its version word is raised in place
// first, so no log ever carries a delta under a header that promises none.
func (m *Manager) readHeader() (uint64, error) {
	var h [headerSize]byte
	if _, err := m.f.ReadAt(h[:], 0); err != nil {
		return 0, fmt.Errorf("wal: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(h[0:]) != walMagic {
		return 0, fmt.Errorf("wal: %s is not a log file", m.path)
	}
	switch v := binary.LittleEndian.Uint32(h[4:]); v {
	case walVersion:
	case 1:
		binary.LittleEndian.PutUint32(h[4:], walVersion)
		if _, err := m.f.WriteAt(h[4:8], 4); err != nil {
			return 0, fmt.Errorf("wal: upgrade header: %w", err)
		}
		if err := m.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync header: %w", err)
		}
		m.fsyncs.Add(1)
	default:
		return 0, fmt.Errorf("wal: unsupported version %d", v)
	}
	return binary.LittleEndian.Uint64(h[8:]), nil
}

// replay scans the size-byte log from the header, redoing it transaction by
// transaction, and returns the LSN of the last commit record (base-1 if there
// is none) and the file offset just past it. Whole records after it belong to
// an append that tore before its commit record: never acknowledged, never
// shipped, and — the write barrier syncs whole appends — never stamped on a
// page in the store, so both their bytes and their LSNs are free for reuse.
func (m *Manager) replay(store pagefile.Store, base uint64, size int64, rep *RecoveryReport) (uint64, int64, error) {
	lastLSN := base - 1
	off := int64(headerSize)
	committed := off
	asm := NewAssembler(false)
	redo := NewRedo(store, rep)

	var head [8]byte
	for off+8 <= size {
		if _, err := m.f.ReadAt(head[:], off); err != nil {
			return 0, 0, fmt.Errorf("wal: replay read: %w", err)
		}
		// A frame cannot be longer than what is left of the file, so garbage
		// length bytes never size an allocation; anything that does not parse
		// is the torn tail of an unacknowledged append.
		n := 8 + int64(binary.LittleEndian.Uint32(head[:]))
		if n > size-off {
			break
		}
		frame := make([]byte, n)
		if _, err := m.f.ReadAt(frame, off); err != nil {
			return 0, 0, fmt.Errorf("wal: replay read: %w", err)
		}
		txns, err := asm.Feed(frame)
		if err != nil {
			break
		}
		off += n
		for i := range txns {
			if err := redo.ApplyCommitted(&txns[i]); err != nil {
				return 0, 0, err
			}
			if txns[i].Catalog != nil {
				rep.Catalog = txns[i].Catalog
			}
			m.records.Add(int64(len(txns[i].Files) + len(txns[i].Pages)))
			rep.Commits++
			lastLSN, committed = txns[i].LastLSN, off
		}
	}
	rep.TornTail = committed < size // bytes follow the last commit record
	if err := redo.Flush(); err != nil {
		return 0, 0, err
	}
	return lastLSN, committed, nil
}

// AppendCommit appends one transaction — file creations, page after-images,
// an optional catalog snapshot, and the commit record — as a single write.
// It assigns LSNs, stamping each page image's LSN into Data before the CRC
// is computed, and returns the commit record's LSN for WaitDurable, along
// with the number of log bytes appended. The commit is not durable until
// WaitDurable returns.
func (m *Manager) AppendCommit(files []FileCreate, pages []PageImage, catalog []byte) (uint64, int, error) {
	refs := make([]PageRef, len(pages))
	for i := range pages {
		refs[i] = PageRef{PID: pages[i].PID, Post: &pages[i].Data}
	}
	return m.appendTxn(files, refs, catalog)
}

// AppendPages is AppendCommit for a scope's dirty set handed over by
// reference: each page is logged as a delta against its before-image where
// the full-image rule allows, and in full otherwise. A statement passes pages
// alone; a schema operation also passes the files it created since its last
// commit and, on the commit that changes it, the catalog.
func (m *Manager) AppendPages(files []FileCreate, pages []PageRef, catalog []byte) (uint64, int, error) {
	return m.appendTxn(files, pages, catalog)
}

// appendTxn encodes one transaction into the batch buffer and writes it. It
// is the only encoder, and the only place the full-or-delta decision is made.
func (m *Manager) appendTxn(files []FileCreate, pages []PageRef, catalog []byte) (uint64, int, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, 0, ErrClosed
	}
	if m.broken {
		return 0, 0, errors.New("wal: log poisoned by an earlier failed append")
	}
	// Acknowledged must mean replayable: a record no scan would accept is
	// refused here, before any LSN is consumed or byte written.
	if recHeaderLen+len(catalog) > MaxBodyLen {
		return 0, 0, fmt.Errorf("wal: append: catalog record of %d bytes exceeds the %d-byte record limit", len(catalog), MaxBodyLen)
	}
	for _, fc := range files {
		if recHeaderLen+4+len(fc.Name) > MaxBodyLen {
			return 0, 0, fmt.Errorf("wal: append: fileCreate record for a %d-byte name exceeds the %d-byte record limit", len(fc.Name), MaxBodyLen)
		}
	}

	buf, states := m.buf[:0], m.states[:0]
	var rec int
	for _, fc := range files {
		buf, rec = m.beginRecord(buf, RecFileCreate)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(fc.FID))
		buf = append(buf, fc.Name...)
		endRecord(buf, rec)
	}
	nDelta := 0
	for i := range pages {
		pg := &pages[i]
		last, logged := m.pageLSN[pg.PID]
		lsn := m.nextLSN
		// The LSN is part of the page: stamp it before encoding so the image
		// eventually written back matches the logged one, and the write
		// barrier and redo's LSN comparisons see the right version.
		pagefile.SetPageLSN(pg.Post, lsn)
		if logged && pg.Pre != nil && pagefile.PageLSN(pg.Pre) == last.lsn && imageCRC(pg.Pre) == last.crc {
			buf, rec = m.beginRecord(buf, RecPageDelta)
			buf = appendPageID(buf, pg.PID)
			buf = binary.LittleEndian.AppendUint64(buf, last.lsn)
			count := len(buf)
			buf = append(buf, 0, 0)
			var n int
			buf, n = appendDiff(buf, pg.Pre, pg.Post)
			binary.LittleEndian.PutUint16(buf[count:], uint16(n))
			nDelta++
		} else {
			buf, rec = m.beginRecord(buf, RecPage)
			buf = appendPageID(buf, pg.PID)
			buf = append(buf, pg.Post[:]...)
		}
		endRecord(buf, rec)
		states = append(states, pageState{lsn: lsn, crc: imageCRC(pg.Post)})
	}
	if catalog != nil {
		buf, rec = m.beginRecord(buf, RecCatalog)
		buf = append(buf, catalog...)
		endRecord(buf, rec)
	}
	buf, rec = m.beginRecord(buf, RecCommit)
	endRecord(buf, rec)
	commitLSN := m.nextLSN - 1
	if cap(buf) <= keepBufBytes {
		m.buf = buf
	}
	m.states = states

	if _, err := m.f.WriteAt(buf, m.off); err != nil {
		// A partial append is garbage mid-log: later commits appended after
		// it would be unreachable at replay (the scan stops at the first bad
		// record). Truncate the partial bytes away; if even that fails, the
		// log can no longer accept commits.
		if terr := m.f.Truncate(m.off); terr != nil {
			m.broken = true
		}
		// The consumed LSNs are simply skipped; the sequence stays monotone.
		// pageLSN is untouched, so a page stamped above keeps its last real
		// record as the write barrier's target, and its next record is a full
		// image unless the caller restores the image that record described.
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
	m.off += int64(len(buf))
	for i := range pages {
		m.pageLSN[pages[i].PID] = states[i]
	}
	m.appended = commitLSN
	m.records.Add(int64(len(files)+len(pages)) + 1)
	if catalog != nil {
		m.records.Add(1)
	}
	m.commits.Add(1)
	m.bytes.Add(int64(len(buf)))
	m.deltas.Add(int64(nDelta))
	m.fullImages.Add(int64(len(pages) - nDelta))
	return commitLSN, len(buf), nil
}

// WaitDurable blocks until every record up to and including lsn is fsync'd.
// This is the group-commit rendezvous: if a configured CommitInterval is
// set, the caller first sleeps that window so concurrent commits pile up;
// then the first waiter through the sync lock fsyncs on behalf of everyone
// appended so far, and the rest find their LSN already durable and return
// without an fsync of their own.
func (m *Manager) WaitDurable(lsn uint64) error {
	if m.durable.Load() >= lsn {
		return nil
	}
	// The wait is real: time it (the fsync-wait histogram is the "where did
	// my commit's wall time go" decomposition) and track the queue depth.
	m.syncWaits.Add(1)
	m.syncQueue.Add(1)
	start := time.Now()
	if m.interval > 0 {
		time.Sleep(m.interval)
	}
	shared, err := m.syncTo(lsn)
	m.fsyncWait.Observe(time.Since(start))
	m.syncQueue.Add(-1)
	if shared {
		m.sharedSyncs.Add(1)
	}
	return err
}

// syncTo makes the log durable through lsn. shared reports that the caller
// did not fsync itself — another committer's fsync already covered lsn.
func (m *Manager) syncTo(lsn uint64) (shared bool, err error) {
	if m.durable.Load() >= lsn {
		return true, nil
	}
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	if m.durable.Load() >= lsn {
		return true, nil // a leader's fsync covered us while we waited
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return false, ErrClosed
	}
	target := m.appended
	targetOff := m.off
	f := m.f
	m.mu.Unlock()
	if err := f.Sync(); err != nil {
		return false, fmt.Errorf("wal: fsync: %w", err)
	}
	m.fsyncs.Add(1)
	m.durable.Store(target)
	// Publish the new shipping boundary and wake tail readers. The offset is
	// compared because a checkpoint between the capture above and here resets
	// durableOff for the new log generation.
	m.mu.Lock()
	if targetOff > m.durableOff {
		m.durableOff = targetOff
	}
	close(m.notify)
	m.notify = make(chan struct{})
	m.mu.Unlock()
	return false, nil
}

// EnsureDurablePage is the buffer pool's write barrier: it must be called
// before a dirty page is written back to the store, and fsyncs the log
// through the page's last logged record. Pages with no record since the last
// checkpoint (scratch query outputs, which are never logged) need no barrier
// and return immediately.
func (m *Manager) EnsureDurablePage(pid pagefile.PageID) error {
	m.mu.Lock()
	last, ok := m.pageLSN[pid]
	m.mu.Unlock()
	if !ok {
		return nil
	}
	_, err := m.syncTo(last.lsn)
	return err
}

// Checkpoint truncates the log, carrying the LSN sequence forward in the
// header. The caller must have flushed and fsync'd the data files (and
// persisted the catalog) first: after Checkpoint the log no longer covers
// them.
//
// When a retain hook is registered (replication shipping) and a consumer
// still needs records this log holds, truncation is deferred: the data files
// are durable, so the write-barrier entries are dropped, but the records stay
// on disk for the shipper. A deferred checkpoint is not an error. Once the
// log outgrows the configured retain bound the truncation happens anyway and
// the lagging consumer must full-resync.
func (m *Manager) Checkpoint() error {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.retain != nil {
		if minLSN, ok := m.retain(); ok && minLSN < m.appended && (m.retainBytes <= 0 || m.off <= m.retainBytes) {
			m.pageLSN = make(map[pagefile.PageID]pageState)
			m.ckptDeferred.Add(1)
			return nil
		}
	}
	if err := m.writeHeader(m.nextLSN); err != nil {
		return err
	}
	m.off = headerSize
	m.pageLSN = make(map[pagefile.PageID]pageState)
	m.appended = m.nextLSN - 1
	m.durable.Store(m.appended)
	m.checkpoints.Add(1)
	return nil
}

// Stats returns a snapshot of log activity counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Records:             m.records.Load(),
		Commits:             m.commits.Load(),
		Fsyncs:              m.fsyncs.Load(),
		Bytes:               m.bytes.Load(),
		Checkpoints:         m.checkpoints.Load(),
		FullImages:          m.fullImages.Load(),
		DeltaRecords:        m.deltas.Load(),
		CheckpointsDeferred: m.ckptDeferred.Load(),
		SyncWaits:           m.syncWaits.Load(),
		SharedSyncs:         m.sharedSyncs.Load(),
		SyncQueue:           m.syncQueue.Load(),
	}
}

// FsyncWaitHist snapshots the durability-wait histogram: the wall time each
// WaitDurable caller spent between asking for durability and getting it
// (batching window + queueing behind the leader + the fsync itself).
func (m *Manager) FsyncWaitHist() obs.HistSnapshot {
	return m.fsyncWait.Snapshot()
}

// Close fsyncs and closes the log file. Further appends fail with ErrClosed.
func (m *Manager) Close() error {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	// Wake tail readers so shipping loops observe the close promptly.
	close(m.notify)
	m.notify = make(chan struct{})
	err := m.f.Sync()
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
