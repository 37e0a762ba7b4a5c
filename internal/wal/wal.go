// Package wal implements a page-oriented redo write-ahead log.
//
// The log is one file per generation. A header (magic u32 | version u32 |
// base LSN u64 | catLen u32 | catCRC u32 | catalog) is followed by records
// framed as
//
//	u32 bodyLen | u32 crc32(body) | body
//	body = u8 type | u64 lsn | payload
//
// and the records by a zero runway: space already zero-filled, fsynced and
// inside the file's size. Replay stops at the first frame that does not
// parse, which after the last append is the runway's first zero frame.
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
// The runway. An fsync that grows the file also commits its new size through
// the file system's journal, and that costs about as much again as the
// record's own bytes. So appends land in space the file already owns: once a
// commit that left less than half a chunk of runway is durable, the sync path
// starts one background fill that writes runwayChunk zeros after the
// runway's end and fsyncs them. No committer zero-fills, and an append never
// writes into a range being zeroed: one that would waits for the fill. An
// append that outruns the runway grows the file. A new generation starts with
// none, so a log just checkpointed is exactly its header. Fills write
// through an open file description of their own: Linux reports a writeback
// error once per description, so an error the fill's fsync meets on record
// pages appended beside it still fails the commit's fsync. A failed fill
// fsync poisons the log like a failed commit fsync; a failed fill write (a
// full disk, say) clears no error state, so the fill is dropped, cut off
// again and counted, and the log stays writable.
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
// Recovery scans the log, stops at the first torn, corrupt or zero frame (an
// unacknowledged tail, or the runway), and redoes every committed
// transaction. A generation — the log from one truncation to the next —
// starts at creation, at each Checkpoint and at a follower's ResetTo. Its
// header carries the LSN sequence forward and the catalog as of its base LSN,
// the catalog's only durable home. It is written whole beside the log,
// fsynced, renamed over it and the directory fsynced: a crash leaves the old
// log or the new one, each whole.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/exodb/fieldrepl/internal/obs"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

const (
	walMagic = 0x57A1F17E
	// walVersion 2 added pageDelta records (a version-1 log is raised to 2
	// in place; a version-1 binary refuses a version-2 log rather than
	// mistaking its first delta for a torn tail), 3 the header catalog (a
	// version-2 log is read as it is until the next generation).
	walVersion   = 3
	legacyHeader = 16 // magic u32 | version u32 | baseLSN u64: versions 1 and 2
	headerSize   = 24 // legacyHeader | catLen u32 | catCRC u32, then the catalog

	// keepBufBytes is the largest batch buffer kept between appends.
	keepBufBytes = 1 << 20

	// runwayChunk is what one fill adds to the runway, and runwayLow the
	// runway a durable commit must leave for no fill to start.
	runwayChunk = 1 << 20
	runwayLow   = runwayChunk / 2
)

// zeros is the source of every fill's write; nothing writes to it.
var zeros [runwayChunk]byte

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
	// RunwayBytes and RunwayFsyncs count the zeros fills wrote ahead of the
	// append offset and the fsyncs that made them durable; neither is in
	// Bytes or Fsyncs. FillWaits counts appends that waited for a fill to
	// finish before writing into its range, RunwayOutruns appends that ran
	// past the runway's end and grew the file, FillFailures fills dropped
	// because their write failed (the log stays writable).
	RunwayBytes   int64 `json:"runway_bytes"`
	RunwayFsyncs  int64 `json:"runway_fsyncs"`
	FillWaits     int64 `json:"fill_waits"`
	RunwayOutruns int64 `json:"runway_outruns"`
	FillFailures  int64 `json:"fill_failures"`
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

	mu       sync.Mutex // guards f (writes), ff, off, runEnd, fill, nextLSN, appended, pageLSN, buf, states, closed, broken
	f        *os.File
	ff       *os.File    // the generation's file opened again, for fills; nil until its first fill
	off      int64       // append position: end of the valid record prefix
	runEnd   int64       // end of the runway: [off, runEnd) is zeros the file owns; runEnd == off when there is none
	fill     *runwayFill // the fill in flight, nil when none
	nextLSN  uint64
	appended uint64 // highest LSN handed to the OS
	pageLSN  map[pagefile.PageID]pageState
	buf      []byte      // the batch under construction, recycled between appends
	states   []pageState // its pages' new pageLSN entries, installed once it is written
	closed   bool
	// broken is the sticky failure: an append that left bytes it could not
	// truncate away, or a failed fsync of a commit or a fill. Once set, durable
	// never advances again and every append, durability wait and checkpoint
	// returns it; only a reopen clears it.
	broken  error
	fillers sync.WaitGroup // the fill goroutine, joined by Close

	syncMu  sync.Mutex    // serializes commit fsyncs; the group-commit leader lock
	durable atomic.Uint64 // highest LSN known fsync'd

	// Shipping state (guarded by mu). base is the header's base LSN and first
	// the offset of the generation's first record; epoch increments with
	// every new generation, invalidating tail cursors whose file offsets
	// refer to the previous one; durableOff is the file offset covered by the
	// last fsync — the shipping boundary, so a tail reader never ships bytes
	// a crash could take back.
	base       uint64
	first      int64
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

	runwayBytes  atomic.Int64
	runwayFsyncs atomic.Int64
	fillWaits    atomic.Int64
	outruns      atomic.Int64
	fillFailures atomic.Int64
}

// runwayFill is one runway extension: zeros written over [from, to) of f and
// fsynced, by a goroutine of its own.
type runwayFill struct {
	f        *os.File
	from, to int64
	done     chan struct{} // closed once the write and the fsync are over
	// Set before done is closed: wrote once the zeros are written, err when
	// their fsync failed. A failed write leaves both unset.
	wrote bool
	err   error
}

// syncHook, when set, runs before the fsync of a commit (fill false) or of a
// runway fill (fill true); an error it returns stands in for the fsync's.
var syncHook atomic.Pointer[func(fill bool) error]

// SetSyncHook installs h as the sync hook, or removes it when h is nil. It
// exists for tests, which fail or hold a commit's or a fill's fsync with it.
func SetSyncHook(h func(fill bool) error) {
	if h == nil {
		syncHook.Store(nil)
		return
	}
	syncHook.Store(&h)
}

// syncFile fsyncs f, through the sync hook when one is set.
func syncFile(f *os.File, fill bool) error {
	if h := syncHook.Load(); h != nil {
		if err := (*h)(fill); err != nil {
			return err
		}
	}
	return f.Sync()
}

// Open opens (creating if absent) the log at path, replays any committed
// records into store, and returns the manager ready for appends; the
// report's Catalog is the header's, or a later committed record's. Replay
// does not truncate the log: the caller must make the replayed state durable
// (store sync) and then call Checkpoint, so a crash during recovery just
// replays again. A log shorter than its header, or whose header catalog
// fails its checksum, is an error, never a fresh log. A trailing duration
// argument is accepted and ignored: it was the group-commit batching window,
// which no longer exists, and the bench module still passes 0.
func Open(path string, store pagefile.Store, _ ...time.Duration) (*Manager, *RecoveryReport, error) {
	m := &Manager{
		path:      path,
		pageLSN:   make(map[pagefile.PageID]pageState),
		fsyncWait: obs.NewHistogram(),
		notify:    make(chan struct{}),
	}
	rep := &RecoveryReport{}
	// A temp file is a switch a crash cut short: the log is still whole.
	if err := os.Remove(path + ".tmp"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if errors.Is(err, fs.ErrNotExist) {
		if err := m.newGeneration(1, nil); err != nil {
			return nil, nil, err
		}
		return m, rep, nil
	}
	if err != nil {
		return nil, nil, fmt.Errorf("wal: open: %w", err)
	}
	m.f = f
	st, err := f.Stat()
	if err == nil {
		m.base, m.first, err = m.readHeader(st.Size(), rep)
	}
	start := time.Now()
	var last uint64
	if err == nil {
		last, m.off, err = m.replay(store, m.base, m.first, st.Size(), rep)
	}
	rep.Duration = time.Since(start)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	m.nextLSN = last + 1
	m.appended = last
	m.durable.Store(last)
	// Appends resume after the last committed transaction, overwriting what
	// follows it, with no runway. Everything replayed was applied to the
	// store: the valid prefix is the shipping boundary (the caller
	// checkpoints right after).
	m.durableOff, m.runEnd = m.off, m.off
	return m, rep, nil
}

// newGeneration starts a log generation at base whose header carries cat: the
// header is written to a temp file, fsynced and renamed over the log, and the
// directory is fsynced. The caller holds syncMu and mu, or owns m alone.
func (m *Manager) newGeneration(base uint64, cat []byte) error {
	h := make([]byte, headerSize, headerSize+len(cat))
	binary.LittleEndian.PutUint32(h[0:], walMagic)
	binary.LittleEndian.PutUint32(h[4:], walVersion)
	binary.LittleEndian.PutUint64(h[8:], base)
	binary.LittleEndian.PutUint32(h[16:], uint32(len(cat)))
	binary.LittleEndian.PutUint32(h[20:], crc32.ChecksumIEEE(cat))
	h = append(h, cat...)
	tmp := m.path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err == nil {
		if _, err = f.Write(h); err == nil {
			if err = f.Sync(); err == nil {
				err = os.Rename(tmp, m.path)
			}
		}
		if err != nil {
			f.Close()
			_ = os.Remove(tmp) // a leftover goes at the next Open
		}
	}
	if err != nil {
		return fmt.Errorf("wal: new generation: %w", err)
	}
	// Renamed: the new file is the log whatever happens next. A tail reader
	// still holding the old one finds it closed, and the epoch tells it why.
	if m.f != nil {
		m.f.Close()
	}
	if m.ff != nil {
		m.ff.Close()
	}
	m.f, m.ff = f, nil
	m.base, m.first = base, int64(len(h))
	m.off, m.durableOff, m.runEnd = m.first, m.first, m.first
	m.fill = nil // a fill still writing the old file is abandoned
	m.epoch++
	m.pageLSN = make(map[pagefile.PageID]pageState)
	m.nextLSN, m.appended = base, base-1
	m.durable.Store(m.appended)
	m.bytes.Add(int64(len(h)))
	m.fsyncs.Add(2) // the file's and the directory's
	if err := pagefile.SyncDir(filepath.Dir(m.path)); err != nil {
		return fmt.Errorf("wal: new generation: %w", err)
	}
	return nil
}

// readHeader validates the header of a size-byte log, returns the base LSN
// and the offset of the first record, and sets rep.Catalog to the header's
// catalog (none before version 3). A version-1 log holds nothing this
// version cannot read; its version word is raised to 2 in place first, so no
// log ever carries a delta under a header that promises none.
func (m *Manager) readHeader(size int64, rep *RecoveryReport) (uint64, int64, error) {
	short := fmt.Errorf("wal: %s is %d bytes, shorter than its header", m.path, size)
	var h [headerSize]byte
	if size < legacyHeader {
		return 0, 0, short
	}
	if _, err := m.f.ReadAt(h[:min(size, headerSize)], 0); err != nil {
		return 0, 0, fmt.Errorf("wal: read header: %w", err)
	}
	if binary.LittleEndian.Uint32(h[0:]) != walMagic {
		return 0, 0, fmt.Errorf("wal: %s is not a log file", m.path)
	}
	base := binary.LittleEndian.Uint64(h[8:])
	switch v := binary.LittleEndian.Uint32(h[4:]); v {
	case 1:
		binary.LittleEndian.PutUint32(h[4:], 2)
		if _, err := m.f.WriteAt(h[4:8], 4); err != nil {
			return 0, 0, fmt.Errorf("wal: upgrade header: %w", err)
		}
		if err := m.f.Sync(); err != nil {
			return 0, 0, fmt.Errorf("wal: sync header: %w", err)
		}
		m.fsyncs.Add(1)
		fallthrough
	case 2:
		return base, legacyHeader, nil
	case walVersion:
	default:
		return 0, 0, fmt.Errorf("wal: unsupported version %d", v)
	}
	n := int64(binary.LittleEndian.Uint32(h[16:]))
	if size < headerSize+n {
		return 0, 0, short
	}
	if n > 0 {
		rep.Catalog = make([]byte, n)
		if _, err := m.f.ReadAt(rep.Catalog, headerSize); err != nil {
			return 0, 0, fmt.Errorf("wal: read header: %w", err)
		}
	}
	if crc32.ChecksumIEEE(rep.Catalog) != binary.LittleEndian.Uint32(h[20:]) {
		return 0, 0, fmt.Errorf("wal: %s: the header's catalog fails its checksum", m.path)
	}
	return base, headerSize + n, nil
}

// replay scans the size-byte log from offset off, redoing it transaction by
// transaction, and returns the LSN of the last commit record (base-1 if there
// is none) and the file offset just past it. Whole records after it belong to
// an append that tore before its commit record: never acknowledged, never
// shipped, and — the write barrier syncs whole appends — never stamped on a
// page in the store, so both their bytes and their LSNs are free for reuse.
func (m *Manager) replay(store pagefile.Store, base uint64, off, size int64, rep *RecoveryReport) (uint64, int64, error) {
	lastLSN := base - 1
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
	torn, err := m.nonZero(committed, size)
	if err != nil {
		return 0, 0, err
	}
	rep.TornTail = torn
	if err := redo.Flush(); err != nil {
		return 0, 0, err
	}
	return lastLSN, committed, nil
}

// nonZero reports whether any byte of the log in [off, size) is not zero:
// whether something other than runway follows the last commit record.
func (m *Manager) nonZero(off, size int64) (bool, error) {
	buf := make([]byte, min(size-off, 64<<10))
	for ; off < size; off += int64(len(buf)) {
		buf = buf[:min(size-off, int64(len(buf)))]
		if _, err := m.f.ReadAt(buf, off); err != nil {
			return false, fmt.Errorf("wal: replay read: %w", err)
		}
		for _, b := range buf {
			if b != 0 {
				return true, nil
			}
		}
	}
	return false, nil
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
	if m.broken != nil {
		return 0, 0, m.broken
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

	if err := m.write(buf); err != nil {
		// The consumed LSNs are simply skipped; the sequence stays monotone.
		// pageLSN is untouched, so a page stamped above keeps its last real
		// record as the write barrier's target, and its next record is a full
		// image unless the caller restores the image that record described.
		return 0, 0, fmt.Errorf("wal: append: %w", err)
	}
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

// write puts buf at the append offset and moves the offset past it. The
// caller holds mu. An append that would reach into a fill's range waits for
// the fill first, so no record is ever zeroed; one that runs past the
// runway grows the file.
func (m *Manager) write(buf []byte) error {
	end := m.off + int64(len(buf))
	if fl := m.fill; fl != nil && end > fl.from {
		// mu stays held: the batch buffer and the LSNs it took are this
		// append's until it is written. The fill takes mu only after done.
		m.fillWaits.Add(1)
		<-fl.done
		m.endFill(fl)
		if m.broken != nil {
			return m.broken
		}
	}
	if _, err := m.f.WriteAt(buf, m.off); err != nil {
		// A partial append is garbage mid-log: later commits appended after
		// it would be unreachable at replay (the scan stops at the first bad
		// record). Truncate the partial bytes away, and the runway with them;
		// if even that fails, the log can no longer accept commits.
		if terr := m.f.Truncate(m.off); terr != nil {
			m.fail(err)
		}
		m.runEnd = m.off
		return err
	}
	if end > m.runEnd {
		m.runEnd = end
		m.outruns.Add(1)
	}
	m.off = end
	return nil
}

// fail poisons the log with err unless it is poisoned already. The caller
// holds mu.
func (m *Manager) fail(err error) {
	if m.broken == nil {
		m.broken = fmt.Errorf("wal: log poisoned by an earlier failure, reopen to recover: %w", err)
	}
}

// startFill starts the goroutine that extends the runway by runwayChunk. The
// caller holds mu, and no fill is in flight.
func (m *Manager) startFill() {
	if m.ff == nil {
		// m.path names the generation's file: only newGeneration renames
		// over it, and it holds mu.
		ff, err := os.OpenFile(m.path, os.O_WRONLY, 0)
		if err != nil {
			m.fillFailures.Add(1)
			return
		}
		m.ff = ff
	}
	fl := &runwayFill{f: m.ff, from: m.runEnd, to: m.runEnd + runwayChunk, done: make(chan struct{})}
	m.fill = fl
	m.fillers.Add(1)
	go func() {
		defer m.fillers.Done()
		if _, err := fl.f.WriteAt(zeros[:fl.to-fl.from], fl.from); err != nil {
			// No append writes at or past from until done is closed, so
			// cutting the file back there drops only what the fill wrote. If
			// the cut fails, the zeros it leaves read as runway.
			_ = fl.f.Truncate(fl.from)
		} else {
			fl.wrote = true
			m.runwayBytes.Add(fl.to - fl.from)
			if fl.err = syncFile(fl.f, true); fl.err == nil {
				m.runwayFsyncs.Add(1)
			}
		}
		close(fl.done)
		m.mu.Lock()
		m.endFill(fl)
		m.mu.Unlock()
	}()
}

// endFill installs a finished fill as the new runway end. The caller holds
// mu. A fill the log has moved past — installed already by an append that
// waited for it, or abandoned by a new generation — changes nothing. One
// whose fsync failed poisons the log: the pages it could not write may
// include records appended beside it. One whose write failed is dropped,
// and the next durable commit that finds the runway short starts another.
func (m *Manager) endFill(fl *runwayFill) {
	if m.fill != fl {
		return
	}
	m.fill = nil
	switch {
	case fl.err != nil:
		m.fail(fmt.Errorf("wal: runway fill: %w", fl.err))
	case !fl.wrote:
		m.fillFailures.Add(1)
	default:
		m.runEnd = fl.to
	}
}

// WaitDurable blocks until every record up to and including lsn is fsync'd.
// This is the group-commit rendezvous: the first waiter through the sync
// lock fsyncs on behalf of everyone appended so far, and the rest find their
// LSN already durable and return without an fsync of their own.
func (m *Manager) WaitDurable(lsn uint64) error {
	if m.durable.Load() >= lsn {
		return nil
	}
	// The wait is real: time it (the fsync-wait histogram is the "where did
	// my commit's wall time go" decomposition) and track the queue depth.
	m.syncWaits.Add(1)
	m.syncQueue.Add(1)
	start := time.Now()
	shared, err := m.syncTo(lsn)
	m.fsyncWait.Observe(time.Since(start))
	m.syncQueue.Add(-1)
	if shared {
		m.sharedSyncs.Add(1)
	}
	return err
}

// HoldSync takes the group-commit leader lock until release is called:
// committers still append, and every durability wait queues behind the
// held lock, so a test can line a batch up before its one fsync.
func (m *Manager) HoldSync() (release func()) {
	m.syncMu.Lock()
	return m.syncMu.Unlock
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
	if m.broken != nil {
		m.mu.Unlock()
		return false, m.broken
	}
	target := m.appended
	targetOff := m.off
	f := m.f
	m.mu.Unlock()
	if err := syncFile(f, false); err != nil {
		// The kernel may have dropped the pages it could not write and
		// marked them clean, so no later fsync can vouch for them.
		err = fmt.Errorf("wal: fsync: %w", err)
		m.mu.Lock()
		m.fail(err)
		m.mu.Unlock()
		return false, err
	}
	m.fsyncs.Add(1)
	m.durable.Store(target)
	// Publish the new shipping boundary and wake tail readers. The offset is
	// compared because a checkpoint between the capture above and here resets
	// durableOff for the new log generation. A commit that left the runway
	// short is durable now, so the fill it calls for can start.
	m.mu.Lock()
	if targetOff > m.durableOff {
		m.durableOff = targetOff
	}
	close(m.notify)
	m.notify = make(chan struct{})
	if m.fill == nil && m.broken == nil && m.runEnd-m.off < runwayLow {
		m.startFill()
	}
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

// Checkpoint starts a new log generation whose header carries the LSN
// sequence forward and catalog cat. The caller must have flushed and fsync'd
// the data files first: after Checkpoint the log no longer covers them.
//
// When a retain hook is registered (replication shipping) and a consumer
// still needs records this log holds, the switch is deferred: the data files
// are durable, so the write-barrier entries are dropped, but the records —
// and the catalog the generation's header and records hold — stay on disk
// for the shipper. A deferred checkpoint is not an error. Once the log
// outgrows the configured retain bound the switch happens anyway and the
// lagging consumer must full-resync.
func (m *Manager) Checkpoint(cat []byte) error {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.broken != nil {
		return m.broken
	}
	if m.retain != nil {
		if minLSN, ok := m.retain(); ok && minLSN < m.appended && (m.retainBytes <= 0 || m.off <= m.retainBytes) {
			m.pageLSN = make(map[pagefile.PageID]pageState)
			m.ckptDeferred.Add(1)
			return nil
		}
	}
	if err := m.newGeneration(m.nextLSN, cat); err != nil {
		return err
	}
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
		RunwayBytes:         m.runwayBytes.Load(),
		RunwayFsyncs:        m.runwayFsyncs.Load(),
		FillWaits:           m.fillWaits.Load(),
		RunwayOutruns:       m.outruns.Load(),
		FillFailures:        m.fillFailures.Load(),
	}
}

// FsyncWaitHist snapshots the durability-wait histogram: the wall time each
// WaitDurable caller spent between asking for durability and getting it
// (queueing behind the leader + the fsync itself).
func (m *Manager) FsyncWaitHist() obs.HistSnapshot {
	return m.fsyncWait.Snapshot()
}

// Close joins the fill goroutine, then fsyncs and closes the log file; a
// poisoned log is closed without the fsync and reports its failure. Further
// appends fail with ErrClosed.
func (m *Manager) Close() error {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	// Wake tail readers so shipping loops observe the close promptly.
	close(m.notify)
	m.notify = make(chan struct{})
	m.mu.Unlock()
	// The filler takes mu to finish; nothing else touches the file now.
	m.fillers.Wait()
	err := m.broken
	if err == nil {
		err = m.f.Sync()
	}
	if m.ff != nil {
		m.ff.Close()
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}
