package wal

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// RecoveryReport summarizes what Open's replay did.
type RecoveryReport struct {
	Commits       int           // committed transactions replayed
	PagesApplied  int           // full page images applied
	DeltasApplied int           // page deltas applied
	PagesSkipped  int           // page records the store already had (disk LSN >= record LSN)
	FilesCreated  int           // missing page files recreated
	TornTail      bool          // the log ends in an unacknowledged append (torn, corrupt, or short of its commit record)
	Catalog       []byte        // last committed catalog snapshot, nil if none logged
	Duration      time.Duration // wall time of the scan and redo
}

// redoCachePages bounds the pages a Redo holds before writing them back: a
// long replay costs one read and one write per page per this many distinct
// pages, and at most 4 MiB of memory.
const redoCachePages = 1024

// Redo re-applies committed transactions to a store. It is what restart
// recovery and the replication follower share, and it is idempotent:
// re-applying an already applied transaction only bumps PagesSkipped.
//
// Pages are read once, patched in memory by every record that touches them,
// and written once by Flush, so N deltas to one page cost one read and one
// write rather than N of each. Until Flush returns, nothing the applied
// transactions changed on existing pages has reached the store.
type Redo struct {
	store pagefile.Store
	rep   *RecoveryReport
	pages map[pagefile.PageID]*redoPage
}

type redoPage struct {
	img   pagefile.Page
	dirty bool
	// corrupt: the store's copy failed its checksum and no full image has
	// replaced it yet. Only a full image can; a delta has nothing to patch.
	corrupt bool
}

// NewRedo returns a Redo over store that counts what it does in rep.
func NewRedo(store pagefile.Store, rep *RecoveryReport) *Redo {
	return &Redo{store: store, rep: rep, pages: make(map[pagefile.PageID]*redoPage)}
}

// ApplyCommitted redoes one committed transaction: recreate missing files,
// then bring each page forward by its record.
//
// A full image replaces the page when the page is older (strictly-less LSN
// comparison: a page with an equal LSN is left alone; pages never logged
// carry LSN 0) or unreadable. A delta applies only to the
// exact image it was cut from — the page's LSN must equal the record's
// PrevLSN — and is skipped when the page is already at or past the record.
// Anything else means the chain of records that rebuilds the page is broken:
// a record is missing between the page and the delta, or the page is corrupt
// and the log holds no full image to restart the chain from. That is an
// error wrapping pagefile.ErrCorruptPage that names the page; guessing would
// serve bytes no committed state ever had.
func (r *Redo) ApplyCommitted(txn *Txn) error {
	for _, fc := range txn.Files {
		if _, err := r.store.FileName(fc.FID); err == nil {
			continue // file survived the crash
		}
		if err := fillFIDGap(r.store, fc.FID, r.rep); err != nil {
			return err
		}
		got, err := r.store.CreateFile(fc.Name)
		if err != nil {
			return fmt.Errorf("wal: replay create file %q: %w", fc.Name, err)
		}
		if got != fc.FID {
			return fmt.Errorf("wal: replay created file %q as %d, log says %d", fc.Name, got, fc.FID)
		}
		r.rep.FilesCreated++
	}
	for i := range txn.Pages {
		rec := &txn.Pages[i]
		pg, err := r.page(rec.PID)
		if err != nil {
			return err
		}
		have := pagefile.PageLSN(&pg.img)
		switch {
		case !rec.Delta && (pg.corrupt || have < rec.LSN):
			copy(pg.img[:], rec.Data)
			pg.corrupt = false
			r.rep.PagesApplied++
		case pg.corrupt:
			return fmt.Errorf("wal: redo page %v: %w: unreadable in the store, and the log's first record for it (LSN %d) is a delta", rec.PID, pagefile.ErrCorruptPage, rec.LSN)
		case have >= rec.LSN:
			r.rep.PagesSkipped++
			continue
		case have != rec.PrevLSN:
			return fmt.Errorf("wal: redo page %v: %w: page is at LSN %d, the delta at LSN %d applies to LSN %d (a record is missing)", rec.PID, pagefile.ErrCorruptPage, have, rec.LSN, rec.PrevLSN)
		default:
			applyRanges(&pg.img, rec.Data)
			r.rep.DeltasApplied++
		}
		pagefile.SetPageLSN(&pg.img, rec.LSN)
		pg.dirty = true
	}
	return nil
}

// page returns the cached image of pid, reading it on first use. The file is
// grown until the page exists: Allocate appends zeroed pages, so intermediate
// pages a crash orphaned scan as empty.
func (r *Redo) page(pid pagefile.PageID) (*redoPage, error) {
	if pg, ok := r.pages[pid]; ok {
		return pg, nil
	}
	if len(r.pages) >= redoCachePages {
		if err := r.Flush(); err != nil {
			return nil, err
		}
	}
	for {
		n, err := r.store.NumPages(pid.File)
		if err != nil {
			return nil, fmt.Errorf("wal: replay file %d: %w", pid.File, err)
		}
		if pid.Page < n {
			break
		}
		if _, err := r.store.Allocate(pid.File); err != nil {
			return nil, fmt.Errorf("wal: replay allocate: %w", err)
		}
	}
	pg := new(redoPage)
	switch err := r.store.ReadPage(pid, &pg.img); {
	case err == nil:
	case errors.Is(err, pagefile.ErrCorruptPage):
		// Torn or bit-flipped on disk. What was read is not a page: forget it.
		pg.img = pagefile.Page{}
		pg.corrupt = true
	default:
		return nil, fmt.Errorf("wal: replay read page %v: %w", pid, err)
	}
	r.pages[pid] = pg
	return pg, nil
}

// Flush writes every page the applied transactions changed and empties the
// cache. The caller still owes the store a sync before it forgets the log.
func (r *Redo) Flush() error {
	pids := make([]pagefile.PageID, 0, len(r.pages))
	for pid, pg := range r.pages {
		if pg.dirty {
			pids = append(pids, pid)
		}
	}
	// In page order: the same replay performs the same I/O every time, and a
	// disk sees mostly sequential writes.
	sort.Slice(pids, func(i, j int) bool { return pids[i].Less(pids[j]) })
	for _, pid := range pids {
		pg := r.pages[pid]
		if err := r.store.WritePage(pid, &pg.img); err != nil {
			return fmt.Errorf("wal: replay write page %v: %w", pid, err)
		}
		pg.dirty = false
	}
	clear(r.pages)
	return nil
}

// fillFIDGap grows the store's file-ID sequence with placeholder files until
// the next CreateFile lands on fid. The log can reference IDs the store never
// allocated: unlogged scratch files (query outputs) consume IDs without a
// FileCreate record, and on a replica those files never exist at all. Both
// replay paths — restart recovery in Open and live follower apply — must
// burn the same IDs so a logged FileCreate lands where the log says; sharing
// this helper is what keeps a crash between a follower's log append and its
// store apply recoverable.
func fillFIDGap(store pagefile.Store, fid pagefile.FileID, rep *RecoveryReport) error {
	next := pagefile.FileID(1)
	for {
		if _, err := store.FileName(next); errors.Is(err, pagefile.ErrNoSuchFile) {
			break
		} else if err != nil {
			return fmt.Errorf("wal: replay probe file %d: %w", next, err)
		}
		next++
	}
	for ; next < fid; next++ {
		got, err := store.CreateFile(fmt.Sprintf("__repl_gap_%d", next))
		if err != nil {
			return fmt.Errorf("wal: replay gap file %d: %w", next, err)
		}
		if got != next {
			return fmt.Errorf("wal: replay gap file created as %d, expected %d", got, next)
		}
		rep.FilesCreated++
	}
	return nil
}
