package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// This file is the shipping side of the log: a tail reader that streams the
// durable record prefix to replication followers, the raw-append path a
// follower uses to persist received frames into its own log, and the
// retain interlock that keeps Checkpoint from truncating records a connected
// follower still needs.

// ErrTruncated is returned by ReadTail when the records after the cursor's
// LSN have been truncated away by a checkpoint: the consumer can no longer
// catch up from the log and must full-resync from a snapshot.
var ErrTruncated = errors.New("wal: records truncated away")

// Cursor is a tail reader's position: the last LSN already consumed plus the
// file offset and log generation it was read at. The zero offset/epoch state
// produced by CursorAt forces ReadTail to revalidate against the current log
// before reading.
type Cursor struct {
	LSN   uint64
	off   int64
	epoch uint64
	valid bool
}

// CursorAt returns a cursor that resumes reading after lsn.
func (m *Manager) CursorAt(lsn uint64) Cursor { return Cursor{LSN: lsn} }

// ReadTail reads durable framed records after c.LSN, up to roughly maxBytes,
// advancing the cursor. An empty result means the consumer is caught up with
// the durable prefix. It fails with ErrTruncated when a checkpoint has
// truncated records the cursor still needs — the consumer must resync.
//
// The file is read outside the manager lock (concurrent appends use
// positional writes past the durable boundary, so the bytes below it are
// stable); a truncation that races the read is detected by re-checking the
// log generation before returning, so a reader can never hand out frames
// from a mixed generation.
func (m *Manager) ReadTail(c *Cursor, maxBytes int) ([]byte, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	base, epoch, durOff := m.base, m.epoch, m.durableOff
	f := m.f
	m.mu.Unlock()

	if !c.valid || c.epoch != epoch {
		// First read, or the log was truncated/reset since the last one:
		// offsets are meaningless, so rescan from the header. Records below
		// the current base are gone for good.
		if c.LSN+1 < base {
			return nil, fmt.Errorf("%w: need LSN %d, log starts at %d", ErrTruncated, c.LSN+1, base)
		}
		c.off, c.epoch, c.valid = headerSize, epoch, true
	}

	var out []byte
	off, lsn := c.off, c.LSN
	var frame [8]byte
	for off < durOff && len(out) < maxBytes {
		if _, err := f.ReadAt(frame[:], off); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break // racing truncation; the epoch re-check below rejects it
			}
			return nil, fmt.Errorf("wal: tail read: %w", err)
		}
		bodyLen := binary.LittleEndian.Uint32(frame[0:])
		if bodyLen < recHeaderLen || bodyLen > MaxBodyLen || off+8+int64(bodyLen) > durOff {
			break // torn tail or racing truncation
		}
		buf := make([]byte, 8+bodyLen)
		copy(buf, frame[:])
		if _, err := f.ReadAt(buf[8:], off+8); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				break
			}
			return nil, fmt.Errorf("wal: tail read: %w", err)
		}
		recLSN := binary.LittleEndian.Uint64(buf[9:])
		if recLSN > lsn {
			out = append(out, buf...)
			lsn = recLSN
		}
		off += 8 + int64(bodyLen)
	}

	// Reject the read if the log generation changed underneath it: the bytes
	// may mix records from before and after a truncation.
	m.mu.Lock()
	stale := m.epoch != epoch
	m.mu.Unlock()
	if stale {
		c.valid = false
		return nil, nil
	}
	c.off, c.LSN = off, lsn
	return out, nil
}

// WaitDurableAbove blocks until the durable LSN exceeds after, the timeout
// elapses, or the log closes, returning the current durable LSN. Shipping
// loops use it to sleep between batches without polling.
func (m *Manager) WaitDurableAbove(after uint64, timeout time.Duration) uint64 {
	deadline := time.Now().Add(timeout)
	for {
		if d := m.durable.Load(); d > after {
			return d
		}
		m.mu.Lock()
		if m.closed {
			m.mu.Unlock()
			return m.durable.Load()
		}
		ch := m.notify
		m.mu.Unlock()
		if d := m.durable.Load(); d > after {
			return d
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return m.durable.Load()
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
			t.Stop()
		case <-t.C:
			return m.durable.Load()
		}
	}
}

// AppendRaw appends pre-framed records received from a primary verbatim.
// The caller (the follower applier) has already verified the framing and
// CRCs and guarantees the frames end at lastLSN and continue the local LSN
// sequence (gaps are fine — the primary skips LSNs on failed appends). A
// transaction already in the log (lastLSN at or below the appended frontier)
// is dropped as a duplicate: the primary re-sends from the follower's
// *applied* position, which trails the log when an apply failed after the
// append. The bytes are not durable until WaitDurable(lastLSN) returns.
func (m *Manager) AppendRaw(frames []byte, lastLSN uint64, nRecords, nCommits int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.broken {
		return errors.New("wal: log poisoned by an earlier failed append")
	}
	if lastLSN <= m.appended {
		return nil // duplicate of an already-appended transaction
	}
	if _, err := m.f.WriteAt(frames, m.off); err != nil {
		if terr := m.f.Truncate(m.off); terr != nil {
			m.broken = true
		}
		return fmt.Errorf("wal: raw append: %w", err)
	}
	m.off += int64(len(frames))
	m.appended = lastLSN
	m.nextLSN = lastLSN + 1
	m.records.Add(int64(nRecords))
	m.commits.Add(int64(nCommits))
	m.bytes.Add(int64(len(frames)))
	return nil
}

// ResetTo truncates the log and restarts the LSN sequence at next. A
// follower calls it after installing a snapshot taken at LSN next-1: the
// store now embodies everything up to the snapshot, and the log will hold
// only records streamed after it.
func (m *Manager) ResetTo(next uint64) error {
	m.syncMu.Lock()
	defer m.syncMu.Unlock()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if err := m.writeHeader(next); err != nil {
		return err
	}
	m.off = headerSize
	m.pageLSN = make(map[pagefile.PageID]pageState)
	m.nextLSN = next
	m.appended = next - 1
	m.durable.Store(m.appended)
	m.broken = false
	return nil
}

// SetRetain registers the truncation interlock: f reports the minimum LSN a
// log consumer still needs (ok=false when there is no consumer), and
// maxBytes bounds how large the log may grow on a lagging consumer's behalf
// before Checkpoint truncates anyway (0 = unbounded). Pass a nil f to
// unregister.
func (m *Manager) SetRetain(f func() (uint64, bool), maxBytes int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.retain = f
	m.retainBytes = maxBytes
}

// BaseLSN returns the current header base LSN: the first LSN the log can
// still serve. Records below it have been truncated by checkpoints.
func (m *Manager) BaseLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.base
}

// LastLSN returns the highest LSN handed to the OS (appended, not
// necessarily durable).
func (m *Manager) LastLSN() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.appended
}

// DurableLSN returns the highest LSN known fsync'd.
func (m *Manager) DurableLSN() uint64 { return m.durable.Load() }

// Size returns the log's current append offset in bytes (header included).
func (m *Manager) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.off
}
