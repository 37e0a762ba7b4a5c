package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"
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
// stable). A new generation closes the file it replaces, so a read racing
// one fails; the log generation is re-checked before returning, and a
// changed one turns the read into a stale result, so a reader can never
// hand out frames from a mixed generation.
func (m *Manager) ReadTail(c *Cursor, maxBytes int) ([]byte, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, ErrClosed
	}
	base, first, epoch, durOff := m.base, m.first, m.epoch, m.durableOff
	f := m.f
	m.mu.Unlock()

	if !c.valid || c.epoch != epoch {
		// First read, or a new generation since the last one: offsets are
		// meaningless, so rescan from its first record. Records below the
		// current base are gone for good.
		if c.LSN+1 < base {
			return nil, fmt.Errorf("%w: need LSN %d, log starts at %d", ErrTruncated, c.LSN+1, base)
		}
		c.off, c.epoch, c.valid = first, epoch, true
	}

	var out []byte
	var rerr error
	off, lsn := c.off, c.LSN
	var frame [8]byte
	for off < durOff && len(out) < maxBytes {
		if _, rerr = f.ReadAt(frame[:], off); rerr != nil {
			break
		}
		bodyLen := binary.LittleEndian.Uint32(frame[0:])
		if bodyLen < recHeaderLen || bodyLen > MaxBodyLen || off+8+int64(bodyLen) > durOff {
			break // torn tail
		}
		buf := make([]byte, 8+bodyLen)
		copy(buf, frame[:])
		if _, rerr = f.ReadAt(buf[8:], off+8); rerr != nil {
			break
		}
		recLSN := binary.LittleEndian.Uint64(buf[9:])
		if recLSN > lsn {
			out = append(out, buf...)
			lsn = recLSN
		}
		off += 8 + int64(bodyLen)
	}

	m.mu.Lock()
	stale := m.epoch != epoch
	m.mu.Unlock()
	if stale {
		c.valid = false
		return nil, nil
	}
	if rerr != nil {
		return nil, fmt.Errorf("wal: tail read: %w", rerr)
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

// AppendRaw appends one committed transaction received from a primary, its
// frames verbatim (txn.Raw, as an Assembler that keeps them decoded it). The
// caller (the follower applier) guarantees the frames continue the local LSN
// sequence (gaps are fine — the primary skips LSNs on failed appends). A
// transaction already in the log (LastLSN at or below the appended frontier)
// is dropped as a duplicate: the primary re-sends from the follower's
// *applied* position, which trails the log when an apply failed after the
// append. The counters move as the primary's did when it appended the
// transaction. The bytes are not durable until WaitDurable(txn.LastLSN)
// returns.
func (m *Manager) AppendRaw(txn *Txn) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	if m.broken != nil {
		return m.broken
	}
	if txn.LastLSN <= m.appended {
		return nil // duplicate of an already-appended transaction
	}
	if err := m.write(txn.Raw); err != nil {
		return fmt.Errorf("wal: raw append: %w", err)
	}
	m.appended = txn.LastLSN
	m.nextLSN = txn.LastLSN + 1
	m.records.Add(int64(txn.Records))
	m.commits.Add(1)
	m.bytes.Add(int64(len(txn.Raw)))
	for i := range txn.Pages {
		if txn.Pages[i].Delta {
			m.deltas.Add(1)
		} else {
			m.fullImages.Add(1)
		}
	}
	return nil
}

// ResetTo starts a new log generation at LSN next whose header carries
// catalog cat. A follower calls it after installing a snapshot taken at LSN
// next-1: the store now embodies everything up to the snapshot, cat is the
// snapshot's catalog, and the log will hold only records streamed after it.
func (m *Manager) ResetTo(next uint64, cat []byte) error {
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
	return m.newGeneration(next, cat)
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

// Err returns the log's sticky failure: nil while it is healthy, and once an
// fsync of the log has failed, or an append left bytes it could not cut
// away, the error every later append, durability wait and checkpoint returns
// until the log is reopened.
func (m *Manager) Err() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.broken
}

// DurableLSN returns the highest LSN known fsync'd.
func (m *Manager) DurableLSN() uint64 { return m.durable.Load() }

// Size returns the log's current append offset in bytes (header included);
// the file is longer by its runway.
func (m *Manager) Size() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.off
}
