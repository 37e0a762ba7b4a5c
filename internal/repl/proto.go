// Package repl implements single-primary / N-follower physical replication
// by shipping the WAL: a primary-side shipper that tails the durable log and
// frames records over TCP, and a follower-side applier that replays them into
// a read-only database, reconnecting with exponential backoff and resuming
// from its last durable LSN.
//
// The paper replicates fields inside one store to make reads cheap; this
// package extends the same idea across processes, so reads scale to replicas
// and the database survives the loss of the primary (a caught-up follower is
// promoted in its place). Robustness is the design center: the primary never
// stalls its commit path on a dead or lagging follower, and a follower never
// applies bytes that fail CRC validation.
package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"

	"github.com/exodb/fieldrepl/internal/pagefile"
	"github.com/exodb/fieldrepl/internal/wal"
)

// Wire protocol. Every message is an envelope:
//
//	u8 msgType | u32 payloadLen | u32 crc32(payload) | payload
//
// The CRC rejects bytes mangled in flight or by a torn connection; a follower
// that sees a bad envelope drops the connection and reconnects (the WAL
// frames inside MsgRecords carry their own CRCs as a second layer, checked
// again before anything is applied).
const (
	// MsgHello: follower → primary greeting.
	// payload = u32 magic | u32 version | u64 lastLSN.
	MsgHello = byte(iota + 1)
	// MsgDeny: primary → follower rejection; payload = reason string. The
	// follower closes the connection; on ReasonResync it reconnects and the
	// handshake falls back to a snapshot.
	MsgDeny
	// MsgSnapBegin: payload = u64 snapLSN | u32 nFiles | catalog bytes.
	MsgSnapBegin
	// MsgSnapFile: payload = u32 fid | u32 nPages | name bytes.
	MsgSnapFile
	// MsgSnapPages: payload = u32 fid | u32 startPage | u32 count | pages.
	MsgSnapPages
	// MsgSnapEnd: payload = u64 snapLSN (echo; follower verifies).
	MsgSnapEnd
	// MsgStreamBegin: payload = u64 fromLSN — records after this LSN follow.
	MsgStreamBegin
	// MsgRecords: payload = u64 lastLSN | raw WAL frames.
	MsgRecords
	// MsgHeartbeat: payload = u64 primaryDurableLSN. Sent when the stream is
	// idle so the follower can tell a quiet primary from a dead link.
	MsgHeartbeat
	// MsgAck: follower → primary; payload = u64 appliedLSN (durable on the
	// follower).
	MsgAck
)

const (
	protoMagic = 0xF1E7DB01
	// protoVersion 2: MsgRecords may carry pageDelta records, which a
	// version-1 follower would reject as bad frames, forever.
	protoVersion = 2

	// maxPayload bounds a received payload before allocation; snapshots ship
	// pages in batches well under this.
	maxPayload = 4 << 20

	// snapPagesPerMsg is how many pages one MsgSnapPages carries.
	snapPagesPerMsg = 64
)

// ReasonResync is the MsgDeny reason telling a follower its resume LSN has
// been truncated away: reconnect and take a full snapshot.
const ReasonResync = "resync"

// ErrBadEnvelope reports a corrupt wire envelope (short read, implausible
// length, or CRC mismatch). The connection is unusable after it.
var ErrBadEnvelope = errors.New("repl: bad wire envelope")

// ErrDenied wraps a MsgDeny reason from the primary.
var ErrDenied = errors.New("repl: denied by primary")

func writeMsg(w io.Writer, typ byte, payload []byte) error {
	hdr := make([]byte, 9, 9+len(payload))
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(append(hdr, payload...)); err != nil {
		return fmt.Errorf("repl: write %d: %w", typ, err)
	}
	return nil
}

func readMsg(r io.Reader) (byte, []byte, error) {
	var hdr [9]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > maxPayload {
		return 0, nil, fmt.Errorf("%w: payload of %d bytes", ErrBadEnvelope, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return 0, nil, fmt.Errorf("%w: truncated payload: %v", ErrBadEnvelope, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[5:]) {
		return 0, nil, fmt.Errorf("%w: payload CRC mismatch", ErrBadEnvelope)
	}
	return hdr[0], payload, nil
}

func u64(b []byte) (uint64, error) {
	if len(b) < 8 {
		return 0, fmt.Errorf("%w: %d-byte integer payload", ErrBadEnvelope, len(b))
	}
	return binary.LittleEndian.Uint64(b), nil
}

func putU64(v uint64) []byte {
	b := make([]byte, 8)
	binary.LittleEndian.PutUint64(b, v)
	return b
}

// Snapshot is a point-in-time copy of the primary's store at a known LSN: the
// catalog bytes plus every page of every file. Shipping every file (scratch
// query-output files included) keeps file IDs aligned between primary and
// follower, so FileCreate records streamed later land on the same IDs.
type Snapshot struct {
	LSN     uint64
	Catalog []byte
	Files   []SnapshotFile
}

// SnapshotFile is one page file inside a Snapshot.
type SnapshotFile struct {
	FID   pagefile.FileID
	Name  string
	Pages []pagefile.Page
}

// Txn is one committed transaction decoded from the stream by the log's own
// assembler: the decoded records for the apply path and the raw frames for
// the follower's own log.
type Txn = wal.Txn

// A MsgRecords payload is the u64 lastLSN plus a batch that may overshoot
// Config.BatchBytes (clamped to maxPayload/2) by one frame; the largest frame
// the log writes must leave it inside the envelope.
const _ = uint(maxPayload - 8 - maxPayload/2 - (8 + wal.MaxBodyLen))

func sendSnapshot(conn net.Conn, snap *Snapshot) error {
	begin := make([]byte, 12, 12+len(snap.Catalog))
	binary.LittleEndian.PutUint64(begin, snap.LSN)
	binary.LittleEndian.PutUint32(begin[8:], uint32(len(snap.Files)))
	begin = append(begin, snap.Catalog...)
	if err := writeMsg(conn, MsgSnapBegin, begin); err != nil {
		return err
	}
	for _, f := range snap.Files {
		fh := make([]byte, 8, 8+len(f.Name))
		binary.LittleEndian.PutUint32(fh, uint32(f.FID))
		binary.LittleEndian.PutUint32(fh[4:], uint32(len(f.Pages)))
		fh = append(fh, f.Name...)
		if err := writeMsg(conn, MsgSnapFile, fh); err != nil {
			return err
		}
		for start := 0; start < len(f.Pages); start += snapPagesPerMsg {
			end := start + snapPagesPerMsg
			if end > len(f.Pages) {
				end = len(f.Pages)
			}
			batch := make([]byte, 12+(end-start)*pagefile.PageSize)
			binary.LittleEndian.PutUint32(batch, uint32(f.FID))
			binary.LittleEndian.PutUint32(batch[4:], uint32(start))
			binary.LittleEndian.PutUint32(batch[8:], uint32(end-start))
			for i := start; i < end; i++ {
				copy(batch[12+(i-start)*pagefile.PageSize:], f.Pages[i][:])
			}
			if err := writeMsg(conn, MsgSnapPages, batch); err != nil {
				return err
			}
		}
	}
	return writeMsg(conn, MsgSnapEnd, putU64(snap.LSN))
}

// recvSnapshot consumes snapshot messages after a MsgSnapBegin whose payload
// is begin, returning the assembled snapshot.
func recvSnapshot(conn net.Conn, begin []byte) (*Snapshot, error) {
	if len(begin) < 12 {
		return nil, fmt.Errorf("%w: SnapBegin of %d bytes", ErrBadEnvelope, len(begin))
	}
	snap := &Snapshot{
		LSN:     binary.LittleEndian.Uint64(begin),
		Catalog: append([]byte(nil), begin[12:]...),
	}
	nFiles := binary.LittleEndian.Uint32(begin[8:])
	// A file's pages grow as MsgSnapPages batches arrive, so what a frame
	// declares is never allocated ahead of the pages themselves; the count
	// is checked once the file is over, at the next MsgSnapFile or MsgSnapEnd.
	var cur *SnapshotFile
	var declared uint64
	finish := func() error {
		if cur != nil && uint64(len(cur.Pages)) != declared {
			return fmt.Errorf("%w: file %d sent %d of %d pages", ErrBadEnvelope, cur.FID, len(cur.Pages), declared)
		}
		return nil
	}
	for {
		typ, payload, err := readMsg(conn)
		if err != nil {
			return nil, err
		}
		switch typ {
		case MsgSnapFile:
			if len(payload) < 8 {
				return nil, fmt.Errorf("%w: SnapFile of %d bytes", ErrBadEnvelope, len(payload))
			}
			if err := finish(); err != nil {
				return nil, err
			}
			snap.Files = append(snap.Files, SnapshotFile{
				FID:  pagefile.FileID(binary.LittleEndian.Uint32(payload)),
				Name: string(payload[8:]),
			})
			cur = &snap.Files[len(snap.Files)-1]
			declared = uint64(binary.LittleEndian.Uint32(payload[4:]))
		case MsgSnapPages:
			if cur == nil || len(payload) < 12 {
				return nil, fmt.Errorf("%w: SnapPages outside a file", ErrBadEnvelope)
			}
			fid := pagefile.FileID(binary.LittleEndian.Uint32(payload))
			start := binary.LittleEndian.Uint32(payload[4:])
			count := binary.LittleEndian.Uint32(payload[8:])
			if fid != cur.FID || uint64(start) != uint64(len(cur.Pages)) || uint64(start)+uint64(count) > declared ||
				len(payload) != 12+int(count)*pagefile.PageSize {
				return nil, fmt.Errorf("%w: SnapPages shape", ErrBadEnvelope)
			}
			for i := 0; i < int(count); i++ {
				cur.Pages = append(cur.Pages, pagefile.Page(payload[12+i*pagefile.PageSize:][:pagefile.PageSize]))
			}
		case MsgSnapEnd:
			lsn, err := u64(payload)
			if err != nil {
				return nil, err
			}
			if err := finish(); err != nil {
				return nil, err
			}
			if lsn != snap.LSN || uint32(len(snap.Files)) != nFiles {
				return nil, fmt.Errorf("%w: SnapEnd mismatch (lsn %d vs %d, %d files vs %d)",
					ErrBadEnvelope, lsn, snap.LSN, len(snap.Files), nFiles)
			}
			return snap, nil
		case MsgDeny:
			return nil, fmt.Errorf("%w: %s", ErrDenied, payload)
		default:
			return nil, fmt.Errorf("%w: unexpected message %d during snapshot", ErrBadEnvelope, typ)
		}
	}
}
