package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// This file is the record layer: framing limits, the frame parser, the
// byte-range delta codec, and the one assembler that turns framed records
// into committed transactions for both consumers of the log — recovery
// replay and the replication follower.

const (
	// RecPage, RecCommit, RecCatalog, RecFileCreate and RecPageDelta are the
	// framed record types.
	RecPage       = 1
	RecCommit     = 2
	RecCatalog    = 3
	RecFileCreate = 4
	RecPageDelta  = 5

	// MaxBodyLen is the one bound on a record body, shared by append and by
	// every scan: AppendCommit refuses to write a larger record, so a length
	// above it read back from disk or from the wire can only be damage. It is
	// sized so that a replication batch overshooting its byte budget by one
	// frame still fits the wire envelope (internal/repl asserts this).
	MaxBodyLen = 2<<20 - 16

	recHeaderLen   = 9                     // u8 type | u64 lsn
	pageHeaderLen  = 8                     // fid u32 | page u32
	deltaHeaderLen = pageHeaderLen + 8 + 2 // ... | prevLSN u64 | n u16
	rangeHeaderLen = 4                     // off u16 | len u16

	// mergeGap is the longest run of equal bytes a delta range absorbs rather
	// than ending: a new range costs rangeHeaderLen bytes, so bridging a gap of
	// up to 8 wastes at most 4 and keeps the range count — and the redo loop —
	// short.
	mergeGap = 8
)

// ErrBadFrame is returned when framed record bytes fail validation (short
// frame, implausible length, CRC mismatch, or a payload that does not match
// its record type's layout).
var ErrBadFrame = errors.New("wal: bad frame")

// Record is one decoded framed record.
type Record struct {
	Type    byte
	LSN     uint64
	Payload []byte // aliases the input buffer of ParseFrame
}

// ParseFrame decodes the first framed record in buf, returning the record
// and the number of bytes the frame occupies. The returned payload aliases
// buf. It fails with ErrBadFrame on a short, oversized, or CRC-corrupt
// frame — a follower treats that as a torn stream and reconnects, recovery
// as the torn tail of the log.
func ParseFrame(buf []byte) (Record, int, error) {
	if len(buf) < 8 {
		return Record{}, 0, fmt.Errorf("%w: short header (%d bytes)", ErrBadFrame, len(buf))
	}
	bodyLen := binary.LittleEndian.Uint32(buf[0:])
	crc := binary.LittleEndian.Uint32(buf[4:])
	if bodyLen < recHeaderLen || bodyLen > MaxBodyLen {
		return Record{}, 0, fmt.Errorf("%w: implausible body length %d", ErrBadFrame, bodyLen)
	}
	if len(buf)-8 < int(bodyLen) {
		return Record{}, 0, fmt.Errorf("%w: truncated body (%d of %d bytes)", ErrBadFrame, len(buf)-8, bodyLen)
	}
	body := buf[8 : 8+bodyLen]
	if crc32.ChecksumIEEE(body) != crc {
		return Record{}, 0, fmt.Errorf("%w: CRC mismatch", ErrBadFrame)
	}
	return Record{Type: body[0], LSN: binary.LittleEndian.Uint64(body[1:]), Payload: body[recHeaderLen:]}, 8 + int(bodyLen), nil
}

// beginRecord opens a framed record of type typ at the end of buf, consuming
// the next LSN; the caller appends the payload and closes it with endRecord.
func (m *Manager) beginRecord(buf []byte, typ byte) ([]byte, int) {
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0, typ)
	buf = binary.LittleEndian.AppendUint64(buf, m.nextLSN)
	m.nextLSN++
	return buf, start
}

// endRecord fills in the length and CRC of the record opened at start.
func endRecord(buf []byte, start int) {
	body := buf[start+8:]
	binary.LittleEndian.PutUint32(buf[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(buf[start+4:], crc32.ChecksumIEEE(body))
}

func appendPageID(buf []byte, pid pagefile.PageID) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(pid.File))
	return binary.LittleEndian.AppendUint32(buf, pid.Page)
}

// --- the byte-range delta ---
//
// A delta is the physical difference between two images of one page: the
// bytes of the after-image wherever it differs from the before-image, as
// sorted, non-overlapping ranges. It knows nothing of slots or B-tree nodes —
// every page format, present and future, is covered by the same few lines,
// and redo is a copy loop. The stamped header words (checksum and LSN) are
// never part of a delta: the store recomputes the first on every write and
// redo stamps the record's own LSN.

// imageCRC is the identity of a page image as the log sees it: a CRC32 of
// every byte outside the stamped header words. Two images with equal LSN and
// equal imageCRC are the same image for the purposes of a delta's base.
func imageCRC(p *pagefile.Page) uint32 {
	crc := crc32.ChecksumIEEE(p[:pagefile.StampStart])
	return crc32.Update(crc, crc32.IEEETable, p[pagefile.StampEnd:])
}

// appendDiff appends the ranges where post differs from pre (outside the
// stamped header words) to buf as n × (off u16 | len u16 | bytes) and returns
// n.
func appendDiff(buf []byte, pre, post *pagefile.Page) ([]byte, int) {
	buf, n := appendDiffSpan(buf, pre, post, 0, pagefile.StampStart)
	buf, m := appendDiffSpan(buf, pre, post, pagefile.StampEnd, pagefile.PageSize)
	return buf, n + m
}

// appendDiffSpan is appendDiff over page bytes [lo, hi). Equal stretches are
// skipped eight bytes at a time.
func appendDiffSpan(buf []byte, pre, post *pagefile.Page, lo, hi int) ([]byte, int) {
	n := 0
	for i := lo; i < hi; {
		if i+8 <= hi && binary.LittleEndian.Uint64(pre[i:]) == binary.LittleEndian.Uint64(post[i:]) {
			i += 8
			continue
		}
		if pre[i] == post[i] {
			i++
			continue
		}
		// A range opens at i and runs to the last differing byte that is
		// followed by more than mergeGap equal ones (or the span's end).
		end := i + 1
		for j := end; j < hi && j-end <= mergeGap; j++ {
			if pre[j] != post[j] {
				end = j + 1
			}
		}
		buf = binary.LittleEndian.AppendUint16(buf, uint16(i))
		buf = binary.LittleEndian.AppendUint16(buf, uint16(end-i))
		buf = append(buf, post[i:end]...)
		n++
		i = end
	}
	return buf, n
}

// checkRanges validates n encoded ranges filling exactly ranges: each must
// lie inside the page and outside the stamped header words, and they must be
// sorted and disjoint. Everything redo relies on is checked here, once, when
// the record is decoded.
func checkRanges(ranges []byte, n int) error {
	next := 0 // lowest offset the next range may start at
	for ; n > 0; n-- {
		if len(ranges) < rangeHeaderLen {
			return fmt.Errorf("%w: delta range count overruns its payload", ErrBadFrame)
		}
		off := int(binary.LittleEndian.Uint16(ranges))
		ln := int(binary.LittleEndian.Uint16(ranges[2:]))
		ranges = ranges[rangeHeaderLen:]
		switch {
		case ln == 0 || ln > len(ranges):
			return fmt.Errorf("%w: delta range of %d bytes with %d left in the payload", ErrBadFrame, ln, len(ranges))
		case off < next:
			return fmt.Errorf("%w: delta ranges unsorted or overlapping at offset %d", ErrBadFrame, off)
		case off+ln > pagefile.PageSize:
			return fmt.Errorf("%w: delta range [%d,%d) outside the page", ErrBadFrame, off, off+ln)
		case off < pagefile.StampEnd && off+ln > pagefile.StampStart:
			return fmt.Errorf("%w: delta range [%d,%d) covers the stamped header words", ErrBadFrame, off, off+ln)
		}
		next = off + ln
		ranges = ranges[ln:]
	}
	if len(ranges) != 0 {
		return fmt.Errorf("%w: %d bytes after the last delta range", ErrBadFrame, len(ranges))
	}
	return nil
}

// applyRanges copies validated ranges onto p.
func applyRanges(p *pagefile.Page, ranges []byte) {
	for len(ranges) > 0 {
		off := int(binary.LittleEndian.Uint16(ranges))
		ln := int(binary.LittleEndian.Uint16(ranges[2:]))
		copy(p[off:off+ln], ranges[rangeHeaderLen:])
		ranges = ranges[rangeHeaderLen+ln:]
	}
}

// --- the assembler ---

// PageRecord is one decoded page record: a full after-image, or a delta
// against the image the page had at PrevLSN.
type PageRecord struct {
	PID pagefile.PageID
	LSN uint64
	// Delta distinguishes the two kinds. Data is the 4096-byte image of a
	// full record, or the validated ranges of a delta; it aliases the buffer
	// the record was decoded from.
	Delta   bool
	PrevLSN uint64
	Data    []byte
}

// Txn is one committed transaction decoded from the log: the records redo
// needs, and (when the assembler keeps them) the verbatim frames a follower
// appends to its own log.
type Txn struct {
	LastLSN uint64 // the commit record's LSN
	Files   []FileCreate
	Pages   []PageRecord
	Catalog []byte // last catalog snapshot in the txn, nil if none
	Raw     []byte // verbatim frames, commit record included; nil unless kept
	Records int
}

// Assembler groups framed records into committed transactions. Records of a
// transaction whose commit record has not arrived are held back across Feed
// calls — shipped batches are sized in bytes and may split a transaction —
// so a consumer only ever sees whole transactions. It is the only decoder of
// record payloads: recovery and the follower both feed it.
type Assembler struct {
	keepRaw bool
	pend    Txn
}

// NewAssembler returns an empty assembler. With keepRaw, each Txn carries a
// copy of its frames.
func NewAssembler(keepRaw bool) *Assembler { return &Assembler{keepRaw: keepRaw} }

// Feed parses every frame in frames and returns the transactions they
// complete, in order. Decoded page data and catalogs alias frames, which the
// caller must leave untouched until the transactions are applied. Any damage
// — a bad frame, an unknown type, a payload that does not fit its type — is
// ErrBadFrame and poisons the assembler: the caller drops it (recovery stops
// at the torn tail; the follower reconnects and is re-sent the transaction).
func (a *Assembler) Feed(frames []byte) ([]Txn, error) {
	var txns []Txn
	for len(frames) > 0 {
		rec, n, err := ParseFrame(frames)
		if err != nil {
			return nil, err
		}
		if a.keepRaw {
			a.pend.Raw = append(a.pend.Raw, frames[:n]...)
		}
		frames = frames[n:]
		a.pend.Records++
		a.pend.LastLSN = rec.LSN
		p := rec.Payload
		switch rec.Type {
		case RecFileCreate:
			if len(p) < 4 {
				return nil, fmt.Errorf("%w: fileCreate payload of %d bytes", ErrBadFrame, len(p))
			}
			a.pend.Files = append(a.pend.Files, FileCreate{
				FID:  pagefile.FileID(binary.LittleEndian.Uint32(p)),
				Name: string(p[4:]),
			})
		case RecPage:
			if len(p) != pageHeaderLen+pagefile.PageSize {
				return nil, fmt.Errorf("%w: page payload of %d bytes", ErrBadFrame, len(p))
			}
			a.pend.Pages = append(a.pend.Pages, PageRecord{PID: payloadPID(p), LSN: rec.LSN, Data: p[pageHeaderLen:]})
		case RecPageDelta:
			if len(p) < deltaHeaderLen {
				return nil, fmt.Errorf("%w: delta payload of %d bytes", ErrBadFrame, len(p))
			}
			pr := PageRecord{
				PID: payloadPID(p), LSN: rec.LSN, Delta: true,
				PrevLSN: binary.LittleEndian.Uint64(p[pageHeaderLen:]),
				Data:    p[deltaHeaderLen:],
			}
			if pr.PrevLSN >= rec.LSN {
				return nil, fmt.Errorf("%w: delta at LSN %d based on LSN %d", ErrBadFrame, rec.LSN, pr.PrevLSN)
			}
			if err := checkRanges(pr.Data, int(binary.LittleEndian.Uint16(p[pageHeaderLen+8:]))); err != nil {
				return nil, err
			}
			a.pend.Pages = append(a.pend.Pages, pr)
		case RecCatalog:
			a.pend.Catalog = p
		case RecCommit:
			txns = append(txns, a.pend)
			a.pend = Txn{}
		default:
			return nil, fmt.Errorf("%w: record type %d", ErrBadFrame, rec.Type)
		}
	}
	return txns, nil
}

func payloadPID(p []byte) pagefile.PageID {
	return pagefile.PageID{
		File: pagefile.FileID(binary.LittleEndian.Uint32(p)),
		Page: binary.LittleEndian.Uint32(p[4:]),
	}
}
