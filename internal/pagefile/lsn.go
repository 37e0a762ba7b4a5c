package pagefile

import "encoding/binary"

// Page LSN. Bytes 16-23 of the page header hold the log sequence number of
// the last WAL record that carried this page's image. The slot is zero on
// pages that have never been logged (fresh allocations, pages written outside
// a transaction, and every page in a database that runs without a WAL).
//
// Header geography: bytes 0-11 belong to the slotted-page layout (magic,
// flags, slot count, data start, next-page link), bytes 12-15 hold the CRC32
// checksum, bytes 16-23 hold the LSN, and the remainder up to PageHeaderSize
// is reserved. B-tree nodes reuse the same 0-11/12-15/16-23 split.
const lsnOff = 16

// StampStart and StampEnd bound the header bytes that are stamped onto a page
// after its content is final — the checksum word by the store on every write,
// the LSN by the log on every record — and so are never part of the content
// two images of a page are compared by.
const (
	StampStart = checksumOff
	StampEnd   = lsnOff + 8
)

// PageLSN returns the LSN stamped into p's header, or zero if the page has
// never carried a WAL record.
func PageLSN(p *Page) uint64 {
	return binary.LittleEndian.Uint64(p[lsnOff:])
}

// SetPageLSN stamps lsn into p's header. Callers must do this before the
// page image is handed to WritePage so the on-disk checksum covers it.
func SetPageLSN(p *Page, lsn uint64) {
	binary.LittleEndian.PutUint64(p[lsnOff:], lsn)
}
