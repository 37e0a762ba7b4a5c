package wal

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// frame builds one well-formed shipping frame, the seed corpus's shape.
func frame(typ byte, lsn uint64, payload []byte) []byte {
	body := make([]byte, 9+len(payload))
	body[0] = typ
	binary.LittleEndian.PutUint64(body[1:], lsn)
	copy(body[9:], payload)
	out := make([]byte, 8+len(body))
	binary.LittleEndian.PutUint32(out[0:], uint32(len(body)))
	binary.LittleEndian.PutUint32(out[4:], crc32.ChecksumIEEE(body))
	copy(out[8:], body)
	return out
}

// deltaPayload builds a pageDelta payload with the given range count and
// already-encoded ranges.
func deltaPayload(prev uint64, n int, ranges []byte) []byte {
	p := make([]byte, deltaHeaderLen, deltaHeaderLen+len(ranges))
	binary.LittleEndian.PutUint32(p[0:], 3)
	binary.LittleEndian.PutUint32(p[4:], 7)
	binary.LittleEndian.PutUint64(p[8:], prev)
	binary.LittleEndian.PutUint16(p[16:], uint16(n))
	return append(p, ranges...)
}

// span encodes one delta range.
func span(off, ln int, fill byte) []byte {
	out := binary.LittleEndian.AppendUint16(nil, uint16(off))
	out = binary.LittleEndian.AppendUint16(out, uint16(ln))
	for i := 0; i < ln && i < pagefile.PageSize; i++ {
		out = append(out, fill)
	}
	return out
}

// FuzzWALFrame throws arbitrary bytes at the frame parser and the record
// assembler recovery and a follower run on everything they read. The contract
// under fuzz: never panic, never accept a frame whose CRC does not match,
// never report a frame extending past the input, reject damage as ErrBadFrame,
// and hand redo only page records it can apply blindly — a full image of
// exactly one page, or delta ranges inside the page.
func FuzzWALFrame(f *testing.F) {
	pagePayload := make([]byte, 8+pagefile.PageSize)
	binary.LittleEndian.PutUint32(pagePayload[0:], 3)
	binary.LittleEndian.PutUint32(pagePayload[4:], 7)
	f.Add(frame(RecPage, 42, pagePayload))
	f.Add(frame(RecCommit, 43, nil))
	f.Add(frame(RecFileCreate, 44, append([]byte{5, 0, 0, 0}, "emp"...)))
	f.Add(frame(RecCatalog, 45, []byte(`{"sets":[]}`)))
	// Damaged variants: truncated, CRC-flipped, zero-length body.
	f.Add(frame(RecCommit, 46, nil)[:9])
	bad := frame(RecCommit, 47, nil)
	bad[4] ^= 0xFF
	f.Add(bad)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0})
	// Deltas: empty, two ranges, and each way a range list can lie.
	f.Add(frame(RecPageDelta, 50, deltaPayload(49, 0, nil)))
	f.Add(frame(RecPageDelta, 51, deltaPayload(50, 2, append(span(40, 8, 1), span(4000, 96, 2)...))))
	f.Add(frame(RecPageDelta, 52, deltaPayload(51, 1, span(4090, 8, 3))))                            // past the page
	f.Add(frame(RecPageDelta, 53, deltaPayload(52, 2, append(span(100, 8, 4), span(104, 8, 5)...)))) // overlapping
	f.Add(frame(RecPageDelta, 54, deltaPayload(53, 2, append(span(200, 8, 6), span(100, 8, 7)...)))) // unsorted
	f.Add(frame(RecPageDelta, 55, deltaPayload(54, 3, span(40, 8, 8))))                              // count overruns
	f.Add(frame(RecPageDelta, 56, deltaPayload(55, 1, span(10, 8, 9))))                              // over the stamped words

	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := ParseFrame(data)
		if err != nil {
			return
		}
		if n < 17 || n > len(data) {
			t.Fatalf("frame size %d out of bounds for %d input bytes", n, len(data))
		}
		body := data[8:n]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(data[4:]) {
			t.Fatal("accepted a frame whose CRC does not match")
		}
		asm := NewAssembler(true)
		if _, err := asm.Feed(data[:n]); err != nil {
			if !errors.Is(err, ErrBadFrame) {
				t.Fatalf("assembler rejected a CRC-valid frame with %v, want ErrBadFrame", err)
			}
			return
		}
		// Close the transaction and redo whatever it carried onto a blank page.
		txns, err := asm.Feed(frame(RecCommit, rec.LSN+1, nil))
		if rec.Type == RecCommit {
			return
		}
		if err != nil || len(txns) != 1 {
			t.Fatalf("commit after an accepted record: %d txns, err %v", len(txns), err)
		}
		for _, pr := range txns[0].Pages {
			if pr.LSN != rec.LSN {
				t.Fatal("decoded page record lost its LSN")
			}
			if pr.Delta {
				var scratch pagefile.Page
				applyRanges(&scratch, pr.Data)
			} else if len(pr.Data) != pagefile.PageSize {
				t.Fatalf("full image of %d bytes", len(pr.Data))
			}
		}
	})
}

// header builds a log header: the legacy 16 bytes for versions 1 and 2, the
// catalog-carrying form after them.
func header(version uint32, base uint64, cat []byte) []byte {
	h := binary.LittleEndian.AppendUint32(nil, walMagic)
	h = binary.LittleEndian.AppendUint32(h, version)
	h = binary.LittleEndian.AppendUint64(h, base)
	if version < 3 {
		return h
	}
	h = binary.LittleEndian.AppendUint32(h, uint32(len(cat)))
	h = binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(cat))
	return append(h, cat...)
}

// FuzzOpen hands Open arbitrary bytes as the log file: it returns an error or
// a log that takes an append, and never panics.
func FuzzOpen(f *testing.F) {
	commit := frame(RecCommit, 2, nil)
	f.Add([]byte{})
	f.Add(header(2, 1, nil))
	f.Add(append(header(1, 1, nil), append(frame(RecCatalog, 1, []byte(`{"v":1}`)), commit...)...))
	f.Add(append(header(walVersion, 1, []byte(`{"sets":[]}`)), append(frame(RecFileCreate, 1, append([]byte{1, 0, 0, 0}, "emp"...)), commit...)...))
	f.Add(header(walVersion, 7, []byte(`{"sets":[]}`))[:headerSize+3])
	bad := header(walVersion, 7, []byte("cat"))
	bad[20] ^= 1
	f.Add(bad)

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "wal.log")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		m, _, err := Open(path, pagefile.NewMemStore())
		if err != nil {
			return
		}
		defer m.Close()
		if _, _, err := m.AppendCommit(nil, nil, []byte("cat")); err != nil {
			t.Fatalf("append to an opened log: %v", err)
		}
	})
}
