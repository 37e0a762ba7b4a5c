package repl

import (
	"encoding/binary"
	"errors"
	"net"
	"runtime"
	"testing"
)

// TestConfigClampsBatchBytes guards the batch/envelope interlock: a batch
// sized at or above the wire payload limit would be rejected by every
// follower before it is read, livelocking the stream (reconnect, resend the
// same oversized batch, reject, forever) with no error on the primary.
func TestConfigClampsBatchBytes(t *testing.T) {
	for _, set := range []int{maxPayload / 2, maxPayload, maxPayload * 4} {
		c := Config{BatchBytes: set}
		c.fill()
		if c.BatchBytes > maxPayload/2 {
			t.Fatalf("BatchBytes %d filled to %d, above the %d clamp", set, c.BatchBytes, maxPayload/2)
		}
	}
	var def Config
	def.fill()
	if def.BatchBytes != 256<<10 {
		t.Fatalf("default BatchBytes = %d, want 256 KiB", def.BatchBytes)
	}
}

// TestSnapshotFrameCannotReserveMemory sends a MsgSnapFile that declares
// 16,384 pages (64 MiB) and ends the snapshot without sending one: the
// follower must refuse the short file, having allocated nothing near what
// the frame asked for.
func TestSnapshotFrameCannotReserveMemory(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	const lsn = 7
	go func() {
		fh := make([]byte, 8, 8+len("big"))
		binary.LittleEndian.PutUint32(fh, 3)
		binary.LittleEndian.PutUint32(fh[4:], 16384)
		if writeMsg(a, MsgSnapFile, append(fh, "big"...)) == nil {
			writeMsg(a, MsgSnapEnd, putU64(lsn))
		}
	}()
	begin := make([]byte, 12)
	binary.LittleEndian.PutUint64(begin, lsn)
	binary.LittleEndian.PutUint32(begin[8:], 1)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := recvSnapshot(b, begin)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadEnvelope) {
		t.Fatalf("recvSnapshot = %v, want ErrBadEnvelope", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("one SnapFile frame allocated %d bytes, want < 1 MiB", grew)
	}
}
