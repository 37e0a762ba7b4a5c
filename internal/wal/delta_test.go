package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/exodb/fieldrepl/internal/btree"
	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

// sameContent compares two images outside the stamped header words.
func sameContent(a, b *pagefile.Page) bool {
	return bytes.Equal(a[:pagefile.StampStart], b[:pagefile.StampStart]) &&
		bytes.Equal(a[pagefile.StampEnd:], b[pagefile.StampEnd:])
}

// roundTrip cuts the delta pre -> post, validates it the way the assembler
// does, applies it to a copy of pre, and fails unless that reproduces post.
// It returns the encoded size.
func roundTrip(t *testing.T, pre, post *pagefile.Page, label string) int {
	t.Helper()
	ranges, n := appendDiff(nil, pre, post)
	if err := checkRanges(ranges, n); err != nil {
		t.Fatalf("%s: encoder produced ranges the decoder rejects: %v", label, err)
	}
	got := *pre
	applyRanges(&got, ranges)
	if !sameContent(&got, post) {
		t.Fatalf("%s: pre + delta (%d ranges, %d bytes) is not post", label, n, len(ranges))
	}
	if n == 0 != sameContent(pre, post) {
		t.Fatalf("%s: %d ranges for images that differ=%v", label, n, !sameContent(pre, post))
	}
	return len(ranges)
}

// randomSlotted fills a slotted page with random records.
func randomSlotted(rng *rand.Rand) pagefile.Page {
	var p pagefile.Page
	s := pagefile.InitSlotted(&p)
	for {
		rec := make([]byte, 8+rng.Intn(120))
		rng.Read(rec)
		if _, err := s.Insert(rec); err != nil {
			return p
		}
		if rng.Intn(40) == 0 {
			return p
		}
	}
}

// TestDeltaRoundTripSlotted is the codec's property: for random edits to a
// random slotted page — none, one field, many records, the whole page —
// diff then apply on the pre-image gives the post-image.
func TestDeltaRoundTripSlotted(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 300; trial++ {
		pre := randomSlotted(rng)
		pagefile.SetPageLSN(&pre, uint64(trial))
		post := pre
		s := pagefile.AsSlotted(&post)
		edits := []int{0, 1, 2 + rng.Intn(30), -1}[trial%4]
		if edits < 0 {
			rng.Read(post[:]) // every byte changes, stamped words included
		}
		for e := 0; e < edits; e++ {
			slot := uint16(rng.Intn(int(s.NumSlots())))
			kind := rng.Intn(4)
			if edits == 1 {
				kind = 0
			}
			switch kind {
			case 0: // one int inside a record, the benchmark's write
				if rec, err := s.Read(slot); err == nil && len(rec) >= 8 {
					binary.LittleEndian.PutUint64(rec[rng.Intn(len(rec)-7):], rng.Uint64())
				}
			case 1:
				_ = s.Delete(slot)
			case 2:
				rec := make([]byte, 8+rng.Intn(120))
				rng.Read(rec)
				_ = s.Update(slot, rec) // may move the record or compact the page
			case 3:
				rec := make([]byte, 8+rng.Intn(60))
				rng.Read(rec)
				_, _ = s.Insert(rec)
			}
		}
		// The stamps move under every real commit; the delta must not see them.
		pagefile.SetPageLSN(&post, uint64(trial)+1)
		pagefile.StampChecksum(&post)
		size := roundTrip(t, &pre, &post, fmt.Sprintf("trial %d (%d edits)", trial, edits))
		if edits == 1 && size > 256 {
			t.Fatalf("trial %d: one edit encoded as %d bytes", trial, size)
		}
	}
}

// TestDeltaRoundTripBTree runs the same property over real B-tree pages: the
// images of every page of a small tree before and after a burst of inserts
// and deletes (splits, merges and meta-page updates included).
func TestDeltaRoundTripBTree(t *testing.T) {
	store := pagefile.NewMemStore()
	pool := buffer.New(store, 64)
	tree, err := btree.Create(pool, "ix", btree.WithCapacities(8, 8))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := func() []pagefile.Page {
		if err := pool.FlushAll(); err != nil {
			t.Fatal(err)
		}
		n, err := store.NumPages(tree.FileID())
		if err != nil {
			t.Fatal(err)
		}
		pages := make([]pagefile.Page, n)
		if err := store.ReadPages(tree.FileID(), 0, pages); err != nil {
			t.Fatal(err)
		}
		return pages
	}
	rng := rand.New(rand.NewSource(7))
	live := map[int64]bool{}
	changed := 0
	for round := 0; round < 40; round++ {
		before := snapshot()
		for op := 0; op < 1+rng.Intn(12); op++ {
			k := int64(rng.Intn(200))
			oid := pagefile.OID{File: 9, Page: uint32(k), Slot: 1}
			if live[k] {
				if err := tree.Delete(btree.Int64Key(k), oid); err != nil {
					t.Fatal(err)
				}
			} else if err := tree.Insert(btree.Int64Key(k), oid); err != nil {
				t.Fatal(err)
			}
			live[k] = !live[k]
		}
		after := snapshot()
		for i := range before {
			if roundTrip(t, &before[i], &after[i], fmt.Sprintf("round %d page %d", round, i)) > 0 {
				changed++
			}
		}
	}
	if changed == 0 {
		t.Fatal("no B-tree page ever changed; the property was not exercised")
	}
}

// TestDeltaPayloadValidation: every way a range list can lie is ErrBadFrame
// from the assembler, before redo ever sees it.
func TestDeltaPayloadValidation(t *testing.T) {
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	cases := []struct {
		name    string
		payload []byte
		ok      bool
	}{
		{"empty delta", deltaPayload(9, 0, nil), true},
		{"two ranges", deltaPayload(9, 2, cat(span(40, 8, 1), span(4000, 96, 2))), true},
		{"adjacent ranges", deltaPayload(9, 2, cat(span(100, 8, 1), span(108, 8, 2))), true},
		{"range up to the stamped words", deltaPayload(9, 1, span(0, pagefile.StampStart, 1)), true},
		{"short header", deltaPayload(9, 0, nil)[:deltaHeaderLen-1], false},
		{"range outside the page", deltaPayload(9, 1, span(4090, 8, 3)), false},
		{"overlapping ranges", deltaPayload(9, 2, cat(span(100, 8, 4), span(104, 8, 5))), false},
		{"unsorted ranges", deltaPayload(9, 2, cat(span(200, 8, 6), span(100, 8, 7))), false},
		{"count overruns the payload", deltaPayload(9, 3, span(40, 8, 8)), false},
		{"count short of the payload", deltaPayload(9, 1, cat(span(40, 8, 8), span(80, 8, 8))), false},
		{"range over the checksum word", deltaPayload(9, 1, span(10, 4, 9)), false},
		{"range over the LSN", deltaPayload(9, 1, span(20, 8, 9)), false},
		{"zero-length range", deltaPayload(9, 1, span(40, 0, 0)), false},
		{"length past its bytes", deltaPayload(9, 1, span(40, 8, 1)[:8]), false},
		{"based on its own LSN", deltaPayload(10, 0, nil), false},
	}
	for _, tc := range cases {
		_, err := NewAssembler(false).Feed(frame(RecPageDelta, 10, tc.payload))
		if tc.ok && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && !errors.Is(err, ErrBadFrame) {
			t.Errorf("%s: err = %v, want ErrBadFrame", tc.name, err)
		}
	}
}

// scopeLog drives a Manager the way a committing scope does: it owns the
// current image of each page and hands the log that image beside a copy of
// the one before.
type scopeLog struct {
	t   *testing.T
	m   *Manager
	cur map[pagefile.PageID]*pagefile.Page
}

func newScopeLog(t *testing.T, m *Manager) *scopeLog {
	return &scopeLog{t: t, m: m, cur: map[pagefile.PageID]*pagefile.Page{}}
}

// commit applies edit to each page and appends the transaction, returning the
// commit LSN. A page seen for the first time has no before-image.
func (s *scopeLog) commit(edit func(pid pagefile.PageID, p *pagefile.Page), pids ...pagefile.PageID) uint64 {
	s.t.Helper()
	refs := make([]PageRef, len(pids))
	for i, pid := range pids {
		refs[i].PID = pid
		if s.cur[pid] == nil {
			s.cur[pid] = new(pagefile.Page)
		} else {
			pre := *s.cur[pid]
			refs[i].Pre = &pre
		}
		edit(pid, s.cur[pid])
		refs[i].Post = s.cur[pid]
	}
	lsn, _, err := s.m.AppendPages(nil, refs, nil)
	if err != nil {
		s.t.Fatal(err)
	}
	if err := s.m.WaitDurable(lsn); err != nil {
		s.t.Fatal(err)
	}
	return lsn
}

// poke is the one-field update: eight bytes at a fixed place in the page.
func poke(v uint64) func(pagefile.PageID, *pagefile.Page) {
	return func(_ pagefile.PageID, p *pagefile.Page) {
		binary.LittleEndian.PutUint64(p[1000:], v)
	}
}

// kinds reports how many full images and deltas m has encoded.
func kinds(m *Manager) (full, delta int64) {
	st := m.Stats()
	return st.FullImages, st.DeltaRecords
}

// txnFrames reads the whole durable log back as one frame slice per
// committed transaction.
func txnFrames(t *testing.T, m *Manager) [][]byte {
	t.Helper()
	cur := m.CursorAt(m.BaseLSN() - 1)
	buf, err := m.ReadTail(&cur, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	txns, err := NewAssembler(true).Feed(buf)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]byte, len(txns))
	for i := range txns {
		out[i] = txns[i].Raw
	}
	return out
}

// writeLog writes a log file by hand: header, then the given frames.
func writeLog(t *testing.T, path string, version uint32, base uint64, frames ...[]byte) {
	t.Helper()
	h := make([]byte, headerSize)
	binary.LittleEndian.PutUint32(h[0:], walMagic)
	binary.LittleEndian.PutUint32(h[4:], version)
	binary.LittleEndian.PutUint64(h[8:], base)
	if err := os.WriteFile(path, append(h, bytes.Join(frames, nil)...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// onePage creates file "data" with one page in store.
func onePage(t *testing.T, store pagefile.Store) pagefile.PageID {
	t.Helper()
	fid, err := store.CreateFile("data")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Allocate(fid); err != nil {
		t.Fatal(err)
	}
	return pagefile.PageID{File: fid, Page: 0}
}

// TestFullImageRule walks the rule's clauses on one page: first record since
// the log started is full, the next a small delta, a checkpoint makes the
// next full again, and so does a before-image that is not what the log last
// recorded (an unlogged write in between) or no before-image at all.
func TestFullImageRule(t *testing.T) {
	store := pagefile.NewMemStore()
	pid := onePage(t, store)
	m, _ := openT(t, filepath.Join(t.TempDir(), "wal.log"), store, 0)
	defer m.Close()
	s := newScopeLog(t, m)

	step := func(what string, wantFull, wantDelta int64, maxBytes int64, run func()) {
		t.Helper()
		f0, d0 := kinds(m)
		b0 := m.Stats().Bytes
		run()
		f1, d1 := kinds(m)
		if f1-f0 != wantFull || d1-d0 != wantDelta {
			t.Fatalf("%s: %d full + %d delta records, want %d + %d", what, f1-f0, d1-d0, wantFull, wantDelta)
		}
		if n := m.Stats().Bytes - b0; maxBytes > 0 && n > maxBytes {
			t.Fatalf("%s: appended %d bytes, want at most %d", what, n, maxBytes)
		}
	}
	step("first record", 1, 0, 0, func() { s.commit(poke(1), pid) })
	step("second record", 0, 1, 128, func() { s.commit(poke(2), pid) })
	step("unchanged page", 0, 1, 64, func() { s.commit(func(pagefile.PageID, *pagefile.Page) {}, pid) })

	step("after a truncating checkpoint", 1, 0, 0, func() {
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		s.commit(poke(3), pid)
	})
	step("after a deferred checkpoint", 1, 0, 0, func() {
		m.SetRetain(func() (uint64, bool) { return 1, true }, 0)
		if err := m.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		m.SetRetain(nil, 0)
		if m.Stats().CheckpointsDeferred != 1 {
			t.Fatal("checkpoint was not deferred")
		}
		s.commit(poke(4), pid)
	})
	step("chain resumes", 0, 1, 128, func() { s.commit(poke(5), pid) })

	// Something writes the page without logging it (a DDL build that failed
	// before its checkpoint). The next scope's before-image carries that
	// write: a delta cut from it would patch bytes redo never had.
	step("after an unlogged write", 1, 0, 0, func() {
		s.cur[pid][2000] ^= 0xFF
		s.commit(poke(6), pid)
	})
	step("chain resumes", 0, 1, 128, func() { s.commit(poke(7), pid) })
	step("no before-image", 1, 0, 0, func() {
		img := []PageImage{{PID: pid, Data: *s.cur[pid]}}
		if _, _, err := m.AppendCommit(nil, img, nil); err != nil {
			t.Fatal(err)
		}
		*s.cur[pid] = img[0].Data
	})
	step("chain resumes", 0, 1, 128, func() { s.commit(poke(8), pid) })
}

// TestFailedAppendKeepsTheChain: an append the file refused consumes LSNs and
// stamps the frame, but writes no record; the scope rolls the frame back, and
// the next delta must chain to the last record that exists.
func TestFailedAppendKeepsTheChain(t *testing.T) {
	store := pagefile.NewMemStore()
	pid := onePage(t, store)
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, store, 0)
	s := newScopeLog(t, m)
	s.commit(poke(1), pid)
	s.commit(poke(2), pid)

	good := m.f
	ro, err := os.Open(path) // read-only: WriteAt fails, Truncate fails
	if err != nil {
		t.Fatal(err)
	}
	m.f = ro
	kept := *s.cur[pid]
	pre := kept
	poke(3)(pid, s.cur[pid])
	if _, _, err := m.AppendPages(nil, []PageRef{{PID: pid, Pre: &pre, Post: s.cur[pid]}}, nil); err == nil {
		t.Fatal("append to a read-only file succeeded")
	}
	ro.Close()
	m.f, m.broken = good, false
	*s.cur[pid] = kept // the scope's rollback

	f0, d0 := kinds(m)
	s.commit(poke(4), pid)
	if f1, d1 := kinds(m); f1 != f0 || d1 != d0+1 {
		t.Fatalf("after a failed append the next record is not a delta (%d full, %d delta)", f1-f0, d1-d0)
	}
	want := *s.cur[pid]
	m.Close()

	m2, rep := openT(t, path, store, 0)
	defer m2.Close()
	if rep.PagesApplied != 1 || rep.DeltasApplied != 2 {
		t.Fatalf("replay applied %d full + %d deltas, want 1 + 2", rep.PagesApplied, rep.DeltasApplied)
	}
	var got pagefile.Page
	if err := store.ReadPage(pid, &got); err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatal("replayed page differs from the committed image")
	}
}

// deltaLog writes full, delta, delta for one page as three commits and
// returns the log path, the per-transaction frames, the page and its final
// image.
func deltaLog(t *testing.T) (path string, txns [][]byte, pid pagefile.PageID, final pagefile.Page) {
	t.Helper()
	store := pagefile.NewMemStore()
	pid = onePage(t, store)
	path = filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, store, 0)
	s := newScopeLog(t, m)
	for v := uint64(1); v <= 3; v++ {
		s.commit(poke(v), pid)
	}
	if f, d := kinds(m); f != 1 || d != 2 {
		t.Fatalf("log holds %d full + %d delta records, want 1 + 2", f, d)
	}
	txns = txnFrames(t, m)
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	return path, txns, pid, *s.cur[pid]
}

// fileStoreWithPage is a checksumming store holding file 1 with one page.
func fileStoreWithPage(t *testing.T) (*pagefile.FileStore, pagefile.PageID) {
	st := fileStore(t)
	t.Cleanup(func() { st.Close() })
	return st, onePage(t, st)
}

// tear overwrites pid with bytes that fail the page checksum.
func tear(t *testing.T, st *pagefile.FileStore, pid pagefile.PageID) {
	t.Helper()
	var junk pagefile.Page
	for i := range junk {
		junk[i] = byte(i*7 + 1)
	}
	if err := st.WritePageRaw(pid, &junk); err != nil {
		t.Fatal(err)
	}
	if err := st.ReadPage(pid, &junk); !errors.Is(err, pagefile.ErrCorruptPage) {
		t.Fatalf("torn page reads back with %v", err)
	}
}

// TestRedoRebuildsTornPageThroughDeltas: the newest record of a torn page is
// a delta. The full image behind it restarts the chain and the deltas bring
// it forward — one read and one write for the page, however long the chain.
func TestRedoRebuildsTornPageThroughDeltas(t *testing.T) {
	path, _, _, final := deltaLog(t)
	st, pid := fileStoreWithPage(t)
	tear(t, st, pid)
	io0 := st.Stats().Snapshot()
	m, rep, err := Open(path, st, 0)
	if err != nil {
		t.Fatalf("recovery over a torn page: %v", err)
	}
	defer m.Close()
	if rep.PagesApplied != 1 || rep.DeltasApplied != 2 || rep.Duration <= 0 {
		t.Fatalf("applied %d full + %d deltas in %v, want 1 + 2", rep.PagesApplied, rep.DeltasApplied, rep.Duration)
	}
	// The torn read fails before it is counted, so the page costs one write.
	if io := st.Stats().Snapshot(); io.Writes-io0.Writes != 1 || io.Reads-io0.Reads != 0 {
		t.Fatalf("redo of 3 records to one page did %d reads, %d writes", io.Reads-io0.Reads, io.Writes-io0.Writes)
	}
	var got pagefile.Page
	if err := st.ReadPage(pid, &got); err != nil {
		t.Fatal(err)
	}
	if !sameContent(&got, &final) || pagefile.PageLSN(&got) != pagefile.PageLSN(&final) {
		t.Fatal("rebuilt page differs from the committed image")
	}
	// Replaying again is idempotent: every record is at or below the page.
	m.Close()
	_, rep2 := openT(t, path, st, 0)
	if rep2.PagesSkipped != 3 || rep2.PagesApplied+rep2.DeltasApplied != 0 {
		t.Fatalf("second replay: skipped %d, applied %d + %d", rep2.PagesSkipped, rep2.PagesApplied, rep2.DeltasApplied)
	}
}

// TestRedoGapIsNamedCorruption removes the middle record from the log. The
// last delta no longer finds the image it was cut from: recovery must say
// which page, as corruption, and leave the store as it found it.
func TestRedoGapIsNamedCorruption(t *testing.T) {
	_, txns, _, _ := deltaLog(t)
	path := filepath.Join(t.TempDir(), "gap.log")
	writeLog(t, path, walVersion, 1, txns[0], txns[2])

	st, pid := fileStoreWithPage(t)
	var before pagefile.Page
	if err := st.ReadPage(pid, &before); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(path, st, 0)
	if !errors.Is(err, pagefile.ErrCorruptPage) || !strings.Contains(err.Error(), pid.String()) {
		t.Fatalf("gap in the chain: err = %v, want ErrCorruptPage naming %v", err, pid)
	}
	var after pagefile.Page
	if err := st.ReadPage(pid, &after); err != nil {
		t.Fatal(err)
	}
	if after != before {
		t.Fatal("a failed redo wrote to the store")
	}
}

// TestRedoDeltaWithoutFullImage is a follower's log after it truncated: the
// deltas' full image is gone. They still apply to the intact page they were
// cut against — and when that page is torn, nothing in the log can rebuild
// it, which must be an error and not a page of zeroes with a delta on top.
func TestRedoDeltaWithoutFullImage(t *testing.T) {
	full, txns, _, final := deltaLog(t)
	path := filepath.Join(t.TempDir(), "tail.log")
	base := binary.LittleEndian.Uint64(txns[1][9:]) // first LSN the tail holds
	writeLog(t, path, walVersion, base, txns[1], txns[2])

	// The store as the truncation left it: everything through txns[0] applied.
	st, pid := fileStoreWithPage(t)
	writeLog(t, full, walVersion, 1, txns[0])
	m, _ := openT(t, full, st, 0)
	m.Close()

	m, rep := openT(t, path, st, 0)
	m.Close()
	if rep.PagesApplied != 0 || rep.DeltasApplied != 2 {
		t.Fatalf("applied %d full + %d deltas, want 0 + 2", rep.PagesApplied, rep.DeltasApplied)
	}
	var got pagefile.Page
	if err := st.ReadPage(pid, &got); err != nil {
		t.Fatal(err)
	}
	if !sameContent(&got, &final) {
		t.Fatal("deltas over an intact page did not reach the committed image")
	}

	tear(t, st, pid)
	if _, _, err := Open(path, st, 0); !errors.Is(err, pagefile.ErrCorruptPage) || !strings.Contains(err.Error(), pid.String()) {
		t.Fatalf("torn page, no full image: err = %v, want ErrCorruptPage naming %v", err, pid)
	}
}

// TestLargeRecordRoundTrips: what append acknowledges, every scan accepts. A
// 1 MiB catalog snapshot — past the old scan-side constant that silently
// turned it, and every commit after it, into a torn tail — replays from disk
// and parses off the wire; a record past the shared limit is refused whole.
func TestLargeRecordRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.log")
	store := pagefile.NewMemStore()
	m, _ := openT(t, path, store, 0)

	big := bytes.Repeat([]byte("catalog!"), 1<<17)
	lsn, _, err := m.AppendCommit(nil, nil, big)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}
	size, last := m.Size(), m.LastLSN()
	if _, _, err := m.AppendCommit(nil, nil, make([]byte, MaxBodyLen)); err == nil {
		t.Fatal("a record no scan accepts was appended")
	}
	if _, _, err := m.AppendCommit([]FileCreate{{FID: 1, Name: strings.Repeat("n", MaxBodyLen)}}, nil, nil); err == nil {
		t.Fatal("an oversized fileCreate record was appended")
	}
	if m.Size() != size || m.LastLSN() != last {
		t.Fatalf("a refused append moved the log: %d bytes, LSN %d", m.Size()-size, m.LastLSN()-last)
	}
	if _, _, err = m.AppendCommit(nil, nil, make([]byte, MaxBodyLen-recHeaderLen)); err != nil {
		t.Fatalf("a record exactly at the limit: %v", err)
	}
	if lsn, _, err = m.AppendCommit(nil, nil, big[:100]); err != nil {
		t.Fatal(err)
	}
	if err := m.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}

	frames := txnFrames(t, m)
	if len(frames) != 3 {
		t.Fatalf("the tail reader shipped %d transactions, want 3", len(frames))
	}
	rec, n, err := ParseFrame(frames[0])
	if err != nil || rec.Type != RecCatalog || !bytes.Equal(rec.Payload, big) || n >= len(frames[0]) {
		t.Fatalf("ParseFrame of the 1 MiB record: type %d, %d bytes, err %v", rec.Type, n, err)
	}
	m.Close()

	m2, rep := openT(t, path, store, 0)
	defer m2.Close()
	if rep.Commits != 3 || rep.TornTail || !bytes.Equal(rep.Catalog, big[:100]) {
		t.Fatalf("reopen: commits=%d tornTail=%v catalog=%d bytes, want 3/false/100", rep.Commits, rep.TornTail, len(rep.Catalog))
	}
}

// TestReplayBoundsAllocationByFileSize: length bytes promising more than the
// file holds are a torn tail, whatever they say.
func TestReplayBoundsAllocationByFileSize(t *testing.T) {
	_, txns, _, _ := deltaLog(t)
	path := filepath.Join(t.TempDir(), "wal.log")
	liar := make([]byte, 8)
	binary.LittleEndian.PutUint32(liar, MaxBodyLen)
	writeLog(t, path, walVersion, 1, txns[0], liar, []byte("xyz"))
	store := pagefile.NewMemStore()
	onePage(t, store)
	_, rep := openT(t, path, store, 0)
	if rep.Commits != 1 || !rep.TornTail {
		t.Fatalf("commits=%d tornTail=%v, want 1/true", rep.Commits, rep.TornTail)
	}
}

// TestReplayDropsRecordsWithoutCommit: an append torn exactly on a record
// boundary leaves whole, CRC-valid records with no commit record. They are
// not a transaction; the next append must overwrite them, not adopt them.
func TestReplayDropsRecordsWithoutCommit(t *testing.T) {
	_, txns, pid, _ := deltaLog(t)
	path := filepath.Join(t.TempDir(), "wal.log")
	_, n, err := ParseFrame(txns[1])
	if err != nil {
		t.Fatal(err)
	}
	writeLog(t, path, walVersion, 1, txns[0], txns[1][:n]) // the delta, not its commit
	store := pagefile.NewMemStore()
	onePage(t, store)

	m, rep := openT(t, path, store, 0)
	if rep.Commits != 1 || rep.DeltasApplied != 0 || !rep.TornTail {
		t.Fatalf("commits=%d deltas=%d tornTail=%v, want 1/0/true", rep.Commits, rep.DeltasApplied, rep.TornTail)
	}
	if want := binary.LittleEndian.Uint64(txns[0][len(txns[0])-8:]); m.LastLSN() != want {
		t.Fatalf("log resumes at LSN %d, want the last commit %d", m.LastLSN(), want)
	}
	other := pagefile.PageID{File: pid.File, Page: 1}
	if _, _, err := m.AppendCommit(nil, []PageImage{{PID: other, Data: fill(5)}}, nil); err != nil {
		t.Fatal(err)
	}
	m.Close()
	m2, rep2 := openT(t, path, store, 0)
	defer m2.Close()
	if rep2.Commits != 2 || rep2.DeltasApplied != 0 || rep2.TornTail {
		t.Fatalf("after the overwrite: commits=%d deltas=%d tornTail=%v, want 2/0/false", rep2.Commits, rep2.DeltasApplied, rep2.TornTail)
	}
}

// TestVersions: a version-1 log (full images only) replays and is raised to
// the current version in place; an unknown version is refused.
func TestVersions(t *testing.T) {
	_, txns, pid, _ := deltaLog(t)
	path := filepath.Join(t.TempDir(), "wal.log")
	writeLog(t, path, 1, 1, txns[0])
	store := pagefile.NewMemStore()
	onePage(t, store)
	m, rep := openT(t, path, store, 0)
	if rep.Commits != 1 || rep.PagesApplied != 1 {
		t.Fatalf("v1 log: commits=%d applied=%d, want 1/1", rep.Commits, rep.PagesApplied)
	}
	// Deltas may follow: the header must already say so.
	s := newScopeLog(t, m)
	s.commit(poke(1), pid)
	s.commit(poke(2), pid)
	m.Close()
	var h [8]byte
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	f.ReadAt(h[:], 0)
	f.Close()
	if v := binary.LittleEndian.Uint32(h[4:]); v != walVersion {
		t.Fatalf("header version %d after reopening a v1 log, want %d", v, walVersion)
	}
	m2, rep2 := openT(t, path, store, 0)
	m2.Close()
	if rep2.Commits != 3 {
		t.Fatalf("upgraded log replayed %d commits, want 3", rep2.Commits)
	}

	writeLog(t, path, walVersion+1, 1)
	if _, _, err := Open(path, store, 0); err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("future version: err = %v", err)
	}
}

// TestRedoOneReadOneWritePerPage is the recovery-cost property the smaller
// log must not break: 200 deltas to one page replay with one page read and
// one page write, not 200 of each.
func TestRedoOneReadOneWritePerPage(t *testing.T) {
	src := pagefile.NewMemStore()
	pid := onePage(t, src)
	path := filepath.Join(t.TempDir(), "wal.log")
	m, _ := openT(t, path, src, 0)
	s := newScopeLog(t, m)
	for v := uint64(0); v <= 200; v++ {
		s.commit(poke(v), pid)
	}
	m.Close()

	st, _ := fileStoreWithPage(t)
	io0 := st.Stats().Snapshot()
	m2, rep := openT(t, path, st, 0)
	defer m2.Close()
	if rep.PagesApplied != 1 || rep.DeltasApplied != 200 {
		t.Fatalf("applied %d full + %d deltas, want 1 + 200", rep.PagesApplied, rep.DeltasApplied)
	}
	if io := st.Stats().Snapshot(); io.Reads-io0.Reads != 1 || io.Writes-io0.Writes != 1 {
		t.Fatalf("201 records to one page cost %d reads, %d writes", io.Reads-io0.Reads, io.Writes-io0.Writes)
	}
}
