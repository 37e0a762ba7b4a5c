package heap

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/exodb/fieldrepl/internal/buffer"
	"github.com/exodb/fieldrepl/internal/pagefile"
)

func newFile(t *testing.T, frames int) *File {
	t.Helper()
	store := pagefile.NewMemStore()
	t.Cleanup(func() { store.Close() })
	pool := buffer.New(store, frames)
	f, err := Create(pool, "test")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestInsertReadDelete(t *testing.T) {
	f := newFile(t, 8)
	oid, err := f.Insert([]byte("employee #1"))
	if err != nil {
		t.Fatalf("Insert: %v", err)
	}
	got, err := f.Read(oid)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if string(got) != "employee #1" {
		t.Fatalf("Read = %q", got)
	}
	if err := f.Delete(oid); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := f.Read(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete: err = %v, want ErrNotFound", err)
	}
	if err := f.Delete(oid); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double Delete: err = %v, want ErrNotFound", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	f := newFile(t, 8)
	oid, err := f.Insert(nil)
	if err != nil {
		t.Fatalf("Insert(nil): %v", err)
	}
	got, err := f.Read(oid)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(got) != 0 {
		t.Fatalf("Read = %q, want empty", got)
	}
}

func TestMultiPageInsert(t *testing.T) {
	f := newFile(t, 8)
	rec := bytes.Repeat([]byte{9}, 300)
	var oids []pagefile.OID
	for i := 0; i < 100; i++ {
		oid, err := f.Insert(rec)
		if err != nil {
			t.Fatalf("Insert %d: %v", i, err)
		}
		oids = append(oids, oid)
	}
	n, _ := f.NumPages()
	if n < 8 {
		t.Fatalf("100 records of 300 bytes fit in %d pages, expected >= 8", n)
	}
	for i, oid := range oids {
		got, err := f.Read(oid)
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("record %d unreadable: %v", i, err)
		}
	}
	c, err := f.Count()
	if err != nil || c != 100 {
		t.Fatalf("Count = %d, %v; want 100", c, err)
	}
}

func TestUpdateInPlace(t *testing.T) {
	f := newFile(t, 8)
	oid, _ := f.Insert([]byte("short"))
	if err := f.Update(oid, []byte("a bit longer value")); err != nil {
		t.Fatalf("Update: %v", err)
	}
	got, _ := f.Read(oid)
	if string(got) != "a bit longer value" {
		t.Fatalf("after update: %q", got)
	}
}

func TestUpdateForwarding(t *testing.T) {
	f := newFile(t, 8)
	// Fill a page with mid-size records so growth forces forwarding.
	var oids []pagefile.OID
	for i := 0; i < 9; i++ {
		oid, err := f.Insert(bytes.Repeat([]byte{byte(i)}, 400))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	target := oids[0]
	big := bytes.Repeat([]byte{0xAA}, 2000)
	if err := f.Update(target, big); err != nil {
		t.Fatalf("growing update: %v", err)
	}
	got, err := f.Read(target)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("read after forwarding: %v", err)
	}
	// The OID must remain stable and other records intact.
	for i := 1; i < len(oids); i++ {
		got, err := f.Read(oids[i])
		if err != nil || !bytes.Equal(got, bytes.Repeat([]byte{byte(i)}, 400)) {
			t.Fatalf("record %d damaged by forwarding: %v", i, err)
		}
	}
	// Update the forwarded record again, in place at its new home.
	big2 := bytes.Repeat([]byte{0xBB}, 2001)
	if err := f.Update(target, big2); err != nil {
		t.Fatalf("update of forwarded record: %v", err)
	}
	got, _ = f.Read(target)
	if !bytes.Equal(got, big2) {
		t.Fatal("second update lost")
	}
	// Shrink it back down; still reachable through the stub.
	if err := f.Update(target, []byte("tiny")); err != nil {
		t.Fatalf("shrinking forwarded record: %v", err)
	}
	got, _ = f.Read(target)
	if string(got) != "tiny" {
		t.Fatalf("after shrink: %q", got)
	}
}

func TestForwardedMovesAgain(t *testing.T) {
	f := newFile(t, 16)
	// Page 0: fill with records.
	var oids []pagefile.OID
	for i := 0; i < 9; i++ {
		oid, _ := f.Insert(bytes.Repeat([]byte{1}, 400))
		oids = append(oids, oid)
	}
	target := oids[0]
	// Force forwarding to page 1.
	if err := f.Update(target, bytes.Repeat([]byte{2}, 2000)); err != nil {
		t.Fatal(err)
	}
	// Fill remaining space so the next growth must move the body again.
	for i := 0; i < 50; i++ {
		if _, err := f.Insert(bytes.Repeat([]byte{3}, 900)); err != nil {
			t.Fatal(err)
		}
	}
	huge := bytes.Repeat([]byte{4}, 3900)
	if err := f.Update(target, huge); err != nil {
		t.Fatalf("second forwarding move: %v", err)
	}
	got, err := f.Read(target)
	if err != nil || !bytes.Equal(got, huge) {
		t.Fatalf("read after double move: %v", err)
	}
}

func TestDeleteForwarded(t *testing.T) {
	f := newFile(t, 8)
	var oids []pagefile.OID
	for i := 0; i < 9; i++ {
		oid, _ := f.Insert(bytes.Repeat([]byte{1}, 400))
		oids = append(oids, oid)
	}
	target := oids[0]
	if err := f.Update(target, bytes.Repeat([]byte{2}, 2000)); err != nil {
		t.Fatal(err)
	}
	if err := f.Delete(target); err != nil {
		t.Fatalf("Delete forwarded: %v", err)
	}
	if _, err := f.Read(target); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Read after delete: %v", err)
	}
	// Scan must not surface the orphaned body.
	c, _ := f.Count()
	if c != 8 {
		t.Fatalf("Count = %d, want 8", c)
	}
}

func TestScanOrderAndForwarding(t *testing.T) {
	f := newFile(t, 8)
	var oids []pagefile.OID
	for i := 0; i < 30; i++ {
		oid, _ := f.Insert([]byte(fmt.Sprintf("rec-%02d-%s", i, bytes.Repeat([]byte{'x'}, 300))))
		oids = append(oids, oid)
	}
	// Forward one record.
	if err := f.Update(oids[3], append([]byte("rec-03-big-"), bytes.Repeat([]byte{'y'}, 3000)...)); err != nil {
		t.Fatal(err)
	}
	var seen []pagefile.OID
	err := f.Scan(func(oid pagefile.OID, payload []byte) error {
		seen = append(seen, oid)
		return nil
	})
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if len(seen) != 30 {
		t.Fatalf("scan saw %d records, want 30", len(seen))
	}
	// Scan order is home-OID physical order.
	for i := 1; i < len(seen); i++ {
		if !seen[i-1].Less(seen[i]) {
			t.Fatalf("scan out of order at %d: %v !< %v", i, seen[i-1], seen[i])
		}
	}
	// The forwarded record is visited at its home OID.
	found := false
	for _, o := range seen {
		if o == oids[3] {
			found = true
		}
	}
	if !found {
		t.Fatal("forwarded record not visited at home OID")
	}
}

func TestScanEarlyStop(t *testing.T) {
	f := newFile(t, 8)
	for i := 0; i < 10; i++ {
		f.Insert([]byte("x"))
	}
	stop := errors.New("stop")
	n := 0
	err := f.Scan(func(pagefile.OID, []byte) error {
		n++
		if n == 3 {
			return stop
		}
		return nil
	})
	if !errors.Is(err, stop) || n != 3 {
		t.Fatalf("early stop: n=%d err=%v", n, err)
	}
}

func TestInsertNearClustering(t *testing.T) {
	f := newFile(t, 8)
	// Build 3 pages.
	var first pagefile.OID
	for i := 0; i < 27; i++ {
		oid, _ := f.Insert(bytes.Repeat([]byte{1}, 400))
		if i == 0 {
			first = oid
		}
	}
	// Delete a record from page 0 to make room there.
	if err := f.Delete(first); err != nil {
		t.Fatal(err)
	}
	oid, err := f.InsertNear(bytes.Repeat([]byte{2}, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	if oid.Page != 0 {
		t.Fatalf("InsertNear placed record on page %d, want 0", oid.Page)
	}
	// When the hint page is full, it must fall back gracefully.
	oid2, err := f.InsertNear(bytes.Repeat([]byte{3}, 3000), 0)
	if err != nil {
		t.Fatal(err)
	}
	if oid2.Page == 0 {
		t.Fatal("oversized InsertNear landed on full hint page")
	}
}

func TestWrongFileOID(t *testing.T) {
	f := newFile(t, 8)
	f.Insert([]byte("x"))
	bad := pagefile.OID{File: f.ID() + 1, Page: 0, Slot: 0}
	if _, err := f.Read(bad); err == nil {
		t.Fatal("read with wrong-file OID succeeded")
	}
}

func TestOversizedPayload(t *testing.T) {
	f := newFile(t, 8)
	if _, err := f.Insert(make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized insert succeeded")
	}
	oid, err := f.Insert(make([]byte, 10))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Update(oid, make([]byte, MaxPayload+1)); err == nil {
		t.Fatal("oversized update succeeded")
	}
}

// TestHeapRandomizedModel runs a random op sequence against a map model,
// exercising growth/shrink/forwarding paths, and checks equivalence.
func TestHeapRandomizedModel(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	f := newFile(t, 32)
	model := map[pagefile.OID][]byte{}
	var keys []pagefile.OID

	randPayload := func() []byte {
		// Mix of small and large payloads to trigger forwarding.
		var n int
		if rng.Intn(4) == 0 {
			n = 1500 + rng.Intn(2000)
		} else {
			n = rng.Intn(200)
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}

	for step := 0; step < 3000; step++ {
		switch op := rng.Intn(4); {
		case op <= 1: // insert (50%)
			p := randPayload()
			oid, err := f.Insert(p)
			if err != nil {
				t.Fatalf("step %d insert: %v", step, err)
			}
			if _, dup := model[oid]; dup {
				t.Fatalf("step %d: OID %v reused while live", step, oid)
			}
			model[oid] = p
			keys = append(keys, oid)
		case op == 2 && len(model) > 0: // update
			k := keys[rng.Intn(len(keys))]
			if _, live := model[k]; !live {
				continue
			}
			p := randPayload()
			if err := f.Update(k, p); err != nil {
				t.Fatalf("step %d update %v: %v", step, k, err)
			}
			model[k] = p
		case op == 3 && len(model) > 0: // delete
			k := keys[rng.Intn(len(keys))]
			if _, live := model[k]; !live {
				continue
			}
			if err := f.Delete(k); err != nil {
				t.Fatalf("step %d delete %v: %v", step, k, err)
			}
			delete(model, k)
		}
	}
	// Full verification at the end.
	for k, want := range model {
		got, err := f.Read(k)
		if err != nil {
			t.Fatalf("final read %v: %v", k, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("final content mismatch at %v", k)
		}
	}
	seen := 0
	err := f.Scan(func(oid pagefile.OID, payload []byte) error {
		want, ok := model[oid]
		if !ok {
			return fmt.Errorf("scan surfaced unknown OID %v", oid)
		}
		if !bytes.Equal(payload, want) {
			return fmt.Errorf("scan payload mismatch at %v", oid)
		}
		seen++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(model) {
		t.Fatalf("scan saw %d records, model has %d", seen, len(model))
	}
}

func TestOpenExisting(t *testing.T) {
	store := pagefile.NewMemStore()
	defer store.Close()
	pool := buffer.New(store, 8)
	f, err := Create(pool, "persist")
	if err != nil {
		t.Fatal(err)
	}
	oid, _ := f.Insert([]byte("survives"))
	pool.FlushAll()

	f2, err := Open(pool, f.ID())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if f2.Name() != "persist" {
		t.Fatalf("Name = %q", f2.Name())
	}
	got, err := f2.Read(oid)
	if err != nil || string(got) != "survives" {
		t.Fatalf("read through reopened file: %q, %v", got, err)
	}
	// Appends through the reopened handle continue on the last page.
	if _, err := f2.Insert([]byte("more")); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	f := newFile(t, 16)
	var oids []pagefile.OID
	for i := 0; i < 20; i++ {
		oid, err := f.Insert(bytes.Repeat([]byte{1}, 200))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 20 || st.Forwarded != 0 || st.DeadSlots != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.PayloadSize != 20*200 || st.AvgPayload() != 200 {
		t.Fatalf("payload accounting: %+v", st)
	}
	// Delete two, forward one.
	f.Delete(oids[0])
	f.Delete(oids[1])
	if err := f.Update(oids[2], bytes.Repeat([]byte{2}, 3900)); err != nil {
		t.Fatal(err)
	}
	st, err = f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Live != 18 || st.Forwarded != 1 {
		t.Fatalf("after churn: %+v", st)
	}
	if st.DeadSlots == 0 || st.FreeBytes == 0 {
		t.Fatalf("dead/free accounting: %+v", st)
	}
	// Empty file.
	f2 := newFile(t, 8)
	st2, err := f2.Stats()
	if err != nil || st2.Live != 0 || st2.AvgPayload() != 0 {
		t.Fatalf("empty stats: %+v, %v", st2, err)
	}
}

// A capture view must register every page before it modifies it — in-place
// updates, forwarding stubs, moved bodies, deletes of both, inserts on old and
// new pages — or rollback leaves the modification behind. Each operation runs
// in its own scope against the same file and is rolled back (one scope for
// all would let an early registration of a page hide a later unregistered
// write to it); afterwards every page the file had must be byte-identical and
// every page the scope allocated must be empty.
func TestCaptureViewRollbackRestoresEveryPage(t *testing.T) {
	f := newFile(t, 512)
	rng := rand.New(rand.NewSource(5))
	var oids []pagefile.OID
	for i := 0; i < 150; i++ {
		oid, err := f.Insert(bytes.Repeat([]byte{byte(i)}, 20+rng.Intn(200)))
		if err != nil {
			t.Fatal(err)
		}
		oids = append(oids, oid)
	}
	// A fifth of the records are forwarded before any scope opens.
	for _, i := range rng.Perm(len(oids))[:30] {
		if err := f.Update(oids[i], bytes.Repeat([]byte{1}, 1500)); err != nil {
			t.Fatal(err)
		}
	}
	pages := func() []pagefile.Page {
		n, err := f.NumPages()
		if err != nil {
			t.Fatal(err)
		}
		out := make([]pagefile.Page, n)
		for i := range out {
			h, err := f.pool.Get(pagefile.PageID{File: f.id, Page: uint32(i)})
			if err != nil {
				t.Fatal(err)
			}
			out[i] = *h.Page()
			h.Unpin()
		}
		return out
	}
	before := pages()
	files := map[pagefile.FileID]bool{f.id: true}
	cv := f.WithCapture(nil)

	grew := false
	rolledBack := func(op string, run func() error) {
		t.Helper()
		f.pool.BeginScope()
		if err := run(); err != nil {
			t.Fatalf("%s: %v", op, err)
		}
		if err := f.pool.RollbackScope(files); err != nil {
			t.Fatal(err)
		}
		after := pages()
		grew = grew || len(after) > len(before)
		for i := range after {
			want := pagefile.Page{}
			if i < len(before) {
				want = before[i]
			}
			if after[i] != want {
				t.Fatalf("%s: page %d differs after rollback", op, i)
			}
		}
	}
	for _, oid := range oids {
		// Shrink, grow in place, move out, move a moved body again.
		for _, size := range []int{10, 250, 1400, 3000} {
			rolledBack(fmt.Sprintf("update %v to %d bytes", oid, size), func() error {
				return cv.Update(oid, bytes.Repeat([]byte{7}, size))
			})
		}
		rolledBack(fmt.Sprintf("delete %v", oid), func() error { return cv.Delete(oid) })
	}
	for i := 0; i < 50; i++ {
		hint := uint32(rng.Intn(len(before)))
		rolledBack(fmt.Sprintf("insert near %d", hint), func() error {
			_, err := cv.InsertNear(bytes.Repeat([]byte{9}, 50+rng.Intn(3000)), hint)
			return err
		})
	}
	if !grew {
		t.Fatal("no operation allocated a page; the test is not exercising fresh pages")
	}
}
