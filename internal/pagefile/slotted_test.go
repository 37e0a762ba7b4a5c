package pagefile

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSlottedInsertRead(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	if !s.IsFormatted() {
		t.Fatal("freshly initialized page not formatted")
	}
	recs := [][]byte{
		[]byte("hello"),
		[]byte(""),
		bytes.Repeat([]byte{0x7F}, 500),
		[]byte("department of redundancy department"),
	}
	var slots []uint16
	for _, r := range recs {
		slot, err := s.Insert(r)
		if err != nil {
			t.Fatalf("Insert: %v", err)
		}
		slots = append(slots, slot)
	}
	for i, slot := range slots {
		got, err := s.Read(slot)
		if err != nil {
			t.Fatalf("Read slot %d: %v", slot, err)
		}
		if !bytes.Equal(got, recs[i]) {
			t.Fatalf("slot %d: got %q, want %q", slot, got, recs[i])
		}
	}
	if n := liveCount(s); n != len(recs) {
		t.Fatalf("live count = %d, want %d", n, len(recs))
	}
}

// liveCount returns the number of live records on the page.
func liveCount(s Slotted) int {
	live := 0
	for i := uint16(0); i < s.NumSlots(); i++ {
		if s.Live(i) {
			live++
		}
	}
	return live
}

func TestSlottedDeleteAndReuse(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	a, _ := s.Insert([]byte("aaaa"))
	b, _ := s.Insert([]byte("bbbb"))
	if err := s.Delete(a); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Live(a) {
		t.Fatal("deleted slot still live")
	}
	if _, err := s.Read(a); err == nil {
		t.Fatal("read of dead slot succeeded")
	}
	if err := s.Delete(a); err == nil {
		t.Fatal("double delete succeeded")
	}
	// New insert must reuse the dead slot.
	c, _ := s.Insert([]byte("cccc"))
	if c != a {
		t.Fatalf("insert reused slot %d, want dead slot %d", c, a)
	}
	got, _ := s.Read(b)
	if !bytes.Equal(got, []byte("bbbb")) {
		t.Fatal("unrelated record disturbed by delete/reuse")
	}
}

func TestSlottedUpdateShrinkGrow(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	slot, _ := s.Insert(bytes.Repeat([]byte{1}, 100))
	other, _ := s.Insert([]byte("other"))

	if err := s.Update(slot, []byte("tiny")); err != nil {
		t.Fatalf("shrink update: %v", err)
	}
	got, _ := s.Read(slot)
	if !bytes.Equal(got, []byte("tiny")) {
		t.Fatalf("after shrink: %q", got)
	}

	big := bytes.Repeat([]byte{2}, 1000)
	if err := s.Update(slot, big); err != nil {
		t.Fatalf("grow update: %v", err)
	}
	got, _ = s.Read(slot)
	if !bytes.Equal(got, big) {
		t.Fatal("after grow: content mismatch")
	}
	got, _ = s.Read(other)
	if !bytes.Equal(got, []byte("other")) {
		t.Fatal("grow disturbed other record")
	}
}

func TestSlottedUpdateFailurePreservesRecord(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	orig := bytes.Repeat([]byte{3}, 100)
	slot, _ := s.Insert(orig)
	// Fill the page almost completely.
	for {
		if _, err := s.Insert(bytes.Repeat([]byte{4}, 200)); err != nil {
			break
		}
	}
	// Growing beyond available space must fail and keep the original intact.
	if err := s.Update(slot, bytes.Repeat([]byte{5}, 3000)); err == nil {
		t.Fatal("oversized update succeeded")
	}
	got, err := s.Read(slot)
	if err != nil {
		t.Fatalf("Read after failed update: %v", err)
	}
	if !bytes.Equal(got, orig) {
		t.Fatal("failed update corrupted the original record")
	}
}

func TestSlottedFillToCapacity(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	rec := bytes.Repeat([]byte{6}, 96) // 96 + 4 slot = 100 bytes per record
	n := 0
	for {
		if _, err := s.Insert(rec); err != nil {
			break
		}
		n++
	}
	want := UserBytes / 100
	if n != want {
		t.Fatalf("fit %d records of 96 bytes, want %d", n, want)
	}
	if s.FreeSpace() >= 100 {
		t.Fatalf("FreeSpace = %d after fill, expected < 100", s.FreeSpace())
	}
}

func TestSlottedCompactionReclaimsSpace(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	var slots []uint16
	rec := bytes.Repeat([]byte{7}, 400)
	for {
		slot, err := s.Insert(rec)
		if err != nil {
			break
		}
		slots = append(slots, slot)
	}
	// Delete every other record; the freed space is fragmented.
	for i := 0; i < len(slots); i += 2 {
		if err := s.Delete(slots[i]); err != nil {
			t.Fatalf("Delete: %v", err)
		}
	}
	// A record larger than any single hole must still fit via compaction.
	big := bytes.Repeat([]byte{8}, 700)
	if !s.CanFit(len(big)) {
		t.Fatalf("CanFit(%d) = false with %d free", len(big), s.FreeSpace())
	}
	if _, err := s.Insert(big); err != nil {
		t.Fatalf("Insert after fragmentation: %v", err)
	}
	// Survivors must be intact.
	for i := 1; i < len(slots); i += 2 {
		got, err := s.Read(slots[i])
		if err != nil || !bytes.Equal(got, rec) {
			t.Fatalf("survivor slot %d damaged: %v", slots[i], err)
		}
	}
}

// TestSlottedCompactionAllocatesNothing pins the in-place compaction: a bulk
// build widens every record of a page in turn, so Compact and a grow that
// fits only after compaction run once per record and must stay off the heap.
func TestSlottedCompactionAllocatesNothing(t *testing.T) {
	var fragmented Page
	s := InitSlotted(&fragmented)
	var slots []uint16
	for {
		slot, err := s.Insert(bytes.Repeat([]byte{7}, 400))
		if err != nil {
			break
		}
		slots = append(slots, slot)
	}
	for i := 0; i < len(slots); i += 2 {
		if err := s.Delete(slots[i]); err != nil {
			t.Fatal(err)
		}
	}
	var p Page
	if n := testing.AllocsPerRun(100, func() {
		p = fragmented
		AsSlotted(&p).Compact()
	}); n != 0 {
		t.Errorf("Compact: %v allocs per run, want 0", n)
	}
	// Slot 1 is live between two holes; 700 bytes fit only once the holes are
	// joined, and the other survivors must come through intact.
	big := bytes.Repeat([]byte{8}, 700)
	var err error
	if n := testing.AllocsPerRun(100, func() {
		p = fragmented
		err = AsSlotted(&p).Update(slots[1], big)
	}); n != 0 {
		t.Errorf("Update growing after compaction: %v allocs per run, want 0", n)
	}
	if err != nil {
		t.Fatalf("Update: %v", err)
	}
	sp := AsSlotted(&p)
	if err := sp.Validate(); err != nil {
		t.Fatal(err)
	}
	if got, _ := sp.Read(slots[1]); !bytes.Equal(got, big) {
		t.Fatal("grown record not stored")
	}
	for i := 3; i < len(slots); i += 2 {
		if got, err := sp.Read(slots[i]); err != nil || !bytes.Equal(got, bytes.Repeat([]byte{7}, 400)) {
			t.Fatalf("survivor slot %d damaged: %v", slots[i], err)
		}
	}
}

func TestSlottedMaxRecord(t *testing.T) {
	var p Page
	s := InitSlotted(&p)
	if _, err := s.Insert(make([]byte, MaxRecordSize+1)); err == nil {
		t.Fatal("oversized insert succeeded")
	}
	if _, err := s.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max-size insert failed: %v", err)
	}
}

// TestSlottedQuickOps drives a randomized sequence of inserts, updates and
// deletes against a map model and checks full equivalence after every step.
func TestSlottedQuickOps(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	var p Page
	s := InitSlotted(&p)
	model := map[uint16][]byte{}

	randRec := func() []byte {
		n := rng.Intn(300)
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	keys := func() []uint16 {
		var ks []uint16
		for k := range model {
			ks = append(ks, k)
		}
		return ks
	}

	for step := 0; step < 5000; step++ {
		switch op := rng.Intn(3); {
		case op == 0: // insert
			rec := randRec()
			slot, err := s.Insert(rec)
			if err != nil {
				if s.CanFit(len(rec)) {
					t.Fatalf("step %d: insert failed but CanFit=true", step)
				}
				continue
			}
			if _, exists := model[slot]; exists {
				t.Fatalf("step %d: insert returned live slot %d", step, slot)
			}
			model[slot] = rec
		case op == 1 && len(model) > 0: // update
			ks := keys()
			k := ks[rng.Intn(len(ks))]
			rec := randRec()
			if err := s.Update(k, rec); err != nil {
				continue // page full; model keeps old value, page must too
			}
			model[k] = rec
		case op == 2 && len(model) > 0: // delete
			ks := keys()
			k := ks[rng.Intn(len(ks))]
			if err := s.Delete(k); err != nil {
				t.Fatalf("step %d: delete live slot %d: %v", step, k, err)
			}
			delete(model, k)
		}
		// Verify model equivalence.
		if n := liveCount(s); n != len(model) {
			t.Fatalf("step %d: live count=%d model=%d", step, n, len(model))
		}
		for k, want := range model {
			got, err := s.Read(k)
			if err != nil {
				t.Fatalf("step %d: read %d: %v", step, k, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("step %d: slot %d content mismatch", step, k)
			}
		}
	}
}

// TestSlottedPropertyRoundTrip uses testing/quick: any batch of records that
// fits must read back identically.
func TestSlottedPropertyRoundTrip(t *testing.T) {
	f := func(recs [][]byte) bool {
		var p Page
		s := InitSlotted(&p)
		var inserted []uint16
		var kept [][]byte
		for _, r := range recs {
			if len(r) > MaxRecordSize {
				r = r[:MaxRecordSize]
			}
			slot, err := s.Insert(r)
			if err != nil {
				break
			}
			inserted = append(inserted, slot)
			kept = append(kept, r)
		}
		for i, slot := range inserted {
			got, err := s.Read(slot)
			if err != nil || !bytes.Equal(got, kept[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func ExampleSlotted() {
	var p Page
	s := InitSlotted(&p)
	slot, _ := s.Insert([]byte("EMP record"))
	rec, _ := s.Read(slot)
	fmt.Printf("slot %d holds %q\n", slot, rec)
	// Output: slot 0 holds "EMP record"
}
