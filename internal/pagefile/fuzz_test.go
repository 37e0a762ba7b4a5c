package pagefile

import (
	"encoding/binary"
	"errors"
	"testing"
)

// corruptions used to seed the fuzz corpus: each mutates a well-formed page
// in a way real disk corruption could.
func seedPages() []Page {
	var pages []Page

	well := func() Page {
		var p Page
		sp := InitSlotted(&p)
		sp.Insert([]byte("alpha"))
		sp.Insert(make([]byte, 300))
		sp.Insert([]byte("gamma"))
		sp.Delete(1)
		return p
	}

	pages = append(pages, well())

	p := well()
	binary.LittleEndian.PutUint16(p[offNumSlots:], 0xFFFF) // absurd slot count
	pages = append(pages, p)

	p = well()
	binary.LittleEndian.PutUint16(p[offDataStart:], 0xFFF0) // data start past page end
	pages = append(pages, p)

	p = well()
	binary.LittleEndian.PutUint16(p[slotBase:], 0xFFFF) // slot 0 offset out of range
	pages = append(pages, p)

	p = well()
	binary.LittleEndian.PutUint16(p[slotBase+2:], 0xFFFF) // slot 0 length huge
	pages = append(pages, p)

	var zero Page
	pages = append(pages, zero)

	return pages
}

// FuzzSlottedParsing drives every Slotted operation over arbitrary page
// images. The contract under corruption: no panics and no out-of-bounds
// access — operations either succeed, report ErrNoSuchSlot/ErrPageFull, or
// report structured ErrCorruptPage.
func FuzzSlottedParsing(f *testing.F) {
	for _, p := range seedPages() {
		f.Add(p[:])
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var p Page
		copy(p[:], raw)
		sp := AsSlotted(&p)

		valErr := sp.Validate()
		if valErr != nil && !errors.Is(valErr, ErrCorruptPage) {
			t.Fatalf("Validate returned non-structured error: %v", valErr)
		}

		sp.IsFormatted()
		sp.NumSlots()
		sp.FreeSpace()
		n := sp.NumSlots()
		for i := uint16(0); i < n; i++ {
			sp.Live(i)
			if _, err := sp.Read(i); err != nil &&
				!errors.Is(err, ErrNoSuchSlot) && !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("Read(%d): unstructured error %v", i, err)
			}
		}
		if _, err := sp.Insert([]byte("probe")); err != nil &&
			!errors.Is(err, ErrPageFull) {
			t.Fatalf("Insert: unstructured error %v", err)
		}
		if err := sp.Update(0, []byte("replacement")); err != nil &&
			!errors.Is(err, ErrNoSuchSlot) && !errors.Is(err, ErrPageFull) && !errors.Is(err, ErrCorruptPage) {
			t.Fatalf("Update: unstructured error %v", err)
		}
		if err := sp.Delete(0); err != nil && !errors.Is(err, ErrNoSuchSlot) {
			t.Fatalf("Delete: unstructured error %v", err)
		}
		sp.Compact()
		// After compaction the page must be structurally sound enough for a
		// second pass of every read-only accessor.
		for i := uint16(0); i < sp.NumSlots(); i++ {
			sp.Read(i)
		}
		sp.FreeSpace()
	})
}

// TestSlottedCorruptionSeeds runs the fuzz body over the seed corpus so the
// hardening is exercised in ordinary `go test` runs too.
func TestSlottedCorruptionSeeds(t *testing.T) {
	for i, p := range seedPages() {
		sp := AsSlotted(&p)
		if i > 0 {
			// All corrupted seeds (every seed but the first well-formed one
			// and the zero page, which is simply unformatted) must be flagged.
			if err := sp.Validate(); err != nil && !errors.Is(err, ErrCorruptPage) {
				t.Errorf("seed %d: Validate = %v, want ErrCorruptPage or nil", i, err)
			}
		}
		for s := uint16(0); s < sp.NumSlots(); s++ {
			if _, err := sp.Read(s); err != nil &&
				!errors.Is(err, ErrNoSuchSlot) && !errors.Is(err, ErrCorruptPage) {
				t.Errorf("seed %d slot %d: %v", i, s, err)
			}
		}
		sp.Compact()
		sp.FreeSpace()
	}
}
