package pagefile

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Slotted gives record-level access to a Page using a classic slotted-page
// layout: a fixed header, a slot directory growing forward from the header,
// and record bytes growing backward from the end of the page.
//
//	+--------+-----------------+......free......+----------+---------+
//	| header | slot0 slot1 ... |                | record1  | record0 |
//	+--------+-----------------+......free......+----------+---------+
//	0       40                 slotEnd       dataStart            4096
//
// Each slot entry is 4 bytes: record offset (u16) and record length (u16).
// Offset 0 marks a dead (deleted) slot; live record offsets are always
// >= PageHeaderSize so 0 is unambiguous. Slots are never removed once
// allocated, so a (page, slot) pair — the tail of an OID — remains stable for
// the life of the record.
type Slotted struct {
	P *Page
}

const (
	slotSize   = 4
	slotBase   = PageHeaderSize
	pageMagic  = 0x5DB1
	deadOffset = 0

	offMagic     = 0
	offFlags     = 2
	offNumSlots  = 4
	offDataStart = 6
	offNextPage  = 8

	// maxSlotCount is the largest slot count a well-formed page can hold:
	// the whole user area filled with empty slot entries. Reads of the slot
	// count clamp to it so a corrupted header can never drive slot-directory
	// indexing past the end of the page.
	maxSlotCount = (PageSize - slotBase) / slotSize
)

// ErrPageFull is returned when a record does not fit in the page.
var ErrPageFull = errors.New("pagefile: page full")

// ErrNoSuchSlot is returned for out-of-range or dead slots.
var ErrNoSuchSlot = errors.New("pagefile: no such slot")

// MaxRecordSize is the largest record that fits on a freshly initialized
// page (user bytes minus one slot entry).
const MaxRecordSize = UserBytes - slotSize

// InitSlotted formats p as an empty slotted page and returns it wrapped.
func InitSlotted(p *Page) Slotted {
	s := Slotted{P: p}
	for i := range p {
		p[i] = 0
	}
	binary.LittleEndian.PutUint16(p[offMagic:], pageMagic)
	s.setNumSlots(0)
	s.setDataStart(PageSize)
	binary.LittleEndian.PutUint32(p[offNextPage:], ^uint32(0))
	return s
}

// AsSlotted wraps an already formatted page.
func AsSlotted(p *Page) Slotted { return Slotted{P: p} }

// IsFormatted reports whether the page carries the slotted-page magic.
func (s Slotted) IsFormatted() bool {
	return binary.LittleEndian.Uint16(s.P[offMagic:]) == pageMagic
}

// NumSlots returns the number of slot entries (live and dead). The stored
// count is clamped to maxSlotCount so that iteration over a corrupted header
// stays inside the page; Validate reports the corruption itself.
func (s Slotted) NumSlots() uint16 {
	n := binary.LittleEndian.Uint16(s.P[offNumSlots:])
	if n > maxSlotCount {
		return maxSlotCount
	}
	return n
}

func (s Slotted) setNumSlots(n uint16) { binary.LittleEndian.PutUint16(s.P[offNumSlots:], n) }

func (s Slotted) dataStart() uint16 { return binary.LittleEndian.Uint16(s.P[offDataStart:]) }

func (s Slotted) setDataStart(v int) {
	binary.LittleEndian.PutUint16(s.P[offDataStart:], uint16(v%PageSize))
}

// dataStartInt returns dataStart as an int, mapping the stored 0 (which means
// "PageSize", since 4096 does not fit in a u16) back to PageSize. Values past
// the end of the page (only possible on a corrupted image) clamp to PageSize
// so offset arithmetic stays in bounds.
func (s Slotted) dataStartInt() int {
	v := int(s.dataStart())
	if v == 0 || v > PageSize {
		return PageSize
	}
	return v
}

func (s Slotted) slot(i uint16) (offset, length uint16) {
	base := slotBase + int(i)*slotSize
	return binary.LittleEndian.Uint16(s.P[base:]), binary.LittleEndian.Uint16(s.P[base+2:])
}

func (s Slotted) setSlot(i uint16, offset, length uint16) {
	base := slotBase + int(i)*slotSize
	binary.LittleEndian.PutUint16(s.P[base:], offset)
	binary.LittleEndian.PutUint16(s.P[base+2:], length)
}

// Live reports whether slot i holds a record.
func (s Slotted) Live(i uint16) bool {
	if i >= s.NumSlots() {
		return false
	}
	off, _ := s.slot(i)
	return off != deadOffset
}

// Read returns the record bytes in slot i. The returned slice aliases the
// page; callers that retain it across page modifications must copy.
func (s Slotted) Read(i uint16) ([]byte, error) {
	if i >= s.NumSlots() {
		return nil, fmt.Errorf("%w: slot %d of %d", ErrNoSuchSlot, i, s.NumSlots())
	}
	off, length := s.slot(i)
	if off == deadOffset {
		return nil, fmt.Errorf("%w: slot %d is dead", ErrNoSuchSlot, i)
	}
	if int(off) < slotBase || int(off)+int(length) > PageSize {
		return nil, fmt.Errorf("%w: slot %d spans [%d,%d)", ErrCorruptPage, i, off, int(off)+int(length))
	}
	return s.P[off : int(off)+int(length)], nil
}

// contiguousFree returns the bytes available between the slot directory and
// the record area.
func (s Slotted) contiguousFree() int {
	return s.dataStartInt() - (slotBase + int(s.NumSlots())*slotSize)
}

// FreeSpace returns the bytes available for a new record, including space
// reclaimable by compaction, and accounting for a possible new slot entry.
func (s Slotted) FreeSpace() int {
	free := s.contiguousFree() + s.deadBytes()
	if !s.hasDeadSlot() {
		free -= slotSize
	}
	if free < 0 {
		return 0
	}
	return free
}

func (s Slotted) deadBytes() int {
	// Dead bytes are record bytes not covered by any live slot.
	used := 0
	n := s.NumSlots()
	for i := uint16(0); i < n; i++ {
		off, length := s.slot(i)
		if off != deadOffset {
			used += int(length)
		}
	}
	return (PageSize - s.dataStartInt()) - used
}

func (s Slotted) hasDeadSlot() bool {
	n := s.NumSlots()
	for i := uint16(0); i < n; i++ {
		if off, _ := s.slot(i); off == deadOffset {
			return true
		}
	}
	return false
}

// CanFit reports whether a record of n bytes can be inserted, possibly after
// compaction.
func (s Slotted) CanFit(n int) bool { return n <= s.FreeSpace() && n <= MaxRecordSize }

// Insert stores rec in the page and returns its slot. It reuses dead slots
// and compacts the page if fragmentation prevents an otherwise possible
// insert. Returns ErrPageFull if the record cannot fit.
func (s Slotted) Insert(rec []byte) (uint16, error) {
	if len(rec) > MaxRecordSize {
		return 0, fmt.Errorf("%w: record of %d bytes exceeds max %d", ErrPageFull, len(rec), MaxRecordSize)
	}
	slot, reused := s.findDeadSlot()
	need := len(rec)
	if !reused {
		need += slotSize
	}
	if s.contiguousFree() < need {
		if s.contiguousFree()+s.deadBytes() < need {
			return 0, ErrPageFull
		}
		s.Compact()
		if s.contiguousFree() < need {
			return 0, ErrPageFull
		}
	}
	if !reused {
		slot = s.NumSlots()
		s.setNumSlots(slot + 1)
	}
	start := s.dataStartInt() - len(rec)
	copy(s.P[start:], rec)
	s.setDataStart(start)
	s.setSlot(slot, uint16(start), uint16(len(rec)))
	return slot, nil
}

func (s Slotted) findDeadSlot() (uint16, bool) {
	n := s.NumSlots()
	for i := uint16(0); i < n; i++ {
		if off, _ := s.slot(i); off == deadOffset {
			return i, true
		}
	}
	return 0, false
}

// Delete marks slot i dead. The slot entry remains so other slots keep their
// numbers; the record bytes are reclaimed by a later compaction.
func (s Slotted) Delete(i uint16) error {
	if !s.Live(i) {
		return fmt.Errorf("%w: delete slot %d", ErrNoSuchSlot, i)
	}
	s.setSlot(i, deadOffset, 0)
	return nil
}

// Update replaces the record in slot i with rec, keeping the slot number. If
// rec does not fit even after compaction, ErrPageFull is returned and the
// original record is preserved.
func (s Slotted) Update(i uint16, rec []byte) error {
	if !s.Live(i) {
		return fmt.Errorf("%w: update slot %d", ErrNoSuchSlot, i)
	}
	off, length := s.slot(i)
	if int(off) < slotBase || int(off)+int(length) > PageSize {
		return fmt.Errorf("%w: slot %d spans [%d,%d)", ErrCorruptPage, i, off, int(off)+int(length))
	}
	if len(rec) <= int(length) {
		// Shrink or same-size: overwrite in place. The leftover bytes become
		// dead space reclaimed by compaction.
		copy(s.P[off:], rec)
		s.setSlot(i, off, uint16(len(rec)))
		return nil
	}
	if len(rec) > MaxRecordSize {
		return fmt.Errorf("%w: record of %d bytes exceeds max %d", ErrPageFull, len(rec), MaxRecordSize)
	}
	// Grow. The new record needs len(rec) contiguous bytes once the old one
	// is released; if even compaction cannot provide them the page is left
	// untouched.
	if s.contiguousFree()+s.deadBytes()+int(length) < len(rec) {
		return ErrPageFull
	}
	if s.contiguousFree() >= len(rec) {
		// Fits below the record area as it stands: the old bytes become dead
		// space reclaimed by a later compaction.
		start := s.dataStartInt() - len(rec)
		copy(s.P[start:], rec)
		s.setDataStart(start)
		s.setSlot(i, uint16(start), uint16(len(rec)))
		return nil
	}
	// Compact with the old record packed last, so it sits directly above the
	// free space and stays intact until the new record is known to fit over
	// it; on a well-formed page it always does.
	s.compact(int(i))
	off, length = s.slot(i)
	if off == deadOffset {
		return fmt.Errorf("%w: slot %d dropped compacting an oversubscribed page", ErrCorruptPage, i)
	}
	start := int(off) + int(length) - len(rec)
	if start < slotBase+int(s.NumSlots())*slotSize {
		return ErrPageFull
	}
	copy(s.P[start:], rec)
	s.setDataStart(start)
	s.setSlot(i, uint16(start), uint16(len(rec)))
	return nil
}

// Compact rewrites all live records contiguously at the end of the page,
// eliminating dead space. Slot numbers are unchanged.
func (s Slotted) Compact() { s.compact(-1) }

// compact packs the live records at the end of the page in slot order, except
// that slot last (if it is a live slot) is placed after all the others, at the
// lowest address. Records are copied out of a stack image of the page, so
// compaction allocates nothing.
func (s Slotted) compact(last int) {
	scratch := *s.P
	n := s.NumSlots()
	slotEnd := slotBase + int(n)*slotSize
	start := PageSize
	place := func(i uint16) {
		off, length := s.slot(i)
		if off == deadOffset {
			return
		}
		if int(off) < slotBase || int(off)+int(length) > PageSize || start-int(length) < slotEnd {
			// A corrupted extent is unrecoverable, and corrupted lengths can
			// oversubscribe the page: the slot is dropped rather than copying
			// out of bounds or over the slot directory. Validate reports the
			// damage to callers that care.
			s.setSlot(i, deadOffset, 0)
			return
		}
		start -= int(length)
		copy(s.P[start:], scratch[int(off):int(off)+int(length)])
		s.setSlot(i, uint16(start), length)
	}
	for i := uint16(0); i < n; i++ {
		if int(i) != last {
			place(i)
		}
	}
	if last >= 0 && last < int(n) {
		place(uint16(last))
	}
	s.setDataStart(start)
}

// Validate checks the page's structural invariants — magic, slot count,
// data-start bounds, and every live slot's record extent — and returns an
// ErrCorruptPage-wrapped error describing the first violation. Accessors are
// individually hardened against corrupted images (they clamp or error rather
// than panic); Validate is the explicit check for callers that want to reject
// a damaged page up front.
func (s Slotted) Validate() error {
	if !s.IsFormatted() {
		return fmt.Errorf("%w: bad magic %04x", ErrCorruptPage,
			binary.LittleEndian.Uint16(s.P[offMagic:]))
	}
	rawSlots := binary.LittleEndian.Uint16(s.P[offNumSlots:])
	if rawSlots > maxSlotCount {
		return fmt.Errorf("%w: slot count %d exceeds max %d", ErrCorruptPage, rawSlots, maxSlotCount)
	}
	ds := s.dataStart()
	dsInt := int(ds)
	if dsInt == 0 {
		dsInt = PageSize
	}
	slotEnd := slotBase + int(rawSlots)*slotSize
	if dsInt > PageSize || dsInt < slotEnd {
		return fmt.Errorf("%w: data start %d outside [%d,%d]", ErrCorruptPage, dsInt, slotEnd, PageSize)
	}
	for i := uint16(0); i < rawSlots; i++ {
		off, length := s.slot(i)
		if off == deadOffset {
			continue
		}
		if int(off) < dsInt || int(off)+int(length) > PageSize {
			return fmt.Errorf("%w: slot %d spans [%d,%d) outside record area [%d,%d)",
				ErrCorruptPage, i, off, int(off)+int(length), dsInt, PageSize)
		}
	}
	return nil
}
