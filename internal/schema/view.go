package schema

import (
	"encoding/binary"
	"fmt"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// View reads the base fields and hidden replicated values of one encoded
// object in place, without materializing an Object. Reset makes one
// structural pass over the encoding that accepts exactly the byte strings
// Decode accepts (type tag, every field bound, hidden kinds, link modes,
// extension counts, no trailing bytes) and records where each value starts;
// the accessors then read single values out of the record.
//
// A View keeps a reference to the bytes it was reset over and reuses its
// offset tables across Resets, so one View serves a whole scan without
// allocating. It is not safe for concurrent use; a parallel scan gives each
// worker its own.
type View struct {
	t      *Type
	buf    []byte
	off    []int // off[i]: where base field i's encoding starts in buf
	hidden []hiddenAt
}

// hiddenAt locates one hidden value of the extension section.
type hiddenAt struct {
	pathID, fieldIdx uint8
	kind             Kind
	off              int
}

// Reset points the view at data, an encoded object of type t. On error the
// view must not be read until a later Reset succeeds.
//
// The base fields are walked along the widths NewType computed, with one
// bounds check per string, before its length is read. Nothing else is read,
// and offsets only grow, so a field that runs past the end is caught by the
// next string's check or by the final length check. Anything rejected is
// handed to resetErr, which builds the error.
func (v *View) Reset(t *Type, data []byte) error {
	if len(data) < 3 || binary.LittleEndian.Uint16(data) != t.Tag {
		return v.resetErr(t, data)
	}
	n := len(t.Fields)
	if cap(v.off) < n {
		v.off = make([]int, n)
	}
	v.t, v.buf, v.off, v.hidden = t, data, v.off[:n], v.hidden[:0]
	off, pos := v.off, 3
	for i, w := range t.widths {
		off[i] = pos
		if w == 0 {
			if pos+2 > len(data) {
				return v.resetErr(t, data)
			}
			w = 2 + int(binary.LittleEndian.Uint16(data[pos:]))
		}
		pos += w
	}
	if data[2]&extFlag != 0 {
		d := decoder{buf: data, pos: pos}
		if v.resetExtension(&d) != nil {
			return v.resetErr(t, data)
		}
		pos = d.pos
	}
	if pos != len(data) {
		return v.resetErr(t, data)
	}
	return nil
}

// resetErr reports why Reset rejected data. It re-runs the walk with a
// bounds check per field, so the error names the first field and byte at
// fault.
func (v *View) resetErr(t *Type, data []byte) error {
	tag, err := DecodeTag(data)
	if err != nil {
		return err
	}
	if tag != t.Tag {
		return fmt.Errorf("schema: object tag %d is not type %s (tag %d)", tag, t.Name, t.Tag)
	}
	d := decoder{buf: data, pos: 3}
	for i := range t.Fields {
		if err := d.skip(t.Fields[i].Kind); err != nil {
			return fmt.Errorf("schema: decoding %s.%s: %w", t.Name, t.Fields[i].Name, err)
		}
	}
	if data[2]&extFlag != 0 {
		if err := v.resetExtension(&d); err != nil {
			return err
		}
	}
	return fmt.Errorf("schema: %d trailing bytes after %s object", len(data)-d.pos, t.Name)
}

// resetExtension walks the extension section, recording the hidden values and
// checking the bounds of the link pairs and S′ entries the view never reads.
func (v *View) resetExtension(d *decoder) error {
	nHidden, err := d.u8()
	if err != nil {
		return err
	}
	for i := 0; i < int(nHidden); i++ {
		if err := d.need(3); err != nil {
			return err
		}
		h := hiddenAt{pathID: d.buf[d.pos], fieldIdx: d.buf[d.pos+1], kind: Kind(d.buf[d.pos+2]), off: d.pos + 3}
		d.pos += 3
		if err := d.skip(h.kind); err != nil {
			return fmt.Errorf("schema: decoding hidden value: %w", err)
		}
		v.hidden = append(v.hidden, h)
	}
	nLinks, err := d.u8()
	if err != nil {
		return err
	}
	for i := 0; i < int(nLinks); i++ {
		if err := d.need(2); err != nil {
			return err
		}
		mode := d.buf[d.pos+1]
		d.pos += 2
		oids := 1
		switch mode {
		case LinkModeObject:
		case LinkModeInline:
			count, err := d.u8()
			if err != nil {
				return err
			}
			oids = int(count)
		default:
			return fmt.Errorf("schema: unknown link mode %d", mode)
		}
		if err := d.need(oids * pagefile.OIDSize); err != nil {
			return err
		}
		d.pos += oids * pagefile.OIDSize
	}
	nSeps, err := d.u8()
	if err != nil {
		return err
	}
	// Each entry: u8 group ID, S′ OID, u32 refcount.
	if err := d.need(int(nSeps) * (1 + pagefile.OIDSize + 4)); err != nil {
		return err
	}
	d.pos += int(nSeps) * (1 + pagefile.OIDSize + 4)
	return nil
}

// skip advances past one encoded value of kind k, with Decode's bounds.
func (d *decoder) skip(k Kind) error {
	n := 8
	switch k {
	case KindInt, KindFloat:
	case KindString:
		if err := d.need(2); err != nil {
			return err
		}
		n = 2 + int(binary.LittleEndian.Uint16(d.buf[d.pos:]))
	case KindRef:
		n = pagefile.OIDSize
	default:
		return fmt.Errorf("invalid kind %d", k)
	}
	if err := d.need(n); err != nil {
		return err
	}
	d.pos += n
	return nil
}

// Field materializes base field i, as Decode would have.
func (v *View) Field(i int) Value { return v.valueAt(v.t.Fields[i].Kind, v.off[i]) }

// Ref returns base field i, which must be a reference attribute.
func (v *View) Ref(i int) pagefile.OID { return v.oidAt(v.off[i]) }

// GetHidden materializes the hidden value for (pathID, fieldIdx), as
// Object.GetHidden does on the decoded object.
func (v *View) GetHidden(pathID, fieldIdx uint8) (Value, bool) {
	if h := v.findHidden(pathID, fieldIdx); h != nil {
		return v.valueAt(h.kind, h.off), true
	}
	return Value{}, false
}

// CompareField orders base field i against c (-1, 0, +1) without
// materializing the field. c must be of the field's kind.
func (v *View) CompareField(i int, c Value) int { return v.compareAt(v.off[i], c) }

// CompareHidden orders the hidden value for (pathID, fieldIdx) against c
// without materializing it. ok is false when the object carries no such
// hidden value or carries one of another kind than c.
func (v *View) CompareHidden(pathID, fieldIdx uint8, c Value) (cmp int, ok bool) {
	h := v.findHidden(pathID, fieldIdx)
	if h == nil || h.kind != c.Kind {
		return 0, false
	}
	return v.compareAt(h.off, c), true
}

// HiddenEqual reports whether the hidden value for (pathID, fieldIdx) equals
// c as Value.Equal has it, without materializing a string. ok is false when
// the object carries no such hidden value or carries one of another kind.
func (v *View) HiddenEqual(pathID, fieldIdx uint8, c Value) (equal, ok bool) {
	h := v.findHidden(pathID, fieldIdx)
	if h == nil || h.kind != c.Kind {
		return false, false
	}
	if c.Kind == KindString {
		return string(v.stringAt(h.off)) == c.S, true
	}
	return v.valueAt(h.kind, h.off).Equal(c), true
}

// PatchHidden overwrites, in the bytes the view was reset over, the hidden
// values of path pathID named by vals' field indexes with vals' values. It
// writes all of them or none: when one is absent, or is encoded with another
// kind or width than its new value, it changes nothing and reports false, and
// the object must be decoded and re-encoded instead. The bytes written are
// those Encode writes, so a patched record equals the one SetHidden and
// Encode produce, and the view reads the new values.
func (v *View) PatchHidden(pathID uint8, vals map[uint8]Value) bool {
	for idx, val := range vals {
		h := v.findHidden(pathID, idx)
		if h == nil || h.kind != val.Kind || v.widthAt(h.kind, h.off) != val.width() {
			return false
		}
	}
	for idx, val := range vals {
		h := v.findHidden(pathID, idx)
		// The width is unchanged, so appending at h.off overwrites in place.
		appendValue(v.buf[h.off:h.off], val.Kind, val)
	}
	return true
}

// widthAt is the encoded width of the value of kind k that starts at off.
func (v *View) widthAt(k Kind, off int) int {
	if k == KindString {
		return 2 + int(binary.LittleEndian.Uint16(v.buf[off:]))
	}
	return Value{Kind: k}.width()
}

func (v *View) findHidden(pathID, fieldIdx uint8) *hiddenAt {
	for i := range v.hidden {
		if h := &v.hidden[i]; h.pathID == pathID && h.fieldIdx == fieldIdx {
			return h
		}
	}
	return nil
}

// valueAt decodes the value of kind k whose encoding starts at off. Reset
// has already checked its bounds.
func (v *View) valueAt(k Kind, off int) Value {
	switch k {
	case KindInt:
		return IntValue(int64(binary.LittleEndian.Uint64(v.buf[off:])))
	case KindFloat:
		return FloatValue(floatFrom(binary.LittleEndian.Uint64(v.buf[off:])))
	case KindString:
		return StringValue(string(v.stringAt(off)))
	default: // KindRef: Reset admits no other kind
		return RefValue(v.oidAt(off))
	}
}

func (v *View) stringAt(off int) []byte {
	n := int(binary.LittleEndian.Uint16(v.buf[off:]))
	return v.buf[off+2 : off+2+n]
}

func (v *View) oidAt(off int) pagefile.OID {
	oid, _ := pagefile.DecodeOID(v.buf[off:]) // length checked by Reset
	return oid
}

// compareAt orders the value of c's kind encoded at off against c.
func (v *View) compareAt(off int, c Value) int {
	switch c.Kind {
	case KindInt:
		return cmpOrdered(int64(binary.LittleEndian.Uint64(v.buf[off:])), c.I)
	case KindFloat:
		return cmpOrdered(floatFrom(binary.LittleEndian.Uint64(v.buf[off:])), c.F)
	case KindString:
		// A conversion that is only compared does not allocate.
		b := v.stringAt(off)
		switch {
		case string(b) == c.S:
			return 0
		case string(b) < c.S:
			return -1
		}
		return 1
	default:
		return v.oidAt(off).Compare(c.R)
	}
}
