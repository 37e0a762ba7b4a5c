package schema

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Object encoding:
//
//	u16 type-tag
//	u8  flags (bit0: extension section present)
//	base fields, in declaration order:
//	    int:    8 bytes LE
//	    float:  8 bytes LE (IEEE bits)
//	    string: u16 length + bytes
//	    ref:    10-byte OID (zero OID = null)
//	extension section (if flagged):
//	    u8 nHidden, each: u8 pathID, u8 fieldIdx, u8 kind, value (as above)
//	    u8 nLinks,  each: u8 linkID, u8 mode,
//	                      mode 0: 10-byte link OID
//	                      mode 1: u8 count, count * 10-byte OIDs
//	    u8 nSeps,   each: u8 groupID, 10-byte S′ OID, u32 refcount
const extFlag = 1

// Encode serializes the object.
func (o *Object) Encode() []byte {
	buf := make([]byte, 3, 64)
	binary.LittleEndian.PutUint16(buf[0:2], o.Type.Tag)
	hasExt := len(o.Hidden) > 0 || len(o.Links) > 0 || len(o.Seps) > 0
	if hasExt {
		buf[2] = extFlag
	}
	for i, f := range o.Type.Fields {
		buf = appendValue(buf, f.Kind, o.Values[i])
	}
	if !hasExt {
		return buf
	}
	buf = append(buf, uint8(len(o.Hidden)))
	for _, h := range o.Hidden {
		buf = append(buf, h.PathID, h.FieldIdx, uint8(h.Value.Kind))
		buf = appendValue(buf, h.Value.Kind, h.Value)
	}
	buf = append(buf, uint8(len(o.Links)))
	for _, lp := range o.Links {
		buf = append(buf, lp.LinkID, lp.Mode)
		switch lp.Mode {
		case LinkModeObject:
			buf = lp.LinkOID.AppendTo(buf)
		case LinkModeInline:
			buf = append(buf, uint8(len(lp.Inline)))
			for _, oid := range lp.Inline {
				buf = oid.AppendTo(buf)
			}
		}
	}
	buf = append(buf, uint8(len(o.Seps)))
	for _, se := range o.Seps {
		buf = append(buf, se.GroupID)
		buf = se.SOID.AppendTo(buf)
		var rc [4]byte
		binary.LittleEndian.PutUint32(rc[:], se.RefCount)
		buf = append(buf, rc[:]...)
	}
	return buf
}

// width is the number of bytes appendValue writes for v.
func (v Value) width() int {
	switch v.Kind {
	case KindString:
		return 2 + len(v.S)
	case KindRef:
		return pagefile.OIDSize
	default:
		return 8
	}
}

func appendValue(buf []byte, k Kind, v Value) []byte {
	switch k {
	case KindInt:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v.I))
		return append(buf, b[:]...)
	case KindFloat:
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], floatBits(v.F))
		return append(buf, b[:]...)
	case KindString:
		var b [2]byte
		binary.LittleEndian.PutUint16(b[:], uint16(len(v.S)))
		buf = append(buf, b[:]...)
		return append(buf, v.S...)
	case KindRef:
		return v.R.AppendTo(buf)
	default:
		panic(fmt.Sprintf("schema: encoding invalid kind %v", k))
	}
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFrom(bits uint64) float64 { return math.Float64frombits(bits) }

// DecodeTag extracts the type-tag from an encoded object.
func DecodeTag(data []byte) (uint16, error) {
	if len(data) < 3 {
		return 0, fmt.Errorf("schema: object encoding of %d bytes is too short", len(data))
	}
	return binary.LittleEndian.Uint16(data[0:2]), nil
}

// Decode deserializes an object of the given type.
func Decode(t *Type, data []byte) (*Object, error) {
	tag, err := DecodeTag(data)
	if err != nil {
		return nil, err
	}
	if tag != t.Tag {
		return nil, fmt.Errorf("schema: object tag %d is not type %s (tag %d)", tag, t.Name, t.Tag)
	}
	hasExt := data[2]&extFlag != 0
	d := decoder{buf: data, pos: 3}
	o := &Object{Type: t, Values: make([]Value, len(t.Fields))}
	for i, f := range t.Fields {
		v, err := d.value(f.Kind)
		if err != nil {
			return nil, fmt.Errorf("schema: decoding %s.%s: %w", t.Name, f.Name, err)
		}
		o.Values[i] = v
	}
	if !hasExt {
		if d.pos != len(data) {
			return nil, fmt.Errorf("schema: %d trailing bytes after %s object", len(data)-d.pos, t.Name)
		}
		return o, nil
	}
	nHidden, err := d.u8()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nHidden); i++ {
		pathID, err := d.u8()
		if err != nil {
			return nil, err
		}
		fieldIdx, err := d.u8()
		if err != nil {
			return nil, err
		}
		kindB, err := d.u8()
		if err != nil {
			return nil, err
		}
		v, err := d.value(Kind(kindB))
		if err != nil {
			return nil, fmt.Errorf("schema: decoding hidden value: %w", err)
		}
		o.Hidden = append(o.Hidden, HiddenValue{PathID: pathID, FieldIdx: fieldIdx, Value: v})
	}
	nLinks, err := d.u8()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nLinks); i++ {
		linkID, err := d.u8()
		if err != nil {
			return nil, err
		}
		mode, err := d.u8()
		if err != nil {
			return nil, err
		}
		lp := LinkPair{LinkID: linkID, Mode: mode}
		switch mode {
		case LinkModeObject:
			lp.LinkOID, err = d.oid()
			if err != nil {
				return nil, err
			}
		case LinkModeInline:
			count, err := d.u8()
			if err != nil {
				return nil, err
			}
			for j := 0; j < int(count); j++ {
				oid, err := d.oid()
				if err != nil {
					return nil, err
				}
				lp.Inline = append(lp.Inline, oid)
			}
		default:
			return nil, fmt.Errorf("schema: unknown link mode %d", mode)
		}
		o.Links = append(o.Links, lp)
	}
	nSeps, err := d.u8()
	if err != nil {
		return nil, err
	}
	for i := 0; i < int(nSeps); i++ {
		groupID, err := d.u8()
		if err != nil {
			return nil, err
		}
		soid, err := d.oid()
		if err != nil {
			return nil, err
		}
		rc, err := d.u32()
		if err != nil {
			return nil, err
		}
		o.Seps = append(o.Seps, SepEntry{GroupID: groupID, SOID: soid, RefCount: rc})
	}
	if d.pos != len(data) {
		return nil, fmt.Errorf("schema: %d trailing bytes after %s object", len(data)-d.pos, t.Name)
	}
	return o, nil
}

type decoder struct {
	buf []byte
	pos int
}

func (d *decoder) need(n int) error {
	if d.pos+n > len(d.buf) {
		return fmt.Errorf("truncated encoding at byte %d (need %d of %d)", d.pos, n, len(d.buf))
	}
	return nil
}

func (d *decoder) u8() (uint8, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

func (d *decoder) u16() (uint16, error) {
	if err := d.need(2); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

func (d *decoder) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

func (d *decoder) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

func (d *decoder) oid() (pagefile.OID, error) {
	if err := d.need(pagefile.OIDSize); err != nil {
		return pagefile.OID{}, err
	}
	oid, err := pagefile.DecodeOID(d.buf[d.pos:])
	if err != nil {
		return pagefile.OID{}, err
	}
	d.pos += pagefile.OIDSize
	return oid, nil
}

func (d *decoder) value(k Kind) (Value, error) {
	switch k {
	case KindInt:
		v, err := d.u64()
		if err != nil {
			return Value{}, err
		}
		return IntValue(int64(v)), nil
	case KindFloat:
		v, err := d.u64()
		if err != nil {
			return Value{}, err
		}
		return FloatValue(floatFrom(v)), nil
	case KindString:
		n, err := d.u16()
		if err != nil {
			return Value{}, err
		}
		if err := d.need(int(n)); err != nil {
			return Value{}, err
		}
		s := string(d.buf[d.pos : d.pos+int(n)])
		d.pos += int(n)
		return StringValue(s), nil
	case KindRef:
		oid, err := d.oid()
		if err != nil {
			return Value{}, err
		}
		return RefValue(oid), nil
	default:
		return Value{}, fmt.Errorf("invalid kind %d", k)
	}
}
