// Package schema implements the EXTRA-style data model layer: named types
// with scalar and reference attributes, typed values, and a binary object
// encoding that carries a type-tag, the base fields, and a hidden extension
// section used by field replication.
//
// The extension section is the storage-level realization of the paper's
// "structural changes handled through subtyping" (§4): replicated hidden
// values, the (link-OID, link-ID) pairs of objects on replication paths
// (§4.1.3), and the (S′-OID, refcount) entries of separate replication (§5.2)
// all live there, invisible to the query language.
package schema

import (
	"errors"
	"fmt"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// Kind enumerates field/value kinds.
type Kind uint8

// Supported kinds.
const (
	KindInvalid Kind = iota
	KindInt          // int64
	KindFloat        // float64
	KindString       // variable-length string
	KindRef          // reference attribute: OID of another object
)

func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindRef:
		return "ref"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// ErrTypeMismatch is returned when a value's kind does not match the
// declared kind of the field it is assigned to.
var ErrTypeMismatch = errors.New("schema: value kind does not match field kind")

// Field describes one attribute of a type.
type Field struct {
	Name    string
	Kind    Kind
	RefType string // target type name when Kind == KindRef
}

// Type is a named object type, the analogue of an EXTRA "define type".
type Type struct {
	Name   string
	Tag    uint16 // type-tag stored in every object
	Fields []Field

	byName map[string]int
	// widths[i] is base field i's encoded width, 0 for a string, which
	// carries its own length: the record layout View.Reset walks.
	widths []int
}

// fixedWidth is the encoded width of a value of kind k, 0 for a string.
func fixedWidth(k Kind) int {
	switch k {
	case KindString:
		return 0
	case KindRef:
		return pagefile.OIDSize
	}
	return 8
}

// NewType validates and constructs a type definition.
func NewType(name string, tag uint16, fields []Field) (*Type, error) {
	if name == "" {
		return nil, errors.New("schema: type needs a name")
	}
	if len(fields) == 0 {
		return nil, fmt.Errorf("schema: type %s has no fields", name)
	}
	byName := make(map[string]int, len(fields))
	widths := make([]int, len(fields))
	for i, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("schema: type %s: field %d has no name", name, i)
		}
		if _, dup := byName[f.Name]; dup {
			return nil, fmt.Errorf("schema: type %s: duplicate field %q", name, f.Name)
		}
		switch f.Kind {
		case KindInt, KindFloat, KindString:
			if f.RefType != "" {
				return nil, fmt.Errorf("schema: type %s: scalar field %q has a ref type", name, f.Name)
			}
		case KindRef:
			if f.RefType == "" {
				return nil, fmt.Errorf("schema: type %s: ref field %q needs a target type", name, f.Name)
			}
		default:
			return nil, fmt.Errorf("schema: type %s: field %q has invalid kind", name, f.Name)
		}
		byName[f.Name] = i
		widths[i] = fixedWidth(f.Kind)
	}
	return &Type{Name: name, Tag: tag, Fields: fields, byName: byName, widths: widths}, nil
}

// FieldIndex returns the index of the named field, or -1.
func (t *Type) FieldIndex(name string) int {
	if i, ok := t.byName[name]; ok {
		return i
	}
	return -1
}

// Field returns the named field.
func (t *Type) Field(name string) (Field, bool) {
	i := t.FieldIndex(name)
	if i < 0 {
		return Field{}, false
	}
	return t.Fields[i], true
}

// ScalarFields returns the indexes of all non-ref fields, in declaration
// order. Full-object replication ("path.all") replicates exactly these.
func (t *Type) ScalarFields() []int {
	var out []int
	for i, f := range t.Fields {
		if f.Kind != KindRef {
			out = append(out, i)
		}
	}
	return out
}

// Value is a typed value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	R    pagefile.OID
}

// IntValue returns an int value.
func IntValue(v int64) Value { return Value{Kind: KindInt, I: v} }

// FloatValue returns a float value.
func FloatValue(v float64) Value { return Value{Kind: KindFloat, F: v} }

// StringValue returns a string value.
func StringValue(v string) Value { return Value{Kind: KindString, S: v} }

// RefValue returns a reference value; a nil OID is a null reference.
func RefValue(oid pagefile.OID) Value { return Value{Kind: KindRef, R: oid} }

// Equal reports whether two values have the same kind and contents.
func (v Value) Equal(w Value) bool { return v == w }

// Compare orders v against w, a value of the same kind: -1, 0 or +1.
// Integers, floats and strings order naturally (a NaN orders equal to
// everything), references physically.
func (v Value) Compare(w Value) int {
	switch v.Kind {
	case KindInt:
		return cmpOrdered(v.I, w.I)
	case KindFloat:
		return cmpOrdered(v.F, w.F)
	case KindString:
		return cmpOrdered(v.S, w.S)
	default:
		return v.R.Compare(w.R)
	}
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func (v Value) String() string {
	switch v.Kind {
	case KindInt:
		return fmt.Sprintf("%d", v.I)
	case KindFloat:
		return fmt.Sprintf("%g", v.F)
	case KindString:
		return fmt.Sprintf("%q", v.S)
	case KindRef:
		if v.R.IsNil() {
			return "ref(nil)"
		}
		return fmt.Sprintf("ref(%v)", v.R)
	default:
		return "invalid"
	}
}

// Zero returns the zero value of kind k.
func Zero(k Kind) Value { return Value{Kind: k} }

// HiddenValue is a replicated value stored invisibly in an object: the value
// of replicated field FieldIdx of the terminal type of replication path
// PathID. For separate replication the hidden value is a ref to the S′
// object instead of the data itself.
type HiddenValue struct {
	PathID   uint8
	FieldIdx uint8
	Value    Value
}

// Link pair modes.
const (
	LinkModeObject = 0 // LinkOID names a link object holding the referrers
	LinkModeInline = 1 // Inline holds the referrer OIDs directly (§4.3.1)
)

// LinkPair is the paper's (link-OID, link-ID) pair stored in objects along a
// replication path (§4.1.3). When only a few objects refer to this object,
// the link object is eliminated and the referrer OIDs are stored inline
// (§4.3.1).
type LinkPair struct {
	LinkID  uint8
	Mode    uint8
	LinkOID pagefile.OID   // LinkModeObject
	Inline  []pagefile.OID // LinkModeInline, kept sorted
}

// SepEntry is the separate-replication bookkeeping an S object carries: the
// OID of its shared replicated-value object, and a count of the source-set
// objects currently referencing it (§5.2).
type SepEntry struct {
	GroupID  uint8
	SOID     pagefile.OID
	RefCount uint32
}

// Object is a decoded object: base field values plus the hidden extension.
type Object struct {
	Type   *Type
	Values []Value
	Hidden []HiddenValue
	Links  []LinkPair
	Seps   []SepEntry
}

// NewObject returns an object of type t with zero values in every field.
func NewObject(t *Type) *Object {
	vals := make([]Value, len(t.Fields))
	for i, f := range t.Fields {
		vals[i] = Zero(f.Kind)
	}
	return &Object{Type: t, Values: vals}
}

// Get returns the value of the named base field.
func (o *Object) Get(name string) (Value, bool) {
	i := o.Type.FieldIndex(name)
	if i < 0 {
		return Value{}, false
	}
	return o.Values[i], true
}

// Set assigns the named base field, checking the kind.
func (o *Object) Set(name string, v Value) error {
	i := o.Type.FieldIndex(name)
	if i < 0 {
		return fmt.Errorf("schema: type %s has no field %q", o.Type.Name, name)
	}
	if o.Type.Fields[i].Kind != v.Kind {
		return fmt.Errorf("%w: field %s.%s is %s, not %s", ErrTypeMismatch, o.Type.Name, name, o.Type.Fields[i].Kind, v.Kind)
	}
	o.Values[i] = v
	return nil
}

// GetHidden returns the hidden value for (pathID, fieldIdx).
func (o *Object) GetHidden(pathID, fieldIdx uint8) (Value, bool) {
	for _, h := range o.Hidden {
		if h.PathID == pathID && h.FieldIdx == fieldIdx {
			return h.Value, true
		}
	}
	return Value{}, false
}

// SetHidden stores or replaces the hidden value for (pathID, fieldIdx).
func (o *Object) SetHidden(pathID, fieldIdx uint8, v Value) {
	for i := range o.Hidden {
		if o.Hidden[i].PathID == pathID && o.Hidden[i].FieldIdx == fieldIdx {
			o.Hidden[i].Value = v
			return
		}
	}
	o.Hidden = append(o.Hidden, HiddenValue{PathID: pathID, FieldIdx: fieldIdx, Value: v})
}

// DropHiddenPath removes all hidden values belonging to pathID, reporting
// whether there were any.
func (o *Object) DropHiddenPath(pathID uint8) bool {
	out := o.Hidden[:0]
	for _, h := range o.Hidden {
		if h.PathID != pathID {
			out = append(out, h)
		}
	}
	dropped := len(out) != len(o.Hidden)
	o.Hidden = out
	return dropped
}

// FindLink returns a pointer to the link pair for linkID, or nil.
func (o *Object) FindLink(linkID uint8) *LinkPair {
	for i := range o.Links {
		if o.Links[i].LinkID == linkID {
			return &o.Links[i]
		}
	}
	return nil
}

// SetLink stores or replaces the link pair for lp.LinkID.
func (o *Object) SetLink(lp LinkPair) {
	for i := range o.Links {
		if o.Links[i].LinkID == lp.LinkID {
			o.Links[i] = lp
			return
		}
	}
	o.Links = append(o.Links, lp)
}

// RemoveLink deletes the link pair for linkID, reporting whether it existed.
func (o *Object) RemoveLink(linkID uint8) bool {
	for i := range o.Links {
		if o.Links[i].LinkID == linkID {
			o.Links = append(o.Links[:i], o.Links[i+1:]...)
			return true
		}
	}
	return false
}

// FindSep returns a pointer to the separate-replication entry for groupID.
func (o *Object) FindSep(groupID uint8) *SepEntry {
	for i := range o.Seps {
		if o.Seps[i].GroupID == groupID {
			return &o.Seps[i]
		}
	}
	return nil
}

// SetSep stores or replaces the entry for se.GroupID.
func (o *Object) SetSep(se SepEntry) {
	for i := range o.Seps {
		if o.Seps[i].GroupID == se.GroupID {
			o.Seps[i] = se
			return
		}
	}
	o.Seps = append(o.Seps, se)
}

// RemoveSep deletes the entry for groupID, reporting whether it existed.
func (o *Object) RemoveSep(groupID uint8) bool {
	for i := range o.Seps {
		if o.Seps[i].GroupID == groupID {
			o.Seps = append(o.Seps[:i], o.Seps[i+1:]...)
			return true
		}
	}
	return false
}

// Clone returns a deep copy of the object.
func (o *Object) Clone() *Object {
	c := &Object{Type: o.Type}
	c.Values = append([]Value(nil), o.Values...)
	c.Hidden = append([]HiddenValue(nil), o.Hidden...)
	c.Links = make([]LinkPair, len(o.Links))
	for i, lp := range o.Links {
		c.Links[i] = lp
		c.Links[i].Inline = append([]pagefile.OID(nil), lp.Inline...)
	}
	c.Seps = append([]SepEntry(nil), o.Seps...)
	return c
}
