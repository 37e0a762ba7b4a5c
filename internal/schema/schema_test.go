package schema

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

func empType(t *testing.T) *Type {
	t.Helper()
	typ, err := NewType("EMP", 3, []Field{
		{Name: "name", Kind: KindString},
		{Name: "age", Kind: KindInt},
		{Name: "salary", Kind: KindFloat},
		{Name: "dept", Kind: KindRef, RefType: "DEPT"},
	})
	if err != nil {
		t.Fatal(err)
	}
	return typ
}

func TestNewTypeValidation(t *testing.T) {
	cases := []struct {
		name   string
		fields []Field
		substr string
	}{
		{"", []Field{{Name: "x", Kind: KindInt}}, "needs a name"},
		{"T", nil, "no fields"},
		{"T", []Field{{Name: "", Kind: KindInt}}, "no name"},
		{"T", []Field{{Name: "a", Kind: KindInt}, {Name: "a", Kind: KindInt}}, "duplicate"},
		{"T", []Field{{Name: "a", Kind: KindInt, RefType: "X"}}, "has a ref type"},
		{"T", []Field{{Name: "a", Kind: KindRef}}, "needs a target"},
		{"T", []Field{{Name: "a", Kind: Kind(99)}}, "invalid kind"},
	}
	for _, c := range cases {
		_, err := NewType(c.name, 1, c.fields)
		if err == nil || !strings.Contains(err.Error(), c.substr) {
			t.Errorf("NewType(%q, %v): err = %v, want containing %q", c.name, c.fields, err, c.substr)
		}
	}
}

func TestObjectGetSet(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	if err := o.Set("name", StringValue("Alice")); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("age", IntValue(30)); err != nil {
		t.Fatal(err)
	}
	if err := o.Set("age", StringValue("oops")); err == nil {
		t.Fatal("kind mismatch accepted")
	}
	if err := o.Set("missing", IntValue(1)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if v, _ := o.Get("name"); v.S != "Alice" {
		t.Fatalf("name = %v", v)
	}
	if _, ok := o.Get("nothere"); ok {
		t.Fatal("Get of missing field ok")
	}
	if typ.FieldIndex("salary") != 2 {
		t.Fatal("FieldIndex wrong")
	}
	if got := typ.ScalarFields(); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("ScalarFields = %v", got)
	}
}

func TestEncodeDecodeBase(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.Set("name", StringValue("Bob Jones"))
	o.Set("age", IntValue(-7))
	o.Set("salary", FloatValue(123456.75))
	o.Set("dept", RefValue(pagefile.OID{File: 2, Page: 9, Slot: 4}))

	data := o.Encode()
	got, err := Decode(typ, data)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Values, o.Values) {
		t.Fatalf("values: got %v, want %v", got.Values, o.Values)
	}
	if len(got.Hidden)+len(got.Links)+len(got.Seps) != 0 {
		t.Fatal("unexpected extension data")
	}
	tag, err := DecodeTag(data)
	if err != nil || tag != 3 {
		t.Fatalf("DecodeTag = %d, %v", tag, err)
	}
}

func TestEncodeDecodeExtension(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.Set("name", StringValue("Carol"))
	o.SetHidden(1, 0, StringValue("Research"))
	o.SetHidden(1, 1, IntValue(900000))
	o.SetHidden(2, 0, RefValue(pagefile.OID{File: 5, Page: 1, Slot: 2}))
	o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeObject, LinkOID: pagefile.OID{File: 9, Page: 8, Slot: 7}})
	o.SetLink(LinkPair{LinkID: 3, Mode: LinkModeInline, Inline: []pagefile.OID{
		{File: 1, Page: 1, Slot: 1},
		{File: 1, Page: 2, Slot: 0},
	}})
	o.SetSep(SepEntry{GroupID: 4, SOID: pagefile.OID{File: 6, Page: 5, Slot: 4}, RefCount: 17})

	got, err := Decode(typ, o.Encode())
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if !reflect.DeepEqual(got.Hidden, o.Hidden) {
		t.Fatalf("hidden: got %v, want %v", got.Hidden, o.Hidden)
	}
	if !reflect.DeepEqual(got.Links, o.Links) {
		t.Fatalf("links: got %v, want %v", got.Links, o.Links)
	}
	if !reflect.DeepEqual(got.Seps, o.Seps) {
		t.Fatalf("seps: got %v, want %v", got.Seps, o.Seps)
	}
}

func TestDecodeErrors(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.Set("name", StringValue("Dave"))
	data := o.Encode()

	if _, err := Decode(typ, data[:1]); err == nil {
		t.Fatal("short decode succeeded")
	}
	if _, err := Decode(typ, data[:5]); err == nil {
		t.Fatal("truncated decode succeeded")
	}
	other, _ := NewType("ORG", 99, []Field{{Name: "x", Kind: KindInt}})
	if _, err := Decode(other, data); err == nil {
		t.Fatal("wrong-type decode succeeded")
	}
	if _, err := Decode(typ, append(data, 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestHiddenHelpers(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.SetHidden(1, 0, IntValue(10))
	o.SetHidden(1, 1, IntValue(20))
	o.SetHidden(2, 0, IntValue(30))
	o.SetHidden(1, 0, IntValue(11)) // replace
	if v, ok := o.GetHidden(1, 0); !ok || v.I != 11 {
		t.Fatalf("GetHidden(1,0) = %v, %v", v, ok)
	}
	if _, ok := o.GetHidden(9, 0); ok {
		t.Fatal("GetHidden of absent path ok")
	}
	o.DropHiddenPath(1)
	if len(o.Hidden) != 1 || o.Hidden[0].PathID != 2 {
		t.Fatalf("after DropHiddenPath: %v", o.Hidden)
	}
}

func TestLinkAndSepHelpers(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeObject, LinkOID: pagefile.OID{File: 1}})
	o.SetLink(LinkPair{LinkID: 2, Mode: LinkModeInline})
	if lp := o.FindLink(2); lp == nil || lp.Mode != LinkModeInline {
		t.Fatal("FindLink(2) failed")
	}
	o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeInline}) // replace
	if lp := o.FindLink(1); lp.Mode != LinkModeInline {
		t.Fatal("SetLink did not replace")
	}
	if !o.RemoveLink(1) || o.FindLink(1) != nil {
		t.Fatal("RemoveLink failed")
	}
	if o.RemoveLink(1) {
		t.Fatal("RemoveLink of absent link reported true")
	}

	o.SetSep(SepEntry{GroupID: 1, RefCount: 1})
	o.SetSep(SepEntry{GroupID: 1, RefCount: 2})
	if se := o.FindSep(1); se == nil || se.RefCount != 2 {
		t.Fatal("SetSep did not replace")
	}
	if !o.RemoveSep(1) || o.FindSep(1) != nil {
		t.Fatal("RemoveSep failed")
	}
}

func TestClone(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.Set("name", StringValue("Eve"))
	o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeInline, Inline: []pagefile.OID{{File: 1}}})
	c := o.Clone()
	c.Set("name", StringValue("Mallory"))
	c.Links[0].Inline[0] = pagefile.OID{File: 99}
	if v, _ := o.Get("name"); v.S != "Eve" {
		t.Fatal("clone shares values")
	}
	if o.Links[0].Inline[0].File != 1 {
		t.Fatal("clone shares inline OID slice")
	}
}

// TestEncodePropertyRoundTrip: arbitrary field contents round trip.
func TestEncodePropertyRoundTrip(t *testing.T) {
	typ := empType(t)
	f := func(name string, age int64, salary float64, file uint32, page uint32, slot uint16) bool {
		if len(name) > 60000 {
			name = name[:60000]
		}
		if math.IsNaN(salary) {
			salary = 0
		}
		o := NewObject(typ)
		o.Set("name", StringValue(name))
		o.Set("age", IntValue(age))
		o.Set("salary", FloatValue(salary))
		o.Set("dept", RefValue(pagefile.OID{File: pagefile.FileID(file), Page: page, Slot: slot}))
		got, err := Decode(typ, o.Encode())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got.Values, o.Values)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestValueString(t *testing.T) {
	cases := map[string]Value{
		"7":        IntValue(7),
		"1.5":      FloatValue(1.5),
		`"hi"`:     StringValue("hi"),
		"ref(nil)": RefValue(pagefile.NilOID),
	}
	for want, v := range cases {
		if got := v.String(); got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
	if !IntValue(7).Equal(IntValue(7)) || IntValue(7).Equal(IntValue(8)) {
		t.Fatal("Equal broken")
	}
}

// TestViewMatchesDecode checks the in-place view against the decoder on an
// object with every extension kind: every truncation and a trailing byte are
// rejected by both, the whole encoding reads back equal field by field, the
// in-place comparisons order like the values, and a warmed-up view neither
// resets nor compares with an allocation.
func TestViewMatchesDecode(t *testing.T) {
	typ := empType(t)
	o := NewObject(typ)
	o.Set("name", StringValue("a name longer than thirty-two bytes, to defeat stack temporaries"))
	o.Set("age", IntValue(-3))
	o.Set("salary", FloatValue(2.5))
	o.Set("dept", RefValue(pagefile.OID{File: 2, Page: 7, Slot: 3}))
	o.SetHidden(1, 0, StringValue("Research"))
	o.SetHidden(2, 0xFF, RefValue(pagefile.OID{File: 9, Page: 1}))
	o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeObject, LinkOID: pagefile.OID{File: 9, Page: 1}})
	o.SetLink(LinkPair{LinkID: 2, Mode: LinkModeInline, Inline: []pagefile.OID{{File: 1}, {File: 2}}})
	o.SetSep(SepEntry{GroupID: 2, SOID: pagefile.OID{File: 5}, RefCount: 3})
	data := o.Encode()

	var v View
	for n := 0; n <= len(data)+1; n++ {
		cut := append(append([]byte(nil), data...), 0)[:n]
		_, derr := Decode(typ, cut)
		if verr := v.Reset(typ, cut); (verr == nil) != (derr == nil) {
			t.Fatalf("%d of %d bytes: Decode %v, View.Reset %v", n, len(data), derr, verr)
		}
	}
	other, _ := NewType("ORG", 99, []Field{{Name: "x", Kind: KindInt}})
	if err := v.Reset(other, data); err == nil {
		t.Fatal("wrong-type reset succeeded")
	}

	if err := v.Reset(typ, data); err != nil {
		t.Fatal(err)
	}
	for i, want := range o.Values {
		if got := v.Field(i); !got.Equal(want) {
			t.Fatalf("field %d = %v, want %v", i, got, want)
		}
	}
	dept, _ := o.Get("dept")
	oname, _ := o.Get("name")
	if got := v.Ref(typ.FieldIndex("dept")); got != dept.R {
		t.Fatalf("Ref = %v", got)
	}
	for _, h := range o.Hidden {
		if got, ok := v.GetHidden(h.PathID, h.FieldIdx); !ok || !got.Equal(h.Value) {
			t.Fatalf("hidden (%d,%d) = %v, %v, want %v", h.PathID, h.FieldIdx, got, ok, h.Value)
		}
	}
	if _, ok := v.GetHidden(1, 1); ok {
		t.Fatal("GetHidden of an absent field ok")
	}
	if _, ok := v.CompareHidden(1, 0, IntValue(1)); ok {
		t.Fatal("CompareHidden against another kind ok")
	}
	for _, c := range []struct {
		field string
		c     Value
		want  int
	}{
		{"age", IntValue(-4), 1}, {"age", IntValue(-3), 0}, {"age", IntValue(0), -1},
		{"salary", FloatValue(2), 1}, {"salary", FloatValue(2.5), 0}, {"salary", FloatValue(3), -1},
		{"name", StringValue("a"), 1}, {"name", oname, 0}, {"name", StringValue("b"), -1},
	} {
		if got := v.CompareField(typ.FieldIndex(c.field), c.c); got != c.want {
			t.Errorf("CompareField(%s, %v) = %d, want %d", c.field, c.c, got, c.want)
		}
	}
	if got, ok := v.CompareHidden(1, 0, StringValue("Sales")); !ok || got != -1 {
		t.Errorf("CompareHidden = %d, %v", got, ok)
	}

	name, longer := typ.FieldIndex("name"), StringValue(oname.S+"!")
	if allocs := testing.AllocsPerRun(100, func() {
		if err := v.Reset(typ, data); err != nil {
			t.Fatal(err)
		}
		if v.CompareField(name, longer) >= 0 || v.Ref(typ.FieldIndex("dept")).IsNil() {
			t.Fatal("wrong comparison")
		}
		if _, ok := v.CompareHidden(1, 0, longer); !ok {
			t.Fatal("hidden value lost")
		}
	}); allocs != 0 {
		t.Fatalf("reset + compare allocates %.0f times", allocs)
	}
}
