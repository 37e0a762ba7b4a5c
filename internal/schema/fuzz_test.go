package schema

import (
	"fmt"
	"math"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// fuzzTypes are the types FuzzDecode holds View to Decode on: one that opens
// with a string, and one whose fixed-width fields all come before its only
// string, so Reset's constant-offset prefix is exercised too.
func fuzzTypes(tb testing.TB) []*Type {
	tb.Helper()
	emp, err := NewType("EMP", 3, []Field{
		{Name: "name", Kind: KindString},
		{Name: "age", Kind: KindInt},
		{Name: "dept", Kind: KindRef, RefType: "DEPT"},
	})
	if err != nil {
		tb.Fatal(err)
	}
	staff, err := NewType("STAFF", 4, []Field{
		{Name: "age", Kind: KindInt},
		{Name: "dept", Kind: KindRef, RefType: "DEPT"},
		{Name: "score", Kind: KindFloat},
		{Name: "name", Kind: KindString},
	})
	if err != nil {
		tb.Fatal(err)
	}
	return []*Type{emp, staff}
}

// fuzzSeeds returns encodings of objects of each type, with and without an
// extension section, each also truncated after every base field.
func fuzzSeeds(types []*Type) [][]byte {
	seeds := [][]byte{{}, {3, 0, 1}, {4, 0, 0}}
	for _, typ := range types {
		o := NewObject(typ)
		o.Set("name", StringValue("seed"))
		o.Set("age", IntValue(1))
		o.Set("dept", RefValue(pagefile.OID{File: 2, Page: 3, Slot: 4}))
		objs := []*Object{o.Clone()}
		o.SetHidden(1, 0, StringValue("R"))
		o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeInline, Inline: []pagefile.OID{{File: 1}}})
		o.SetSep(SepEntry{GroupID: 2, RefCount: 3})
		objs = append(objs, o.Clone())
		o.SetHidden(1, 0, FloatValue(2.5))
		o.SetHidden(2, 0xFF, RefValue(pagefile.OID{File: 4, Page: 5, Slot: 6}))
		o.SetLink(LinkPair{LinkID: 2, Mode: LinkModeObject, LinkOID: pagefile.OID{File: 7}})
		objs = append(objs, o)
		for _, obj := range objs {
			enc := obj.Encode()
			seeds = append(seeds, enc)
			pos := 3
			for i, f := range typ.Fields {
				pos += len(appendValue(nil, f.Kind, obj.Values[i]))
				seeds = append(seeds, enc[:pos])
			}
		}
	}
	return seeds
}

// FuzzDecode asserts the object decoder never panics on arbitrary bytes — it
// must either produce an object or return an error — and, differentially,
// that the in-place View agrees with it: Reset accepts exactly the byte
// strings Decode accepts, with the error texts of oracleReset, and every base
// and hidden value reads back equal. Every input is tried as an object of each of fuzzTypes.
func FuzzDecode(f *testing.F) {
	types := fuzzTypes(f)
	for _, seed := range fuzzSeeds(types) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, typ := range types {
			checkView(t, typ, data)
		}
	})
}

func checkView(t *testing.T, typ *Type, data []byte) {
	obj, err := Decode(typ, data)
	var view, oracle View
	verr := view.Reset(typ, data)
	if (verr == nil) != (err == nil) {
		t.Fatalf("%s: Decode: %v, but View.Reset: %v", typ.Name, err, verr)
	}
	if oerr := oracleReset(&oracle, typ, data); fmt.Sprint(oerr) != fmt.Sprint(verr) {
		t.Fatalf("%s: View.Reset: %v, but the field-by-field walk: %v", typ.Name, verr, oerr)
	}
	if err != nil {
		return
	}
	for i, want := range obj.Values {
		if got := view.Field(i); !sameValue(got, want) || view.CompareField(i, want) != 0 {
			t.Fatalf("field %d: view reads %v (compare %d), Decode %v", i, got, view.CompareField(i, want), want)
		}
	}
	for _, h := range obj.Hidden {
		want, _ := obj.GetHidden(h.PathID, h.FieldIdx) // the first of duplicates
		got, ok := view.GetHidden(h.PathID, h.FieldIdx)
		cmp, cok := view.CompareHidden(h.PathID, h.FieldIdx, want)
		if !ok || !sameValue(got, want) || !cok || cmp != 0 {
			t.Fatalf("hidden (%d,%d): view reads %v, %v (compare %d, %v), Decode %v", h.PathID, h.FieldIdx, got, ok, cmp, cok, want)
		}
	}
	if _, absent := obj.GetHidden(0xEE, 0xEE); !absent {
		if _, ok := view.GetHidden(0xEE, 0xEE); ok {
			t.Fatal("view found a hidden value Decode did not")
		}
	}
	// A successful decode must re-encode without panicking and decode back
	// to the same field values.
	back, err2 := Decode(typ, obj.Encode())
	if err2 != nil {
		t.Fatalf("re-decode failed: %v", err2)
	}
	for i := range obj.Values {
		if !sameValue(obj.Values[i], back.Values[i]) {
			t.Fatalf("value %d changed across round trip", i)
		}
	}
}

// sameValue is Value.Equal with floats compared by bits, so NaNs match.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.R == b.R
}
