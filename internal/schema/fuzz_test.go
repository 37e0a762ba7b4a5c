package schema

import (
	"math"
	"testing"

	"github.com/exodb/fieldrepl/internal/pagefile"
)

// FuzzDecode asserts the object decoder never panics on arbitrary bytes — it
// must either produce an object or return an error — and, differentially,
// that the in-place View agrees with it: Reset accepts exactly the byte
// strings Decode accepts and every base and hidden value reads back equal.
func FuzzDecode(f *testing.F) {
	typ, err := NewType("EMP", 3, []Field{
		{Name: "name", Kind: KindString},
		{Name: "age", Kind: KindInt},
		{Name: "dept", Kind: KindRef, RefType: "DEPT"},
	})
	if err != nil {
		f.Fatal(err)
	}
	o := NewObject(typ)
	o.Set("name", StringValue("seed"))
	o.Set("age", IntValue(1))
	o.SetHidden(1, 0, StringValue("R"))
	o.SetLink(LinkPair{LinkID: 1, Mode: LinkModeInline, Inline: []pagefile.OID{{File: 1}}})
	o.SetSep(SepEntry{GroupID: 2, RefCount: 3})
	f.Add(o.Encode())
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1})
	o.SetHidden(1, 0, FloatValue(2.5))
	o.SetHidden(2, 0xFF, RefValue(pagefile.OID{File: 4, Page: 5, Slot: 6}))
	o.SetLink(LinkPair{LinkID: 2, Mode: LinkModeObject, LinkOID: pagefile.OID{File: 7}})
	f.Add(o.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		obj, err := Decode(typ, data)
		var view View
		if verr := view.Reset(typ, data); (verr == nil) != (err == nil) {
			t.Fatalf("Decode: %v, but View.Reset: %v", err, verr)
		}
		if err == nil {
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
			// A successful decode must re-encode without panicking and
			// decode back to the same field values.
			back, err2 := Decode(typ, obj.Encode())
			if err2 != nil {
				t.Fatalf("re-decode failed: %v", err2)
			}
			for i := range obj.Values {
				if !obj.Values[i].Equal(back.Values[i]) {
					t.Fatalf("value %d changed across round trip", i)
				}
			}
		}
	})
}

// sameValue is Value.Equal with floats compared by bits, so NaNs match.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.R == b.R
}
