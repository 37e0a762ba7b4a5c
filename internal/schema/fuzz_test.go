package schema

import (
	"bytes"
	"fmt"
	"math"
	"strings"
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
// Its patch leg (checkPatch) overwrites each hidden value of an accepted
// input with one built from n and s.
func FuzzDecode(f *testing.F) {
	types := fuzzTypes(f)
	for i, seed := range fuzzSeeds(types) {
		f.Add(seed, int64(i)<<40|int64(i), strings.Repeat("v", i%5))
	}
	f.Fuzz(func(t *testing.T, data []byte, n int64, s string) {
		for _, typ := range types {
			if obj := checkView(t, typ, data); obj != nil {
				checkPatch(t, typ, data, obj, n, s)
			}
		}
	})
}

// checkView holds View to Decode on data and returns the decoded object, or
// nil when both reject it.
func checkView(t *testing.T, typ *Type, data []byte) *Object {
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
		return nil
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
	return obj
}

// checkPatch patches every hidden value of obj, the decoding of data, with
// values of its kind built from n and s: s as given and s fitted to the old
// width for a string. PatchHidden must refuse, leaving the bytes alone,
// exactly when the encoded width changes. Otherwise the patched bytes must
// decode to obj with SetHidden applied, a View reset over them must read the
// new value, and a patch of obj's own encoding must give the very bytes
// SetHidden and Encode give.
func checkPatch(t *testing.T, typ *Type, data []byte, obj *Object, n int64, s string) {
	canon := obj.Encode()
	for _, h := range obj.Hidden {
		old, _ := obj.GetHidden(h.PathID, h.FieldIdx) // the first of duplicates
		for _, nv := range patchValues(old, n, s) {
			want := obj.Clone()
			want.SetHidden(h.PathID, h.FieldIdx, nv)
			wantEnc := want.Encode()
			for _, in := range [][]byte{data, canon} {
				buf := append([]byte(nil), in...)
				var v View
				if err := v.Reset(typ, buf); err != nil {
					t.Fatalf("%s: Decode accepted what Reset rejects: %v", typ.Name, err)
				}
				ok := v.PatchHidden(h.PathID, map[uint8]Value{h.FieldIdx: nv})
				if fits := nv.width() == old.width(); ok != fits {
					t.Fatalf("hidden (%d,%d) %v -> %v: PatchHidden %v, width kept %v", h.PathID, h.FieldIdx, old, nv, ok, fits)
				}
				if !ok {
					if !bytes.Equal(buf, in) {
						t.Fatal("a refused patch changed the record")
					}
					continue
				}
				if got, ok := v.GetHidden(h.PathID, h.FieldIdx); !ok || !sameValue(got, nv) {
					t.Fatalf("the patched view reads %v, %v; want %v", got, ok, nv)
				}
				var back View
				if err := back.Reset(typ, buf); err != nil {
					t.Fatalf("the patched record no longer resets: %v", err)
				}
				if got, ok := back.GetHidden(h.PathID, h.FieldIdx); !ok || !sameValue(got, nv) {
					t.Fatalf("a view over the patched record reads %v, %v; want %v", got, ok, nv)
				}
				dec, err := Decode(typ, buf)
				if err != nil {
					t.Fatalf("the patched record no longer decodes: %v", err)
				}
				if !bytes.Equal(dec.Encode(), wantEnc) {
					t.Fatalf("patched record re-encodes to % x, SetHidden and Encode give % x", dec.Encode(), wantEnc)
				}
				if bytes.Equal(in, canon) && !bytes.Equal(buf, wantEnc) {
					t.Fatalf("patched record % x, SetHidden and Encode give % x", buf, wantEnc)
				}
			}
		}
	}
}

// patchValues are the values checkPatch tries in place of old: one of old's
// kind from n, or for a string s and s cut or padded to old's length.
func patchValues(old Value, n int64, s string) []Value {
	switch old.Kind {
	case KindInt:
		return []Value{IntValue(n)}
	case KindFloat:
		return []Value{FloatValue(math.Float64frombits(uint64(n)))}
	case KindRef:
		return []Value{RefValue(pagefile.OID{File: pagefile.FileID(n), Page: uint32(n >> 24), Slot: uint16(n >> 48)})}
	}
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16]
	}
	fitted := s
	if len(fitted) > len(old.S) {
		fitted = fitted[:len(old.S)]
	}
	fitted += strings.Repeat("\x00", len(old.S)-len(fitted))
	return []Value{StringValue(s), StringValue(fitted)}
}

// sameValue is Value.Equal with floats compared by bits, so NaNs match.
func sameValue(a, b Value) bool {
	return a.Kind == b.Kind && a.I == b.I && math.Float64bits(a.F) == math.Float64bits(b.F) && a.S == b.S && a.R == b.R
}
