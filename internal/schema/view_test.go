package schema

import (
	"fmt"
	"testing"
)

// oracleReset is View.Reset as a field-by-field walk, one decoder.skip per
// value: the definition the compiled layout must keep to, error texts
// included.
func oracleReset(v *View, t *Type, data []byte) error {
	tag, err := DecodeTag(data)
	if err != nil {
		return err
	}
	if tag != t.Tag {
		return fmt.Errorf("schema: object tag %d is not type %s (tag %d)", tag, t.Name, t.Tag)
	}
	v.t, v.buf, v.off, v.hidden = t, data, v.off[:0], v.hidden[:0]
	d := decoder{buf: data, pos: 3}
	for i := range t.Fields {
		v.off = append(v.off, d.pos)
		if err := d.skip(t.Fields[i].Kind); err != nil {
			return fmt.Errorf("schema: decoding %s.%s: %w", t.Name, t.Fields[i].Name, err)
		}
	}
	if data[2]&extFlag != 0 {
		if err := v.resetExtension(&d); err != nil {
			return err
		}
	}
	if d.pos != len(data) {
		return fmt.Errorf("schema: %d trailing bytes after %s object", len(data)-d.pos, t.Name)
	}
	return nil
}

// TestViewResetErrorsUnchanged holds Reset to the oracle on every seed of
// FuzzDecode, truncated at every byte, with every byte overwritten (which
// re-tags, re-flags and over-lengthens strings and counts), with a byte
// appended, and tagged as the other type: both accept or both reject with
// the same text, and an accepted record has the same offsets.
func TestViewResetErrorsUnchanged(t *testing.T) {
	types := fuzzTypes(t)
	var inputs [][]byte
	for _, seed := range fuzzSeeds(types) {
		for i := 0; i <= len(seed); i++ {
			inputs = append(inputs, seed[:i])
		}
		for i := range seed {
			for _, b := range []byte{0, 1, 3, 4, 0x7F, 0xFF} {
				c := append([]byte(nil), seed...)
				c[i] = b
				inputs = append(inputs, c)
			}
		}
		inputs = append(inputs, append(append([]byte(nil), seed...), 0))
	}
	var rejected int
	for _, data := range inputs {
		for _, typ := range types {
			var got, want View
			gerr, werr := got.Reset(typ, data), oracleReset(&want, typ, data)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("%s % x: Reset says %v, the oracle %v", typ.Name, data, gerr, werr)
			}
			if gerr != nil {
				rejected++
				continue
			}
			if fmt.Sprint(got.off, got.hidden) != fmt.Sprint(want.off, want.hidden) {
				t.Fatalf("%s % x: Reset offsets %v %v, the oracle %v %v", typ.Name, data, got.off, got.hidden, want.off, want.hidden)
			}
		}
	}
	if rejected == 0 || rejected == 2*len(inputs) {
		t.Fatalf("%d of %d resets rejected: the inputs do not exercise both outcomes", rejected, 2*len(inputs))
	}
}
