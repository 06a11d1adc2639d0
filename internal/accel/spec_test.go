package accel

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
)

// TestSpecTableComplete: every valid opcode has a table entry whose
// parameter-block length is the one its decoder accepts, and nothing else
// has an entry.
func TestSpecTableComplete(t *testing.T) {
	for op := descriptor.OpCode(0); op < 255; op++ {
		e := SpecOf(op)
		if !op.Valid() {
			if e != nil {
				t.Errorf("%v is not a valid opcode but has a table entry", op)
			}
			continue
		}
		if e == nil {
			t.Errorf("%v has no table entry", op)
			continue
		}
		if e.Op != op {
			t.Errorf("entry of %v describes %v", op, e.Op)
		}
		if _, err := e.canon(make(descriptor.Params, e.NumParams)); err != nil {
			t.Errorf("%v: %d fields per the layout, but the decoder says: %v", op, e.NumParams, err)
		}
		for _, n := range []int{e.NumParams - 1, e.NumParams + 1} {
			if _, err := e.canon(make(descriptor.Params, n)); err == nil {
				t.Errorf("%v: the decoder accepts %d fields, the layout has %d", op, n, e.NumParams)
			}
		}
	}
}

// decodeTyped runs op's exported decoder, the other statement of each
// parameter block's layout.
func decodeTyped(op descriptor.OpCode, p descriptor.Params) (any, error) {
	switch op {
	case descriptor.OpAXPY:
		return DecodeAxpyArgs(p)
	case descriptor.OpDOT:
		return DecodeDotArgs(p)
	case descriptor.OpGEMV:
		return DecodeGemvArgs(p)
	case descriptor.OpSPMV:
		return DecodeSpmvArgs(p)
	case descriptor.OpRESMP:
		return DecodeResmpArgs(p)
	case descriptor.OpFFT:
		return DecodeFFTArgs(p)
	case descriptor.OpRESHP:
		return DecodeReshpArgs(p)
	}
	return nil, fmt.Errorf("no typed decoder for %v", op)
}

// TestSpecFieldsMatchDecoders: each entry's field layout agrees with its
// decoder field by field. A block holding a distinct value in every field
// (int fields negative, so a field read as f32 or a flag loses bits) must
// re-encode unchanged, and the decoded argument struct must hold each
// value in the field of the same name and kind, each stride block in the
// LoopStride field of its address, and nothing else.
func TestSpecFieldsMatchDecoders(t *testing.T) {
	addrType := reflect.TypeOf(phys.Addr(0))
	stridesType := reflect.TypeOf(Strides{})
	for op := descriptor.OpCode(0); op < 255; op++ {
		e := SpecOf(op)
		if e == nil {
			continue
		}
		p := make(descriptor.Params, e.NumParams)
		for i, f := range e.Fields {
			switch f.Kind {
			case FieldInt:
				p[i] = i64Field(-7 * int64(i+2))
			case FieldFlag:
				p[i] = 1
			case FieldF32:
				p[i] = descriptor.F32Field(float32(i) + 0.5)
			case FieldAddr:
				p[i] = descriptor.AddrField(phys.Addr(i+1) << 16)
			}
		}
		for i := len(e.Fields); i < len(p); i++ {
			p[i] = i64Field(int64(100*i - 1))
		}
		if got, err := e.canon(p); err != nil || !slices.Equal(got, p) {
			t.Errorf("%v: block %v re-encodes as %v (err %v)", op, p, got, err)
			continue
		}
		a, err := decodeTyped(op, p)
		if err != nil {
			t.Errorf("%v: %v", op, err)
			continue
		}
		v := reflect.ValueOf(a)
		field := func(name string) (reflect.Value, bool) {
			for j := 0; j < v.NumField(); j++ {
				if strings.EqualFold(v.Type().Field(j).Name, name) {
					return v.Field(j), true
				}
			}
			return reflect.Value{}, false
		}
		seen, stride := 0, len(e.Fields)
		for i, f := range e.Fields {
			fv, ok := field(f.Name)
			if !ok {
				t.Errorf("%v: field %d %q has no counterpart in %v", op, i, f.Name, v.Type())
				continue
			}
			seen++
			var match bool
			switch f.Kind {
			case FieldInt:
				match = fv.CanInt() && fv.Int() == i64Of(p[i])
			case FieldFlag:
				match = fv.Kind() == reflect.Bool && fv.Bool()
			case FieldF32:
				match = fv.Kind() == reflect.Float32 && float32(fv.Float()) == descriptor.F32Of(p[i])
			case FieldAddr:
				match = fv.Type() == addrType && phys.Addr(fv.Uint()) == descriptor.AddrOf(p[i])
			}
			if !match {
				t.Errorf("%v: field %d %q (kind %d) decodes as %v %v", op, i, f.Name, f.Kind, fv.Type(), fv)
			}
			if !f.Strided {
				continue
			}
			sv, ok := field("LoopStride" + f.Name)
			want := stridesOf(p[stride:])
			if !ok || sv.Type() != stridesType || sv.Interface().(Strides) != want {
				t.Errorf("%v: strides of %q at field %d: decoder has %v, want %v", op, f.Name, stride, sv, want)
			}
			seen++
			stride += descriptor.MaxLoopLevels
		}
		if seen != v.NumField() {
			t.Errorf("%v: layout names %d of the %d fields of %v", op, seen, v.NumField(), v.Type())
		}
		set, _, err := e.operands(p, false)
		if err != nil {
			t.Errorf("%v: %v", op, err)
			continue
		}
		for _, o := range set.ops[:set.n] {
			if fv, ok := field(o.Name); !ok || fv.Type() != addrType || phys.Addr(fv.Uint()) != o.Addr {
				t.Errorf("%v: operand %s at %#x, decoder's field %v", op, o.Name, o.Addr, fv)
			}
		}
	}
}
