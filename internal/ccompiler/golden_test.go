package ccompiler

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mealib/internal/descriptor"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestBindCallGolden pins the parameter blocks bindCall encodes for every
// opcode, and its errors.
func TestBindCallGolden(t *testing.T) {
	buf := func(name string) SymField { return bufField(BufRef{Name: name}) }
	b := &Binding{
		Buffers: map[string]BoundBuffer{
			"x": {PA: 0x1000, Elems: 64}, "y": {PA: 0x2000, Elems: 48},
			"z": {PA: 0x3000, Elems: 16}, "rp": {PA: 0x4000, Elems: 11},
			"ci": {PA: 0x5000, Elems: 30}, "v": {PA: 0x6000, Elems: 30},
		},
		Ints:   map[string]int64{"n": 16, "m": 4, "k": 3},
		Floats: map[string]float32{"alpha": 0.5},
	}
	strided := map[int][4]int64{2: {0, 0, 64, 4}, 3: {0, 128, 0, -8}, 4: {0, 0, 0, 4}}
	cases := []struct {
		name    string
		op      descriptor.OpCode
		fields  []SymField
		strides map[int][4]int64
		offsets map[int][]offsetTerm
	}{
		{"axpy", descriptor.OpAXPY, []SymField{intField("n"), f32Field("alpha"), buf("x"), buf("y"), intField("1"), intField("-2")},
			strided, map[int][]offsetTerm{3: {{Expr: "k", Mult: 4}}}},
		{"dot-real", descriptor.OpDOT, []SymField{intField("n"), intField("0"), buf("x"), buf("y"), buf("z"), intField("1"), intField("1")},
			strided, nil},
		{"dot-complex", descriptor.OpDOT, []SymField{intField("n"), intField("1"), buf("x"), buf("y"), buf("z"), intField("1"), intField("2")},
			map[int][4]int64{4: {0, 0, 8, 0}}, nil},
		{"dot-flag-two", descriptor.OpDOT, []SymField{intField("n"), intField("2"), buf("x"), buf("y"), buf("z"), intField("1"), intField("1")},
			nil, nil},
		{"gemv", descriptor.OpGEMV, []SymField{intField("m"), intField("n"), f32Field("alpha"), f32Field("1.0"), buf("x"), intField("n+2"), buf("y"), buf("z")},
			map[int][4]int64{4: {0, 0, 0, 256}, 6: {0, 0, 0, 64}, 7: {0, 0, 0, 16}}, map[int][]offsetTerm{6: {{Expr: "m", Mult: 4}, {Expr: "k", Mult: 8}}}},
		{"spmv", descriptor.OpSPMV, []SymField{intField("m"), intField("__cols_x"), intField("__nnz_v"), buf("rp"), buf("ci"), buf("v"), buf("x"), buf("y")},
			nil, nil},
		{"resmp", descriptor.OpRESMP, []SymField{intField("n"), intField("2*n"), intField("0"), buf("x"), buf("y")},
			map[int][4]int64{3: {0, 0, 0, 64}, 4: {0, 0, 0, 128}}, nil},
		{"fft", descriptor.OpFFT, []SymField{intField("n"), intField("0"), intField("(1)*(m)"), buf("x"), buf("x")},
			map[int][4]int64{3: {0, 0, 512, 0}, 4: {0, 0, 512, 0}}, nil},
		{"fft-inverse-three", descriptor.OpFFT, []SymField{intField("n"), intField("3"), intField("m"), buf("x"), buf("y")},
			nil, nil},
		{"reshp", descriptor.OpRESHP, []SymField{intField("m"), intField("(m)*(k)"), intField("1"), buf("x"), buf("y")},
			nil, map[int][]offsetTerm{4: {{Expr: "n", Mult: 8}}}},
		{"unbound-buffer", descriptor.OpAXPY, []SymField{intField("n"), f32Field("alpha"), buf("w"), buf("y"), intField("1"), intField("1")},
			nil, nil},
		{"undefined-int", descriptor.OpRESMP, []SymField{intField("n"), intField("q"), intField("0"), buf("x"), buf("y")},
			nil, nil},
		{"undefined-float", descriptor.OpGEMV, []SymField{intField("m"), intField("n"), f32Field("beta"), f32Field("1.0"), buf("x"), intField("n"), buf("y"), buf("z")},
			nil, nil},
		{"bad-offset", descriptor.OpFFT, []SymField{intField("n"), intField("0"), intField("m"), buf("x"), buf("y")},
			nil, map[int][]offsetTerm{4: {{Expr: "nope", Mult: 8}}}},
		{"unknown-op", descriptor.OpCode(99), []SymField{intField("n")}, nil, nil},
	}
	var out strings.Builder
	for _, c := range cases {
		pc := &PlannedCall{
			Sym:      &SymCall{Op: c.op, Name: c.name, Fields: c.fields},
			ParamRef: "p",
			Strides:  c.strides,
			Offsets:  c.offsets,
		}
		p, err := bindCall(pc, b)
		fmt.Fprintf(&out, "%s: %x err=%v\n", c.name, []uint64(p), err)
	}
	path := filepath.Join("testdata", "bind_golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		t.Errorf("bindCall outputs differ from %s:\n got:\n%s\nwant:\n%s", path, got, want)
	}
}
