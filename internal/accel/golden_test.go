package accel

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mealib/internal/descriptor"
	"mealib/internal/phys"
	"mealib/internal/units"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// checkGolden compares got with testdata/name, or rewrites the file under
// -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}

// goldenCase is one invocation the per-op golden test evaluates.
type goldenCase struct {
	name string
	op   descriptor.OpCode
	p    descriptor.Params
}

// goldenCases covers every opcode: real and complex forms, in-place and
// out-of-place aliasing, semiring SPMV with a bias, GEMV with beta == 0,
// negative increments, multi-level loop strides, and undecodable blocks.
func goldenCases() []goldenCase {
	multi := func(a, b, c, d int64) Strides { return Strides{a, b, c, d} }
	return []goldenCase{
		{"axpy", descriptor.OpAXPY, AxpyArgs{N: 100, Alpha: 2, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 2,
			LoopStrideX: Lin(400), LoopStrideY: Lin(800)}.Params()},
		{"axpy-negative-inc-multi", descriptor.OpAXPY, AxpyArgs{N: 50, Alpha: -1.5, X: 0x10000, Y: 0x20000, IncX: -1, IncY: -3,
			LoopStrideX: multi(0, 0, 4096, 200), LoopStrideY: multi(0, 8192, -800, 0)}.Params()},
		{"axpy-empty", descriptor.OpAXPY, AxpyArgs{N: 0, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1}.Params()},
		{"dot-real", descriptor.OpDOT, DotArgs{N: 64, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1,
			LoopStrideX: Lin(256), LoopStrideY: Lin(256), LoopStrideOut: Lin(4)}.Params()},
		{"dot-complex-multi", descriptor.OpDOT, DotArgs{N: 32, Complex: true, X: 0x4000, Y: 0x8000, Out: 0xc000, IncX: 1, IncY: -2,
			LoopStrideX: multi(0, 1024, 0, 256), LoopStrideY: multi(0, 0, -512, 0), LoopStrideOut: multi(0, 64, 0, 8)}.Params()},
		{"gemv-beta0", descriptor.OpGEMV, GemvArgs{M: 4, N: 8, Alpha: 1, Beta: 0, A: 0x1000, Lda: 10, X: 0x2000, Y: 0x3000,
			LoopStrideA: Lin(160), LoopStrideX: Lin(32), LoopStrideY: Lin(16)}.Params()},
		{"gemv-beta1-multi", descriptor.OpGEMV, GemvArgs{M: 3, N: 3, Alpha: 0.5, Beta: 1, A: 0x8000, Lda: 3, X: 0x9000, Y: 0xa000,
			LoopStrideA: multi(0, 0, 36, 0), LoopStrideX: multi(0, 0, 0, 12), LoopStrideY: multi(0, 0, 12, -12)}.Params()},
		{"gemv-empty", descriptor.OpGEMV, GemvArgs{M: 0, N: 8, Lda: 8, A: 0x1000, X: 0x2000, Y: 0x3000}.Params()},
		{"spmv", descriptor.OpSPMV, SpmvArgs{M: 10, Cols: 12, NNZ: 30, RowPtr: 0x1000, ColIdx: 0x2000, Values: 0x3000, X: 0x4000, Y: 0x5000}.Params()},
		{"spmv-minplus-bias", descriptor.OpSPMV, SpmvArgs{M: 6, Cols: 9, NNZ: 14, RowPtr: 0x1000, ColIdx: 0x2000, Values: 0x3000, X: 0x4000, Y: 0x5000,
			Semiring: SpmvMinPlus, Bias: 0.25}.Params()},
		{"resmp-cubic", descriptor.OpRESMP, ResmpArgs{NIn: 10, NOut: 20, Kind: 1, Src: 0x1000, Dst: 0x2000,
			LoopStrideSrc: Lin(40), LoopStrideDst: Lin(80)}.Params()},
		{"resmp-complex-multi", descriptor.OpRESMP, ResmpArgs{NIn: 16, NOut: 24, Kind: ResmpComplex, Src: 0x4000, Dst: 0x8000,
			LoopStrideSrc: multi(0, 0, 1024, 128), LoopStrideDst: multi(0, 0, 2048, 192)}.Params()},
		{"fft-inplace", descriptor.OpFFT, FFTArgs{N: 16, HowMany: 2, Src: 0x1000, Dst: 0x1000,
			LoopStrideSrc: Lin(256), LoopStrideDst: Lin(256)}.Params()},
		{"fft-outofplace-inverse-multi", descriptor.OpFFT, FFTArgs{N: 8, Inverse: true, HowMany: 4, Src: 0x1000, Dst: 0x9000,
			LoopStrideSrc: multi(0, 0, 2048, 256), LoopStrideDst: multi(0, 4096, 0, 256)}.Params()},
		{"reshp-inplace-f32", descriptor.OpRESHP, ReshpArgs{Rows: 4, Cols: 4, Elem: ElemF32, Src: 0x1000, Dst: 0x1000}.Params()},
		{"reshp-outofplace-c64", descriptor.OpRESHP, ReshpArgs{Rows: 3, Cols: 5, Elem: ElemC64, Src: 0x1000, Dst: 0x2000}.Params()},
		{"axpy-straddles-window", descriptor.OpAXPY, AxpyArgs{N: 100, X: 0x8f00, Y: 0x2000, IncX: 1, IncY: 1}.Params()},
		{"dot-raw-flag", descriptor.OpDOT, rawFlag(DotArgs{N: 4, Complex: true, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1,
			LoopStrideX: Lin(32)}.Params(), 1, 5)},
		{"fft-raw-flag", descriptor.OpFFT, rawFlag(FFTArgs{N: 4, Inverse: true, HowMany: 1, Src: 0x1000, Dst: 0x2000,
			LoopStrideDst: Lin(32)}.Params(), 1, 3)},
		{"axpy-short", descriptor.OpAXPY, descriptor.Params{1}},
		{"dot-short", descriptor.OpDOT, descriptor.Params{1, 2}},
		{"gemv-short", descriptor.OpGEMV, descriptor.Params{}},
		{"spmv-short", descriptor.OpSPMV, descriptor.Params{1, 2, 3}},
		{"resmp-short", descriptor.OpRESMP, descriptor.Params{1}},
		{"fft-short", descriptor.OpFFT, descriptor.Params{1}},
		{"reshp-short", descriptor.OpRESHP, descriptor.Params{1}},
		{"invalid-op", descriptor.OpInvalid, nil},
		{"unknown-op", descriptor.OpCode(99), descriptor.Params{1}},
	}
}

// rawFlag stores a non-canonical value in a flag field, which decoders read
// as true.
func rawFlag(p descriptor.Params, field int, v uint64) descriptor.Params {
	p[field] = v
	return p
}

// goldenMap relocates [0x1000, 0x9000) to 0x7000_0000 and rejects
// operands that leave that window.
func goldenMap(a phys.Addr, n units.Bytes) (phys.Addr, error) {
	const lo, hi = phys.Addr(0x1000), phys.Addr(0x9000)
	if a < lo || a >= hi {
		return a, nil
	}
	if a+phys.Addr(n) > hi {
		return 0, fmt.Errorf("%v+%v leaves the window", a, n)
	}
	return a - lo + 0x7000_0000, nil
}

// TestPerOpGolden pins the exact outputs of every per-op consumer in this
// package for the golden cases.
func TestPerOpGolden(t *testing.T) {
	var b strings.Builder
	for _, c := range goldenCases() {
		fmt.Fprintf(&b, "== %s %v %x\n", c.name, c.op, []uint64(c.p))
		w, err := WorkOf(c.op, c.p)
		fmt.Fprintf(&b, "WorkOf: flops=%v in=%d out=%d random=%d err=%v\n", float64(w.Flops), w.InStream, w.OutStream, w.Random, err)
		spans, err := spansOf(c.op, c.p)
		fmt.Fprint(&b, "spansOf:")
		for _, s := range spans {
			fmt.Fprintf(&b, " {%#x %d}", uint64(s.Addr), s.Bytes)
		}
		fmt.Fprintf(&b, " nil=%v err=%v\n", spans == nil, err)
		its := []IterVec{{}}
		for l := 0; l < descriptor.MaxLoopLevels; l++ {
			var it IterVec
			it[l] = 1
			its = append(its, it)
		}
		for _, it := range its {
			io, err := ioSpansOf(c.op, c.p, it)
			fmt.Fprintf(&b, "ioSpansOf%v: %+v nil=%v err=%v\n", it, io, io == nil, err)
		}
		sp, err := shiftedParams(c.op, c.p, IterVec{0, 1, 2, 3})
		fmt.Fprintf(&b, "shiftedParams: %x err=%v\n", []uint64(sp), err)
		rp, err := rebaseComp(c.op, c.p, goldenMap)
		fmt.Fprintf(&b, "rebaseComp: %x err=%v\n", []uint64(rp), err)
		for _, budget := range []units.Bytes{256, 4096} {
			pieces, err := splitOversized(passInstr{op: c.op, params: c.p}, 3*budget, budget)
			fmt.Fprintf(&b, "splitOversized(%d):", budget)
			for _, q := range pieces {
				fmt.Fprintf(&b, " %x", []uint64(q))
			}
			fmt.Fprintf(&b, " err=%v\n", err)
		}
	}
	// Splits that need the larger inputs the cases above do not have.
	for _, c := range []goldenCase{
		{"axpy-big", descriptor.OpAXPY, AxpyArgs{N: 1000, Alpha: 1, X: 0x10000, Y: 0x20000, IncX: 1, IncY: 2}.Params()},
		{"gemv-big", descriptor.OpGEMV, GemvArgs{M: 24, N: 16, Lda: 20, A: 0x10000, X: 0x20000, Y: 0x30000}.Params()},
		{"gemv-one-row", descriptor.OpGEMV, GemvArgs{M: 1, N: 16, Lda: 16, A: 0x10000, X: 0x20000, Y: 0x30000}.Params()},
		{"fft-big-inplace", descriptor.OpFFT, FFTArgs{N: 16, HowMany: 40, Src: 0x10000, Dst: 0x10000}.Params()},
		{"fft-big-outofplace", descriptor.OpFFT, FFTArgs{N: 16, HowMany: 40, Src: 0x10000, Dst: 0x20000}.Params()},
		{"fft-single", descriptor.OpFFT, FFTArgs{N: 1024, HowMany: 1, Src: 0x10000, Dst: 0x10000}.Params()},
	} {
		for _, budget := range []units.Bytes{300, 1000, 100000} {
			pieces, err := splitOversized(passInstr{op: c.op, params: c.p}, 5*budget, budget)
			fmt.Fprintf(&b, "== %s splitOversized(%d):", c.name, budget)
			for _, q := range pieces {
				fmt.Fprintf(&b, " %x", []uint64(q))
			}
			fmt.Fprintf(&b, " err=%v\n", err)
		}
	}
	checkGolden(t, "perop_golden.txt", b.String())
}
