package tdlcheck

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mealib/internal/accel"
	"mealib/internal/descriptor"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata")

// TestOperandsGolden pins the operand lists and the error text the verifier
// derives from every opcode's parameter block, valid and invalid.
func TestOperandsGolden(t *testing.T) {
	multi := func(a, b, c, d int64) accel.Strides { return accel.Strides{a, b, c, d} }
	nest := descriptor.LoopCounts{1, 2, 3, 4}
	ones := loopCountsOf(nil)
	cases := []struct {
		name   string
		op     descriptor.OpCode
		p      descriptor.Params
		counts descriptor.LoopCounts
	}{
		{"axpy", descriptor.OpAXPY, accel.AxpyArgs{N: 100, Alpha: 2, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 2,
			LoopStrideX: accel.Lin(400), LoopStrideY: accel.Lin(800)}.Params(), nest},
		{"axpy-negative-inc-multi", descriptor.OpAXPY, accel.AxpyArgs{N: 50, X: 0x10000, Y: 0x20000, IncX: -1, IncY: -3,
			LoopStrideX: multi(0, 0, 4096, 200), LoopStrideY: multi(0, 8192, -800, 0)}.Params(), nest},
		{"axpy-zero-n", descriptor.OpAXPY, accel.AxpyArgs{N: 0, X: 0x1000, Y: 0x2000, IncX: 1, IncY: 1}.Params(), ones},
		{"axpy-zero-inc", descriptor.OpAXPY, accel.AxpyArgs{N: 4, X: 0x1000, Y: 0x2000, IncX: 0, IncY: 1}.Params(), ones},
		{"axpy-size-overflow", descriptor.OpAXPY, accel.AxpyArgs{N: 1 << 62, X: 0x1000, Y: 0x2000, IncX: 1, IncY: math.MinInt64}.Params(), ones},
		{"axpy-short", descriptor.OpAXPY, descriptor.Params{1}, ones},
		{"dot-real", descriptor.OpDOT, accel.DotArgs{N: 64, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1,
			LoopStrideX: accel.Lin(256), LoopStrideY: accel.Lin(256), LoopStrideOut: accel.Lin(4)}.Params(), nest},
		{"dot-complex-multi", descriptor.OpDOT, accel.DotArgs{N: 32, Complex: true, X: 0x4000, Y: 0x8000, Out: 0xc000, IncX: 1, IncY: -2,
			LoopStrideX: multi(0, 1024, 0, 256), LoopStrideY: multi(0, 0, -512, 0), LoopStrideOut: multi(0, 64, 0, 8)}.Params(), nest},
		{"dot-negative-n", descriptor.OpDOT, accel.DotArgs{N: -1, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1}.Params(), ones},
		{"dot-zero-inc", descriptor.OpDOT, accel.DotArgs{N: 4, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 0}.Params(), ones},
		{"dot-size-overflow", descriptor.OpDOT, accel.DotArgs{N: 1 << 61, Complex: true, X: 0x1000, Y: 0x2000, Out: 0x3000, IncX: 1, IncY: 1}.Params(), ones},
		{"gemv-beta0", descriptor.OpGEMV, accel.GemvArgs{M: 4, N: 8, Alpha: 1, Beta: 0, A: 0x1000, Lda: 10, X: 0x2000, Y: 0x3000,
			LoopStrideA: accel.Lin(160), LoopStrideX: accel.Lin(32), LoopStrideY: accel.Lin(16)}.Params(), nest},
		{"gemv-beta1-multi", descriptor.OpGEMV, accel.GemvArgs{M: 3, N: 3, Alpha: 0.5, Beta: 1, A: 0x8000, Lda: 3, X: 0x9000, Y: 0xa000,
			LoopStrideA: multi(0, 0, 36, 0), LoopStrideX: multi(0, 0, 0, 12), LoopStrideY: multi(0, 0, 12, -12)}.Params(), nest},
		{"gemv-zero-m", descriptor.OpGEMV, accel.GemvArgs{M: 0, N: 8, Lda: 8, A: 0x1000, X: 0x2000, Y: 0x3000}.Params(), ones},
		{"gemv-short-lda", descriptor.OpGEMV, accel.GemvArgs{M: 2, N: 8, Lda: 7, A: 0x1000, X: 0x2000, Y: 0x3000}.Params(), ones},
		{"gemv-size-overflow", descriptor.OpGEMV, accel.GemvArgs{M: 1 << 40, N: 1 << 30, Lda: 1 << 30, A: 0x1000, X: 0x2000, Y: 0x3000}.Params(), ones},
		{"spmv", descriptor.OpSPMV, accel.SpmvArgs{M: 10, Cols: 12, NNZ: 30, RowPtr: 0x1000, ColIdx: 0x2000, Values: 0x3000, X: 0x4000, Y: 0x5000}.Params(), ones},
		{"spmv-minplus-bias", descriptor.OpSPMV, accel.SpmvArgs{M: 6, Cols: 9, NNZ: 14, RowPtr: 0x1000, ColIdx: 0x2000, Values: 0x3000, X: 0x4000, Y: 0x5000,
			Semiring: accel.SpmvMinPlus, Bias: 0.25}.Params(), ones},
		{"spmv-zero-m", descriptor.OpSPMV, accel.SpmvArgs{M: 0, Cols: 9, NNZ: 14}.Params(), ones},
		{"spmv-negative-nnz", descriptor.OpSPMV, accel.SpmvArgs{M: 3, Cols: 9, NNZ: -1}.Params(), ones},
		{"spmv-bad-semiring", descriptor.OpSPMV, accel.SpmvArgs{M: 3, Cols: 9, NNZ: 1, Semiring: 7}.Params(), ones},
		{"spmv-size-overflow", descriptor.OpSPMV, accel.SpmvArgs{M: math.MaxInt64, Cols: 1 << 62, NNZ: 1 << 62}.Params(), ones},
		{"resmp-cubic", descriptor.OpRESMP, accel.ResmpArgs{NIn: 10, NOut: 20, Kind: 1, Src: 0x1000, Dst: 0x2000,
			LoopStrideSrc: accel.Lin(40), LoopStrideDst: accel.Lin(80)}.Params(), nest},
		{"resmp-complex-multi", descriptor.OpRESMP, accel.ResmpArgs{NIn: 16, NOut: 24, Kind: accel.ResmpComplex, Src: 0x4000, Dst: 0x8000,
			LoopStrideSrc: multi(0, 0, 1024, 128), LoopStrideDst: multi(0, 0, 2048, 192)}.Params(), nest},
		{"resmp-bad-kind", descriptor.OpRESMP, accel.ResmpArgs{NIn: 10, NOut: 20, Kind: 4}.Params(), ones},
		{"resmp-negative-kind", descriptor.OpRESMP, accel.ResmpArgs{NIn: 10, NOut: 20, Kind: -1}.Params(), ones},
		{"resmp-one-input", descriptor.OpRESMP, accel.ResmpArgs{NIn: 1, NOut: 20}.Params(), ones},
		{"resmp-zero-output", descriptor.OpRESMP, accel.ResmpArgs{NIn: 2, NOut: 0}.Params(), ones},
		{"resmp-size-overflow", descriptor.OpRESMP, accel.ResmpArgs{NIn: 1 << 62, NOut: 1 << 61, Kind: 2}.Params(), ones},
		{"fft-inplace", descriptor.OpFFT, accel.FFTArgs{N: 16, HowMany: 2, Src: 0x1000, Dst: 0x1000,
			LoopStrideSrc: accel.Lin(256), LoopStrideDst: accel.Lin(512)}.Params(), nest},
		{"fft-outofplace-multi", descriptor.OpFFT, accel.FFTArgs{N: 8, Inverse: true, HowMany: 4, Src: 0x1000, Dst: 0x9000,
			LoopStrideSrc: multi(0, 0, 2048, 256), LoopStrideDst: multi(0, 4096, 0, 256)}.Params(), nest},
		{"fft-not-pow2", descriptor.OpFFT, accel.FFTArgs{N: 12, HowMany: 1}.Params(), ones},
		{"fft-zero-batch", descriptor.OpFFT, accel.FFTArgs{N: 16, HowMany: 0}.Params(), ones},
		{"fft-size-overflow", descriptor.OpFFT, accel.FFTArgs{N: 1 << 40, HowMany: 1 << 30, Src: 0x1000, Dst: 0x2000}.Params(), ones},
		{"reshp-inplace-f32", descriptor.OpRESHP, accel.ReshpArgs{Rows: 4, Cols: 4, Elem: accel.ElemF32, Src: 0x1000, Dst: 0x1000}.Params(), ones},
		{"reshp-outofplace-c64", descriptor.OpRESHP, accel.ReshpArgs{Rows: 3, Cols: 5, Elem: accel.ElemC64, Src: 0x1000, Dst: 0x2000}.Params(), nest},
		{"reshp-zero-rows", descriptor.OpRESHP, accel.ReshpArgs{Rows: 0, Cols: 5}.Params(), ones},
		{"reshp-bad-elem", descriptor.OpRESHP, accel.ReshpArgs{Rows: 3, Cols: 5, Elem: 7}.Params(), ones},
		{"reshp-inplace-nonsquare", descriptor.OpRESHP, accel.ReshpArgs{Rows: 3, Cols: 5, Src: 0x1000, Dst: 0x1000}.Params(), ones},
		{"reshp-inplace-nonsquare-overflow", descriptor.OpRESHP, accel.ReshpArgs{Rows: 1 << 40, Cols: 1 << 30, Src: 0x1000, Dst: 0x1000}.Params(), ones},
		{"reshp-short", descriptor.OpRESHP, descriptor.Params{1}, ones},
		{"misaligned-and-overlapping", descriptor.OpAXPY, accel.AxpyArgs{N: 8, X: 0x1002, Y: 0x1010, IncX: 1, IncY: 1}.Params(), ones},
		{"invalid-op", descriptor.OpInvalid, nil, ones},
		{"unknown-op", descriptor.OpCode(99), descriptor.Params{1}, ones},
	}
	var b strings.Builder
	for _, c := range cases {
		fmt.Fprintf(&b, "== %s %v %x counts=%v\n", c.name, c.op, []uint64(c.p), c.counts)
		ops := operandsOf(c.op, c.p, c.counts, func(format string, args ...interface{}) {
			fmt.Fprintf(&b, "fail: "+format+"\n", args...)
		})
		for _, o := range ops {
			fmt.Fprintf(&b, "operand %s base=%#x+%d ext=%#x+%d align=%d acc=%d strides=%v\n",
				o.name, uint64(o.base.Addr), o.base.Bytes, uint64(o.ext.Addr), o.ext.Bytes, o.align, o.acc, o.strides)
		}
		fmt.Fprintf(&b, "nil=%v\n", ops == nil)
		// The same invocation through the public descriptor-level verifier.
		d := &descriptor.Descriptor{}
		if c.op.Valid() {
			if c.counts != ones {
				_ = d.AddLoop(c.counts[:]...)
			}
			_ = d.AddComp(c.op, c.p)
			d.AddEndPass()
			if c.counts != ones {
				d.AddEndLoop()
			}
			fmt.Fprintf(&b, "VerifyDescriptor: %v\n", VerifyDescriptor(d))
		}
	}
	path := filepath.Join("testdata", "operands_golden.txt")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gl, wl := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		if i >= len(gl) || i >= len(wl) || gl[i] != wl[i] {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			t.Fatalf("%s: first difference at line %d:\n got: %s\nwant: %s", path, i+1, g, w)
		}
	}
}
